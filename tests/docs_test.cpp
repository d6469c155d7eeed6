//===- tests/docs_test.cpp - Documentation link integrity -----------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Broken-link gate for the docs/ tree and README.md: every relative
/// markdown link (`[text](path)`) must resolve to an existing file or
/// directory in the repository. External (http/https/mailto) links and
/// pure in-page anchors are skipped; a `path#anchor` link is checked
/// for its file part. The CI docs job runs exactly this test, so a doc
/// rename that leaves a dangling reference fails the build, not a
/// reader.
///
/// EFFSAN_SOURCE_DIR is injected by CMake.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

#ifndef EFFSAN_SOURCE_DIR
#error "EFFSAN_SOURCE_DIR must point at the repository root"
#endif

const fs::path Root = EFFSAN_SOURCE_DIR;

/// The markdown files whose links are enforced.
std::vector<fs::path> docFiles() {
  std::vector<fs::path> Files = {Root / "README.md"};
  for (const auto &Entry : fs::directory_iterator(Root / "docs"))
    if (Entry.path().extension() == ".md")
      Files.push_back(Entry.path());
  return Files;
}

std::string slurp(const fs::path &P) {
  std::ifstream In(P);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

bool isExternal(const std::string &Target) {
  return Target.starts_with("http://") || Target.starts_with("https://") ||
         Target.starts_with("mailto:");
}

} // namespace

TEST(Docs, TreeExists) {
  ASSERT_TRUE(fs::exists(Root / "docs")) << Root;
  EXPECT_TRUE(fs::exists(Root / "docs" / "ARCHITECTURE.md"));
  EXPECT_TRUE(fs::exists(Root / "docs" / "ABI.md"));
  EXPECT_TRUE(fs::exists(Root / "docs" / "REPORT_FORMAT.md"));
  EXPECT_TRUE(fs::exists(Root / "docs" / "BYTECODE.md"));
}

TEST(Docs, ReadmeLinksTheDocsTree) {
  std::string Readme = slurp(Root / "README.md");
  EXPECT_NE(Readme.find("docs/ARCHITECTURE.md"), std::string::npos);
  EXPECT_NE(Readme.find("docs/ABI.md"), std::string::npos);
  EXPECT_NE(Readme.find("docs/REPORT_FORMAT.md"), std::string::npos);
  EXPECT_NE(Readme.find("docs/BYTECODE.md"), std::string::npos);
}

TEST(Docs, NoBrokenRelativeLinks) {
  // Markdown inline links, ignoring images and reference-style defs.
  std::regex LinkRe(R"(\[[^\]]*\]\(([^)\s]+)\))");
  unsigned Checked = 0;
  for (const fs::path &File : docFiles()) {
    std::string Text = slurp(File);
    ASSERT_FALSE(Text.empty()) << File;
    for (std::sregex_iterator It(Text.begin(), Text.end(), LinkRe), End;
         It != End; ++It) {
      std::string Target = (*It)[1];
      if (isExternal(Target) || Target.starts_with("#"))
        continue;
      // Strip an in-page anchor from a file link.
      if (size_t Hash = Target.find('#'); Hash != std::string::npos)
        Target = Target.substr(0, Hash);
      if (Target.empty())
        continue;
      fs::path Resolved = File.parent_path() / Target;
      EXPECT_TRUE(fs::exists(Resolved))
          << File.filename() << " links to missing target: " << Target;
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 10u) << "link extraction regressed";
}

TEST(Docs, StackGlobalSectionsArePinned) {
  // PR 9's doc surface: the architecture section, the ABI 1.8
  // catalogue + changelog row, and the report-format coverage of the
  // new error class must not silently disappear in a rewrite.
  std::string Arch = slurp(Root / "docs" / "ARCHITECTURE.md");
  EXPECT_NE(Arch.find("## Stack & global objects"), std::string::npos);
  EXPECT_NE(Arch.find("use-after-return quarantine"), std::string::npos);
  EXPECT_NE(Arch.find("Block-owned stack pools"), std::string::npos);
  EXPECT_NE(Arch.find("effsan_globals_register"), std::string::npos);

  std::string Abi = slurp(Root / "docs" / "ABI.md");
  EXPECT_NE(Abi.find("### 1.8 — typed stack & global objects"),
            std::string::npos);
  EXPECT_NE(Abi.find("effsan_stack_enter"), std::string::npos);
  EXPECT_NE(Abi.find("effsan_stack_alloc_typed"), std::string::npos);
  EXPECT_NE(Abi.find("effsan_object_stats"), std::string::npos);
  EXPECT_NE(Abi.find("EFFSAN_ERROR_STACK_USE_AFTER_RETURN"),
            std::string::npos);
  EXPECT_NE(Abi.find("| 1.8 | PR 9 |"), std::string::npos)
      << "changelog row missing";

  std::string Report = slurp(Root / "docs" / "REPORT_FORMAT.md");
  EXPECT_NE(Report.find("\"STACK USE-AFTER-RETURN ERROR\""),
            std::string::npos)
      << "grammar must list the new kind";
  EXPECT_NE(
      Report.find("STACK USE-AFTER-RETURN ERROR at uar.c:9:12 in main: "
                  "allocated (<stack-free>), used as (int) at offset 0 "
                  "[use of stack object after frame return]"),
      std::string::npos)
      << "worked example missing";
}

TEST(Docs, ObservabilityListsEveryServiceMetric) {
  // Every family the supervisor renders is documented.
  std::string Obs = slurp(Root / "docs" / "OBSERVABILITY.md");
  for (const char *Family :
       {"effsan_service_tenants_opened_total",
        "effsan_service_tenants_evicted_total",
        "effsan_service_tenants_closed_total",
        "effsan_service_leases_granted_total",
        "effsan_service_leases_refused_total",
        "effsan_service_drain_ticks_total",
        "effsan_service_drained_events_total",
        "effsan_service_ring_overflows_total",
        "effsan_service_policy_degrades_total",
        "effsan_service_policy_restores_total",
        "effsan_service_issues_found_total",
        "effsan_service_snapshots_emitted_total",
        "effsan_service_snapshots_skipped_total",
        "effsan_service_ring_fallbacks_total",
        "effsan_service_ring_drops_total",
        "effsan_service_drain_restarts_total",
        "effsan_service_watchdog_checks_total", "effsan_checks_total",
        "effsan_check_cache_hits_total", "effsan_check_cache_misses_total",
        "effsan_heap_allocs_total", "effsan_heap_frees_total",
        "effsan_heap_magazine_hits_total",
        "effsan_heap_magazine_refills_total", "effsan_heap_steals_total",
        "effsan_service_tenants_open", "effsan_service_health",
        "effsan_service_ring_occupancy_percent",
        "effsan_heap_block_bytes_in_use", "effsan_heap_quarantined_bytes",
        "effsan_service_drain_tick_duration_ticks",
        "effsan_service_ring_occupancy_pct",
        "effsan_heap_class_carved_bytes"})
    EXPECT_TRUE(Obs.find(std::string("`") + Family + "`") !=
                    std::string::npos ||
                Obs.find(std::string("`") + Family + "{") !=
                    std::string::npos)
        << Family;

  std::string Service = slurp(Root / "docs" / "SERVICE.md");
  EXPECT_NE(Service.find("EFFSAN_SERVICE_STATS"), std::string::npos);
  std::string Abi = slurp(Root / "docs" / "ABI.md");
  EXPECT_NE(Abi.find("writePrefix"), std::string::npos);
}

TEST(Docs, ResilienceSectionsArePinned) {
  // PR 10's doc surface: the resilience guide (fault-point catalogue,
  // health state machine, replay workflow), the ABI 1.9 catalogue +
  // changelog row, and the README/SERVICE coverage.
  ASSERT_TRUE(fs::exists(Root / "docs" / "RESILIENCE.md"));
  std::string Res = slurp(Root / "docs" / "RESILIENCE.md");
  for (const char *Point :
       {"heap_exhausted", "heap_slice_exhausted", "heap_magazine_refill",
        "heap_quarantine_overrun", "ring_full", "site_register",
        "drain_stall", "snapshot_hook", "governor_misfire"})
    EXPECT_NE(Res.find(Point), std::string::npos)
        << "catalogue missing fault point: " << Point;
  EXPECT_NE(Res.find("## Deterministic replay"), std::string::npos);
  EXPECT_NE(Res.find("### Health state machine"), std::string::npos);
  EXPECT_NE(Res.find("EFFSAN_FAULTS"), std::string::npos);
  EXPECT_NE(Res.find("count:N@S"), std::string::npos)
      << "spec grammar missing";

  std::string Abi = slurp(Root / "docs" / "ABI.md");
  EXPECT_NE(Abi.find("### 1.9 — resilience"), std::string::npos);
  EXPECT_NE(Abi.find("effsan_fault_configure"), std::string::npos);
  EXPECT_NE(Abi.find("effsan_service_health"), std::string::npos);
  EXPECT_NE(Abi.find("effsan_service_checkout_hint"), std::string::npos);
  EXPECT_NE(Abi.find("EFFSAN_ERROR_RESOURCE_EXHAUSTED"), std::string::npos);
  EXPECT_NE(Abi.find("| 1.9 | PR 10 |"), std::string::npos)
      << "changelog row missing";

  std::string Service = slurp(Root / "docs" / "SERVICE.md");
  EXPECT_NE(Service.find("## Self-healing and health (since 1.9)"),
            std::string::npos);
  EXPECT_NE(Service.find("\"ring_fallbacks\""), std::string::npos)
      << "snapshot schema must carry the resilience counters";

  std::string Readme = slurp(Root / "README.md");
  EXPECT_NE(Readme.find("## Resilience"), std::string::npos);
  EXPECT_NE(Readme.find("docs/RESILIENCE.md"), std::string::npos);
}
