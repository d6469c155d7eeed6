//===- bench/fig1_capabilities.cpp - Reproduces Figure 1 ------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 1 of the paper: the capability matrix of
/// sanitizers against type and memory errors. Each row is a sanitizer
/// model run against the error-scenario suite; cells show Yes / Partial
/// / - per error class, with the per-scenario detail below.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baselines/ErrorSuite.h"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace effective;
using namespace effective::baselines;

int main() {
  bench::banner("Figure 1: Summary of sanitizers and capabilities against "
                "type\nand memory errors (reproduction)");

  std::printf("%-22s %-10s %-10s %-10s %-10s %-10s %s\n", "Sanitizer",
              "Types", "Bounds", "UAF", "Stack", "Global", "FalsePos");
  std::printf("%-22s %-10s %-10s %-10s %-10s %-10s %s\n", "---------",
              "-----", "------", "---", "-----", "------", "--------");

  std::vector<std::vector<ScenarioOutcome>> AllDetails;
  for (ModelKind Kind : AllModelKinds) {
    std::vector<ScenarioOutcome> Details;
    MatrixRow Row = evaluateModel(Kind, &Details);
    AllDetails.push_back(Details);
    std::printf("%-22s %-10s %-10s %-10s %-10s %-10s %u\n",
                modelKindName(Kind),
                capabilityMark(Row.typesCapability()),
                capabilityMark(Row.boundsCapability()),
                capabilityMark(Row.temporalCapability()),
                capabilityMark(Row.stackCapability()),
                capabilityMark(Row.globalCapability()),
                Row.ControlFalsePositives);
  }

  std::printf("\nCaveats reproduced (see paper Figure 1 footnotes):\n");
  std::printf(" *  type tools: only a subset of explicit C++ casts\n");
  std::printf(" ^  libcrunch: only explicit C casts\n");
  std::printf(" +  LowFat/Baggy/ASan: allocation bounds only\n");
  std::printf(" #  ASan: use-after-free but not reuse-after-free\n");
  std::printf(" $  EffectiveSan: reuse-after-free for different types "
              "only\n");

  std::printf("\nPer-scenario detail (x = detected):\n\n");
  std::printf("%-28s", "scenario \\ tool");
  for (ModelKind Kind : AllModelKinds)
    std::printf(" %.4s", modelKindName(Kind));
  std::printf("\n");
  const std::vector<Scenario> &Suite = errorSuite();
  for (size_t SI = 0; SI < Suite.size(); ++SI) {
    std::printf("%-28s", Suite[SI].Id);
    for (size_t MI = 0; MI < AllDetails.size(); ++MI)
      std::printf(" %.4s", AllDetails[MI][SI].Detected ? " x  " : " .  ");
    std::printf("\n");
  }

  std::printf("\nScenario key:\n");
  for (const Scenario &S : Suite)
    std::printf("  %-26s [%s] %s\n", S.Id, errorClassName(S.Class),
                S.Summary);
  return 0;
}
