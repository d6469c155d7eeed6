//===- obs/Metrics.cpp - Log2 histograms, Prometheus text -----------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

namespace effective {
namespace obs {

namespace {

void appendSample(std::string &Out, std::string_view Name,
                  std::string_view Labels, std::string_view Value) {
  Out += Name;
  if (!Labels.empty()) {
    Out += '{';
    Out += Labels;
    Out += '}';
  }
  Out += ' ';
  Out += Value;
  Out += '\n';
}

} // namespace

void PromWriter::header(std::string_view Name, std::string_view Help,
                        const char *Type) {
  if (Name == Family)
    return;
  Family = Name;
  Out += "# HELP ";
  Out += Name;
  Out += ' ';
  Out += Help;
  Out += "\n# TYPE ";
  Out += Name;
  Out += ' ';
  Out += Type;
  Out += '\n';
}

void PromWriter::counter(std::string_view Name, std::string_view Labels,
                         std::string_view Help, uint64_t Value) {
  header(Name, Help, "counter");
  appendSample(Out, Name, Labels, std::to_string(Value));
}

void PromWriter::gauge(std::string_view Name, std::string_view Labels,
                       std::string_view Help, int64_t Value) {
  header(Name, Help, "gauge");
  appendSample(Out, Name, Labels, std::to_string(Value));
}

void PromWriter::histogram(std::string_view Name, std::string_view Labels,
                           std::string_view Help, const Histogram &H) {
  header(Name, Help, "histogram");
  // Highest non-empty bucket bounds the rendered tail; everything above
  // it collapses into +Inf.
  unsigned Top = 0;
  for (unsigned I = 0; I < Histogram::NumBuckets; ++I)
    if (H.bucket(I))
      Top = I;
  std::string Bucket = std::string(Name) + "_bucket";
  std::string Prefix = Labels.empty() ? "" : std::string(Labels) + ",";
  uint64_t Cum = 0;
  for (unsigned I = 0; I <= Top; ++I) {
    Cum += H.bucket(I);
    // Bucket i holds samples <= 2^i - 1.
    uint64_t Le = (I >= 64) ? ~uint64_t(0) : ((uint64_t(1) << I) - 1);
    appendSample(Out, Bucket, Prefix + "le=\"" + std::to_string(Le) + "\"",
                 std::to_string(Cum));
  }
  appendSample(Out, Bucket, Prefix + "le=\"+Inf\"", std::to_string(H.count()));
  appendSample(Out, std::string(Name) + "_sum", Labels,
               std::to_string(H.sum()));
  appendSample(Out, std::string(Name) + "_count", Labels,
               std::to_string(H.count()));
}

Histogram &MetricsRegistry::histogram(const std::string &Name,
                                      const std::string &Help,
                                      const std::string &Labels) {
  std::lock_guard<std::mutex> G(Lock);
  for (auto &E : Entries)
    if (E->Name == Name && E->Labels == Labels)
      return E->H;
  auto E = std::make_unique<Entry>();
  E->Name = Name;
  E->Labels = Labels;
  E->Help = Help;
  Entries.push_back(std::move(E));
  return Entries.back()->H;
}

void MetricsRegistry::render(std::string &Out) const {
  std::lock_guard<std::mutex> G(Lock);
  PromWriter W(Out);
  for (const auto &E : Entries)
    W.histogram(E->Name, E->Labels, E->Help, E->H);
}

MetricsRegistry &MetricsRegistry::global() {
  // Leaky singleton: sampled check paths may observe during teardown.
  static MetricsRegistry *R = new MetricsRegistry;
  return *R;
}

Histogram &checkFastLatency() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "effsan_check_fast_latency_ticks",
      "Sampled type-check latency on the inline-cache hit path (TSC ticks)");
  return H;
}

Histogram &checkSlowLatency() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "effsan_check_slow_latency_ticks",
      "Sampled type-check latency on the cache-miss/legacy path (TSC ticks)");
  return H;
}

} // namespace obs
} // namespace effective
