//===- perfbench/src/Trace.cpp - In-memory span recorder ------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <chrono>
#include <cstdio>

using namespace perfbench;

std::atomic<Tracer *> Tracer::Active{nullptr};

namespace {
struct ThreadSlot {
  const Tracer *Owner = nullptr;
  void *Buf = nullptr;
};
thread_local ThreadSlot Slot;
thread_local bool Muted = false;
} // namespace

MuteSpans::MuteSpans(bool On) : Saved(Muted) { Muted = Saved || On; }
MuteSpans::~MuteSpans() { Muted = Saved; }

namespace {
int64_t steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
} // namespace

Tracer::Tracer() : Epoch(steadyNs()) {}

Tracer &Tracer::instance() {
  static Tracer T;
  return T;
}

int64_t Tracer::nowNs() const { return steadyNs() - Epoch; }

Tracer::Buffer &Tracer::threadBuffer() {
  if (Slot.Owner == this)
    return *static_cast<Buffer *>(Slot.Buf);
  std::lock_guard<std::mutex> Guard(Lock);
  Buffers.push_back(std::make_unique<Buffer>());
  Buffer &B = *Buffers.back();
  B.Tid = static_cast<unsigned>(Buffers.size());
  B.Records.reserve(1 << 14);
  Slot.Owner = this;
  Slot.Buf = &B;
  return B;
}

Span::Span(const char *Name, uint64_t Group, uint64_t Count)
    : Owner(Muted ? nullptr : Tracer::active()) {
  if (!Owner)
    return;
  Buf = &Owner->threadBuffer();
  Index = static_cast<int32_t>(Buf->Records.size());
  int32_t Parent = Buf->Open.empty() ? -1 : Buf->Open.back();
  Buf->Records.push_back({Name, Group, Count, Owner->nowNs(), 0, Parent});
  Buf->Open.push_back(Index);
}

Span::~Span() {
  if (!Owner)
    return;
  Buf->Records[Index].EndNs = Owner->nowNs();
  Buf->Open.pop_back();
}

bool Tracer::write(const std::string &Path,
                   const std::string &OtherDataJson) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Guard(Lock);
  std::fputs("{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n", F);
  bool First = true;
  for (const auto &B : Buffers) {
    for (size_t I = 0; I < B->Records.size(); ++I) {
      const Record &R = B->Records[I];
      // Span ids are (thread, index) packed; parents live on the same
      // thread by construction.
      uint64_t Id = (uint64_t(B->Tid) << 32) | I;
      long long ParentId =
          R.Parent < 0 ? -1
                       : (long long)((uint64_t(B->Tid) << 32) |
                                     uint64_t(R.Parent));
      std::string_view Name(R.Name);
      std::string_view Cat = Name.substr(0, Name.find('.'));
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"span\": %llu, \"parent\": %lld, "
                   "\"group\": %llu, \"count\": %llu}}",
                   First ? "" : ",\n", R.Name, (int)Cat.size(), Cat.data(),
                   B->Tid, R.StartNs / 1e3, (R.EndNs - R.StartNs) / 1e3,
                   (unsigned long long)Id, ParentId,
                   (unsigned long long)R.Group,
                   (unsigned long long)R.Count);
      First = false;
    }
  }
  std::fprintf(F, "\n],\n\"otherData\": %s\n}\n", OtherDataJson.c_str());
  bool Ok = std::ferror(F) == 0;
  return std::fclose(F) == 0 && Ok;
}
