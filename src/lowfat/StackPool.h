//===- lowfat/StackPool.h - Low-fat stack allocation ------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LIFO stack allocation on top of the low-fat heap, standing in for the
/// native low-fat stack allocator of Duck, Yap & Cavallaro (NDSS 2017).
/// The original aliases the machine stack onto size-class regions with
/// virtual-memory tricks; here each stack object is a heap block with
/// strict frame (mark/release) discipline, which preserves the property
/// the EffectiveSan runtime needs: every stack object is a low-fat
/// allocation with O(1) size(p)/base(p) and a META header slot.
///
/// Escape-aware retirement: allocations flagged Retire (address-taken /
/// escaping slots, marked by the instrumentation pass) are not returned
/// to the heap at frame pop. They sit in a per-pool FIFO quarantine
/// under a byte budget, delaying address reuse — so a dangling pointer
/// into a returned frame still addresses a block whose META header the
/// runtime rebound to the STACK-FREE type, and faults as a stack
/// use-after-return instead of silently reading a recycled object.
/// Non-escaping slots cannot dangle and are freed immediately.
///
/// The typed runtime wraps this class: before release() it walks
/// blocksSince(Mark) to rebind each META header to the STACK-FREE type.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_LOWFAT_STACKPOOL_H
#define EFFECTIVE_LOWFAT_STACKPOOL_H

#include "lowfat/LowFatHeap.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

namespace effective {
namespace lowfat {

/// Per-thread LIFO allocator over a LowFatHeap. Not thread-safe; create
/// one per thread (the EffectiveSan runtime keeps one in TLS). When the
/// heap is sharded, \p Shard selects the sub-arena stack objects come
/// from, so a pooled session's stack allocations stay on its shard.
class StackPool {
public:
  /// Pool tuning knobs.
  struct Options {
    /// Byte budget of the use-after-return quarantine: retired
    /// (escaping) slots up to this many bytes are held back from the
    /// heap, oldest evicted first. 0 disables the delay — escaping
    /// slots free like any other.
    size_t QuarantineBytes = 64 * 1024;
  };

  /// One live stack allocation.
  struct Record {
    void *Ptr;
    /// Owning Frame's identity (0 when allocated outside any RAII
    /// Frame, under raw mark/release discipline).
    uint64_t Frame;
    /// Escaping slot: retire through the quarantine at release.
    bool Retire;
  };

  StackPool(LowFatHeap &Heap, unsigned Shard, Options Opts)
      : Heap(Heap), Shard(Shard), Opts(Opts) {}
  // (Delegation rather than `Options Opts = Options()`: a default
  // argument may not use a nested class's default member initializers
  // before the enclosing class is complete.)
  explicit StackPool(LowFatHeap &Heap, unsigned Shard = 0)
      : StackPool(Heap, Shard, Options()) {}

  ~StackPool() {
    release(0);
    drainQuarantine();
  }

  StackPool(const StackPool &) = delete;
  StackPool &operator=(const StackPool &) = delete;

  /// Current frame mark; pass to release() to free everything allocated
  /// after this point.
  size_t mark() const { return Live.size(); }

  /// Allocates one stack object of \p Size bytes. \p Retire marks an
  /// escaping (address-taken) slot whose release goes through the
  /// quarantine delay.
  void *allocate(size_t Size, bool Retire = false) {
    void *Ptr = Heap.allocateOnShard(Size, Shard);
    if (EFFSAN_UNLIKELY(!Ptr))
      return nullptr; // OOM: nothing to record; caller reports.
    Live.push_back(Record{Ptr, CurrentFrame, Retire});
    ++TotalAllocs;
    return Ptr;
  }

  /// The blocks allocated since \p Mark, oldest first.
  std::span<const Record> blocksSince(size_t Mark) const {
    return std::span<const Record>(Live).subspan(Mark);
  }

  /// Retires all blocks allocated after \p Mark (newest first):
  /// escaping slots enter the quarantine, the rest return to the heap.
  /// This is the engine epilogue path — engines have strict LIFO frame
  /// discipline, so a mark fully identifies the frame.
  void release(size_t Mark) {
    while (Live.size() > Mark) {
      retire(Live.back());
      Live.pop_back();
    }
    ++FramesReleased;
    if (Live.empty())
      drainQuarantine();
  }

  /// Number of live stack objects.
  size_t liveObjects() const { return Live.size(); }

  /// Blocks currently parked in the use-after-return quarantine.
  size_t quarantinedBlocks() const { return Quarantine.size(); }
  size_t quarantinedBytes() const { return QuarantineInUse; }

  /// Lifetime counters (tests and the ABI object-stats surface).
  uint64_t totalAllocs() const { return TotalAllocs; }
  uint64_t framesReleased() const { return FramesReleased; }
  /// Escaping slots ever retired through the quarantine.
  uint64_t retiredBlocks() const { return TotalRetired; }

  /// Forgets every live block *and* the quarantine *without* freeing —
  /// used when the backing heap no longer exists (or was recycled) and
  /// the recorded addresses must not be touched. After this the
  /// destructor is a safe no-op.
  void abandonAll() {
    Live.clear();
    Quarantine.clear();
    QuarantineInUse = 0;
  }

  /// Returns every quarantined block to the heap. Runs automatically
  /// whenever the last live object is released (the outermost frame
  /// popped — no frame is left for a pointer to dangle out of) and at
  /// pool teardown, so a balanced program leaves the pool empty and the
  /// heap's alloc/free counts level. This is also what keeps the
  /// runtime's TLS pools safe to destroy after their runtime: an empty
  /// pool's destructor never touches the (possibly dead) heap.
  void drainQuarantine() {
    for (const auto &[Ptr, Size] : Quarantine)
      Heap.deallocate(Ptr);
    Quarantine.clear();
    QuarantineInUse = 0;
  }

  /// RAII frame: releases its own allocations on scope exit, by frame
  /// *identity*, not by mark — so frames whose lifetimes interleave
  /// (moved-from scopes, out-of-order teardown) never free a sibling
  /// frame's live blocks.
  class Frame {
  public:
    explicit Frame(StackPool &Pool)
        : Pool(Pool), Id(++Pool.NextFrame), Prev(Pool.CurrentFrame) {
      Pool.CurrentFrame = Id;
    }
    ~Frame() {
      Pool.releaseFrame(Id);
      if (Pool.CurrentFrame == Id)
        Pool.CurrentFrame = Prev;
    }

    Frame(const Frame &) = delete;
    Frame &operator=(const Frame &) = delete;

  private:
    StackPool &Pool;
    uint64_t Id;
    uint64_t Prev;
  };

private:
  friend class Frame;

  /// Retires exactly the blocks frame \p Id allocated (newest first),
  /// keeping every other frame's records in order.
  void releaseFrame(uint64_t Id) {
    for (size_t I = Live.size(); I-- > 0;)
      if (Live[I].Frame == Id)
        retire(Live[I]);
    Live.erase(std::remove_if(
                   Live.begin(), Live.end(),
                   [Id](const Record &R) { return R.Frame == Id; }),
               Live.end());
    ++FramesReleased;
    if (Live.empty())
      drainQuarantine();
  }

  /// Escaping slots park in the FIFO quarantine (evicting oldest past
  /// the byte budget); everything else goes straight back to the heap.
  void retire(const Record &R) {
    if (R.Retire && Opts.QuarantineBytes != 0 && Heap.isLowFat(R.Ptr)) {
      size_t Size = Heap.allocationSize(R.Ptr);
      Quarantine.emplace_back(R.Ptr, Size);
      QuarantineInUse += Size;
      ++TotalRetired;
      while (QuarantineInUse > Opts.QuarantineBytes &&
             !Quarantine.empty()) {
        auto [Ptr, Sz] = Quarantine.front();
        Quarantine.pop_front();
        QuarantineInUse -= Sz;
        Heap.deallocate(Ptr);
      }
      return;
    }
    Heap.deallocate(R.Ptr);
  }

  LowFatHeap &Heap;
  unsigned Shard;
  Options Opts;
  std::vector<Record> Live;
  /// FIFO of (block, size) pairs awaiting delayed reuse.
  std::deque<std::pair<void *, size_t>> Quarantine;
  size_t QuarantineInUse = 0;
  uint64_t CurrentFrame = 0;
  uint64_t NextFrame = 0;
  uint64_t TotalAllocs = 0;
  uint64_t TotalRetired = 0;
  uint64_t FramesReleased = 0;
};

} // namespace lowfat
} // namespace effective

#endif // EFFECTIVE_LOWFAT_STACKPOOL_H
