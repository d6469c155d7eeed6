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
/// Its pools live in the runtime's per-thread check context blocks
/// (core/Runtime.h), one per (thread, runtime).
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_LOWFAT_STACKPOOL_H
#define EFFECTIVE_LOWFAT_STACKPOOL_H

#include "lowfat/LowFatHeap.h"
#include "support/Compiler.h"
#include "support/ThreadBlocks.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

namespace effective {
namespace lowfat {

/// Per-thread LIFO allocator over a LowFatHeap. Only its owning thread
/// may allocate and release; other threads may read the lifetime
/// counters. When the heap is sharded, \p Shard selects the sub-arena
/// stack objects come from, so a pooled session's stack allocations
/// stay on its shard.
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

  /// Frees every live block and drains the quarantine (release(0)).
  ~StackPool() { release(0); }

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
    Live.push_back(Record{Ptr, Retire});
    ownerBump(TotalAllocs);
    return Ptr;
  }

  /// The blocks allocated since \p Mark, oldest first.
  std::span<const Record> blocksSince(size_t Mark) const {
    return std::span<const Record>(Live).subspan(Mark);
  }

  /// Retires all blocks allocated after \p Mark (newest first):
  /// escaping slots enter the quarantine, the rest return to the heap.
  /// Frames are strictly LIFO, so a mark fully identifies the frame.
  void release(size_t Mark) {
    while (Live.size() > Mark) {
      retire(Live.back());
      Live.pop_back();
    }
    ownerBump(FramesReleased);
    if (Live.empty())
      drainQuarantine();
  }

  /// Number of live stack objects.
  size_t liveObjects() const { return Live.size(); }

  /// Blocks currently parked in the use-after-return quarantine.
  size_t quarantinedBlocks() const { return Quarantine.size(); }
  size_t quarantinedBytes() const { return QuarantineInUse; }

  /// Lifetime counters (tests and the ABI object-stats surface); any
  /// thread may read them.
  uint64_t totalAllocs() const {
    return TotalAllocs.load(std::memory_order_relaxed);
  }
  uint64_t framesReleased() const {
    return FramesReleased.load(std::memory_order_relaxed);
  }
  /// Escaping slots ever released, whether or not the quarantine held
  /// them (it cannot hold legacy blocks, nor anything at budget 0).
  uint64_t retiredBlocks() const {
    return TotalRetired.load(std::memory_order_relaxed);
  }

  /// Forgets every live block *and* the quarantine *without* freeing —
  /// used when the backing arena was recycled and the recorded
  /// addresses must not be touched. After this the destructor does not
  /// touch the heap.
  void abandonAll() {
    Live.clear();
    Quarantine.clear();
    QuarantineInUse = 0;
  }

private:
  /// Returns every quarantined block to the heap. Runs whenever the
  /// last live object is released (the outermost frame popped — no
  /// frame is left for a pointer to dangle out of) and at pool
  /// teardown, so a balanced program leaves the pool empty and the
  /// heap's alloc/free counts level.
  void drainQuarantine() {
    for (const auto &[Ptr, Size] : Quarantine)
      Heap.deallocate(Ptr);
    Quarantine.clear();
    QuarantineInUse = 0;
  }

  /// Escaping slots park in the FIFO quarantine (evicting oldest past
  /// the byte budget); everything else goes straight back to the heap.
  void retire(const Record &R) {
    if (R.Retire)
      ownerBump(TotalRetired);
    if (R.Retire && Opts.QuarantineBytes != 0 && Heap.isLowFat(R.Ptr)) {
      size_t Size = Heap.allocationSize(R.Ptr);
      Quarantine.emplace_back(R.Ptr, Size);
      QuarantineInUse += Size;
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
  std::atomic<uint64_t> TotalAllocs{0};
  std::atomic<uint64_t> TotalRetired{0};
  std::atomic<uint64_t> FramesReleased{0};
};

} // namespace lowfat
} // namespace effective

#endif // EFFECTIVE_LOWFAT_STACKPOOL_H
