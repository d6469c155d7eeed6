//===- support/ThreadBlocks.h - Per-thread block registry -------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one registry of per-(thread, owner) state: a runtime's check
/// contexts (core/Runtime.h) and a heap's thread caches
/// (lowfat/LowFatHeap.h). An owner keeps an append-only lock-free list
/// of blocks, one per thread that used it, each written only by its
/// thread; readers walk the list. A thread reaches its block through a
/// one-entry TLS memory keyed by the owner's process-unique stamp
/// (recent()), so an owner built at a dead one's address never sees the
/// dead one's block; otherwise through lookup(), out of line.
///
/// Threads and owners may die in any order. One process-wide lock per
/// block type arbitrates:
///   * A thread that exits takes the lock and, for every block it still
///     holds, calls threadExit() and frees the block. The owner's next
///     new thread adopts it, so a list is as long as the most threads
///     that ever used the owner at once.
///   * An owner that dies (retireAll()) takes the lock, calls recycle()
///     on each block and returns it to a process-wide pool that is
///     never destroyed. A pooled block carries no thread's token, so
///     the exit of the thread that held it leaves it alone.
///
/// A Block is default-constructible and provides:
///   std::atomic<uint64_t> Owner{0}; // Holding thread's token; 0 = free.
///   Block *Next = nullptr;          // Immutable while on a list.
///   void threadExit();              // Its thread exits; owner alive.
///   void recycle();                 // Its owner dies; leave it empty.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_SUPPORT_THREADBLOCKS_H
#define EFFECTIVE_SUPPORT_THREADBLOCKS_H

#include "support/Compiler.h"
#include "support/UniqueStamp.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace effective {

/// One increment of a counter that only its owning thread writes: a
/// relaxed load and store instead of a lock-prefixed RMW, which would
/// dominate a bounds check. Exact, because no other thread writes the
/// counter; readers only load it. Returns the count before the
/// increment, which the check samplers decimate on.
EFFSAN_ALWAYS_INLINE uint64_t ownerBump(std::atomic<uint64_t> &C) {
  uint64_t N = C.load(std::memory_order_relaxed);
  C.store(N + 1, std::memory_order_relaxed);
  return N;
}

/// An owner's registry of per-thread blocks (see the file comment).
template <typename Block> class ThreadBlocks {
public:
  ThreadBlocks() : Stamp(nextUniqueStamp()) {}
  ~ThreadBlocks() { retireAll(); }
  ThreadBlocks(const ThreadBlocks &) = delete;
  ThreadBlocks &operator=(const ThreadBlocks &) = delete;

  /// The newest block on the list, held or free; follow Block::Next.
  Block *first() const { return Head.load(std::memory_order_acquire); }

  /// Blocks on the list, held or free.
  size_t size() const {
    size_t N = 0;
    for (const Block *B = first(); B; B = B->Next)
      ++N;
    return N;
  }

  /// The calling thread's block, if it is the one the thread found
  /// last.
  EFFSAN_ALWAYS_INLINE Block *recent() const {
    const Recent &R = recentSlot();
    return R.Stamp == Stamp ? R.B : nullptr;
  }

  /// The calling thread's block: found on the list, else adopted from
  /// an exited thread, else taken from the pool or created and passed
  /// to \p Init before it joins the list. The thread remembers it for
  /// recent().
  template <typename InitFn> EFFSAN_NOINLINE Block &lookup(InitFn &&Init) {
    Held &H = held();
    Block *First = first();
    Block *B = First;
    while (B && B->Owner.load(std::memory_order_relaxed) != H.Token)
      B = B->Next;
    if (!B) {
      // Adopt an exited thread's block: the acquire pairs with its
      // release, so everything it left is visible before this thread
      // writes.
      for (Block *C = First; !B && C; C = C->Next) {
        uint64_t Free = 0;
        if (C->Owner.compare_exchange_strong(Free, H.Token,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed))
          B = C;
      }
      if (!B)
        B = &join(First, H.Token, Init);
      // Forget blocks that dead owners took back (or a re-entry of
      // this one from the pool), then hold this one.
      std::erase_if(H.Blocks, [&](const Block *C) {
        return C == B ||
               C->Owner.load(std::memory_order_relaxed) != H.Token;
      });
      H.Blocks.push_back(B);
    }
    recentSlot() = {Stamp, B};
    return *B;
  }

  /// Recycles every block into the process pool; idempotent. \pre No
  /// thread uses the owner concurrently.
  void retireAll() {
    Pool &P = Pool::get();
    std::lock_guard<std::mutex> Guard(P.Lock);
    for (Block *B = Head.exchange(nullptr, std::memory_order_acquire); B;) {
      Block *Next = B->Next;
      B->recycle();
      B->Owner.store(0, std::memory_order_relaxed);
      P.Free.push_back(B);
      B = Next;
    }
  }

private:
  /// Blocks of dead owners, empty and free. Never destroyed, so it
  /// outlives every static owner and every thread.
  struct Pool {
    std::mutex Lock;
    std::vector<Block *> Free;

    static Pool &get() {
      static Pool *P = new Pool;
      return *P;
    }
  };

  /// The calling thread's token and the blocks it holds.
  struct Held {
    uint64_t Token = nextUniqueStamp();
    std::vector<Block *> Blocks;

    ~Held() {
      Pool &P = Pool::get();
      std::lock_guard<std::mutex> Guard(P.Lock);
      for (Block *B : Blocks)
        if (B->Owner.load(std::memory_order_relaxed) == Token) {
          B->threadExit();
          B->Owner.store(0, std::memory_order_release);
        }
    }
  };

  struct Recent {
    uint64_t Stamp;
    Block *B;
  };

  static Recent &recentSlot() {
    constinit thread_local Recent R{};
    return R;
  }
  static Held &held() {
    thread_local Held H;
    return H;
  }

  /// Takes a pooled block (or a new one), initializes it and pushes it
  /// onto the list held by \p Token.
  template <typename InitFn>
  Block &join(Block *First, uint64_t Token, InitFn &Init) {
    Block *B = nullptr;
    {
      Pool &P = Pool::get();
      std::lock_guard<std::mutex> Guard(P.Lock);
      if (!P.Free.empty()) {
        B = P.Free.back();
        P.Free.pop_back();
      }
    }
    if (!B)
      B = new Block;
    Init(*B);
    B->Owner.store(Token, std::memory_order_relaxed);
    B->Next = First;
    while (!Head.compare_exchange_weak(B->Next, B, std::memory_order_release,
                                       std::memory_order_acquire)) {
    }
    return *B;
  }

  const uint64_t Stamp;
  std::atomic<Block *> Head{nullptr};
};

} // namespace effective

#endif // EFFECTIVE_SUPPORT_THREADBLOCKS_H
