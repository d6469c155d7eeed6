//===- support/UniqueStamp.h - Process-unique stamps ------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process-wide source of unique, nonzero stamps. Runtimes, heaps,
/// session pools and IR modules each take one at construction so that
/// a cache or registry keyed by their address cannot mistake a new
/// object for a destroyed one at the same address.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_SUPPORT_UNIQUESTAMP_H
#define EFFECTIVE_SUPPORT_UNIQUESTAMP_H

#include <atomic>
#include <cstdint>

namespace effective {

inline uint64_t nextUniqueStamp() {
  static std::atomic<uint64_t> Counter{0};
  return Counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace effective

#endif // EFFECTIVE_SUPPORT_UNIQUESTAMP_H
