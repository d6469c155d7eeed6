//===- support/Arena.h - Bump-pointer allocation ----------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple bump-pointer arena used for objects with arena lifetime: AST
/// nodes, interned TypeInfo objects, and IR. Objects allocated here are
/// never individually freed; trivially-destructible payloads only (the
/// arena does not run destructors).
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_SUPPORT_ARENA_H
#define EFFECTIVE_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace effective {

/// Bump-pointer arena. Not thread-safe; each owning context (TypeContext,
/// minic::ASTContext, ir::Module) embeds its own arena.
class Arena {
public:
  explicit Arena(size_t SlabSize = 64 * 1024) : SlabSize(SlabSize) {}

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Allocates \p Size bytes aligned to \p Align.
  void *allocate(size_t Size, size_t Align = alignof(max_align_t)) {
    assert(Align && (Align & (Align - 1)) == 0 && "alignment must be pow2");
    uintptr_t P = (Cur + Align - 1) & ~(uintptr_t)(Align - 1);
    if (P + Size > End) {
      newSlab(Size + Align);
      P = (Cur + Align - 1) & ~(uintptr_t)(Align - 1);
    }
    Cur = P + Size;
    return reinterpret_cast<void *>(P);
  }

  /// Allocates and default-constructs a \p T with constructor args.
  template <typename T, typename... Args> T *create(Args &&...As) {
    void *Mem = allocate(sizeof(T), alignof(T));
    return new (Mem) T(std::forward<Args>(As)...);
  }

  /// Copies \p S into the arena and returns a stable view of it.
  std::string_view internString(std::string_view S) {
    if (S.empty())
      return {};
    char *Mem = static_cast<char *>(allocate(S.size(), 1));
    std::memcpy(Mem, S.data(), S.size());
    return std::string_view(Mem, S.size());
  }

private:
  void newSlab(size_t MinSize) {
    size_t Size = MinSize > SlabSize ? MinSize : SlabSize;
    Slabs.push_back(std::make_unique<char[]>(Size));
    Cur = reinterpret_cast<uintptr_t>(Slabs.back().get());
    End = Cur + Size;
  }

  size_t SlabSize;
  std::vector<std::unique_ptr<char[]>> Slabs;
  uintptr_t Cur = 0;
  uintptr_t End = 0;
};

} // namespace effective

#endif // EFFECTIVE_SUPPORT_ARENA_H
