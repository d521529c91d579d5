// Grow-only scratch storage that is never value-initialised.
//
// std::vector<T>::resize zero-fills every element it adds. For a buffer
// that is completely overwritten before each read (the input cache's key
// slot, the payload mirror's record lanes) that fill is pure page-fault
// and memory traffic. ScratchVector's allocator skips value-initialisation,
// and scratch_span() grows the storage without copying the stale contents
// it is about to overwrite.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace dsm {

/// std::allocator whose default construct() is a no-op: resize() leaves
/// new elements uninitialised. Construction with arguments is unchanged.
template <typename T>
struct NoInitAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "only trivially copyable elements may stay uninitialised");
  template <typename U>
  struct rebind {
    using other = NoInitAllocator<U>;
  };

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) > 0) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

template <typename T>
using ScratchVector = std::vector<T, NoInitAllocator<T>>;

/// The first `n` elements of `v`, growing it when it is smaller. Contents
/// are unspecified: the caller overwrites all `n` before reading any.
template <typename T>
std::span<T> scratch_span(ScratchVector<T>& v, std::size_t n) {
  if (v.size() < n) {
    v.clear();  // nothing worth copying into the larger block
    v.resize(n);
  }
  return std::span<T>(v.data(), n);
}

}  // namespace dsm
