// SHMEM runtime: symmetric heap + one-sided put/get + collectives.
//
// SHMEM's defining properties (per the paper):
//   * a symmetric, segmented address space — every PE allocates the same
//     objects at the same offsets, so a process names remote data with
//     (local offset, PE id);
//   * one-sided communication — only the initiating side computes message
//     parameters (the paper's radix uses receiver-initiated `get`, which
//     also deposits the data in the getter's cache);
//   * cheaper collectives and no per-pair slot back-pressure, which is why
//     SHMEM beats MPI on the permutation-heavy radix sort.
//
// Get and put phases are charged, not executed: timing runs through the
// one-sided DES epochs (per-source memory serialisation for gets,
// quiescence for puts).
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "sim/team.hpp"

namespace dsm::shmem {

/// Symmetric heap: one segment per PE, identical layout. Allocation is a
/// host-side (pre-run) operation, mirroring shmalloc's requirement that
/// every PE allocates collectively and receives the same offset.
class SymmetricHeap {
 public:
  SymmetricHeap(int npes, std::uint64_t bytes_per_pe);

  int npes() const { return npes_; }
  std::uint64_t segment_bytes() const { return segment_bytes_; }

  /// Allocate `bytes` (aligned) in every PE's segment; returns the common
  /// offset. Throws when the segment is exhausted.
  std::uint64_t alloc_bytes(std::uint64_t bytes, std::uint64_t align = 64);

  template <typename T>
  std::uint64_t alloc(std::uint64_t count) {
    return alloc_bytes(count * sizeof(T), alignof(T) < 8 ? 8 : alignof(T));
  }

  std::byte* addr(int pe, std::uint64_t offset);
  const std::byte* addr(int pe, std::uint64_t offset) const;

  template <typename T>
  T* at(int pe, std::uint64_t offset) {
    return reinterpret_cast<T*>(addr(pe, offset));
  }

 private:
  int npes_;
  std::uint64_t segment_bytes_;
  std::uint64_t brk_ = 0;
  std::vector<std::vector<std::byte>> segments_;
};

/// One blocking get: `bytes` from (src_pe, src_offset) into local `dst`.
struct GetOp {
  std::byte* dst = nullptr;
  int src_pe = 0;
  std::uint64_t src_offset = 0;
  std::uint64_t bytes = 0;
};

/// One put: `bytes` from local `src` into (dst_pe, dst_offset).
struct PutOp {
  const std::byte* src = nullptr;
  int dst_pe = 0;
  std::uint64_t dst_offset = 0;
  std::uint64_t bytes = 0;
};

class Shmem {
 public:
  Shmem(sim::SimTeam& team, SymmetricHeap& heap);

  int npes() const { return team_.nprocs(); }
  SymmetricHeap& heap() { return heap_; }

  /// Charge a batch of blocking gets issued back-to-back by this PE, or a
  /// batch of puts whose delivery completes at the next barrier_all
  /// (quiescence, as in real SHMEM). Collective: every PE must call,
  /// possibly with an empty batch. They read only each op's PE and
  /// `bytes` (the addresses may be null): the sorts' keys already sit at
  /// their destinations in the record (DESIGN.md §5.3), so no data moves.
  void charge_get_phase(sim::ProcContext& ctx, std::span<const GetOp> gets);
  void charge_put_phase(sim::ProcContext& ctx, std::span<const PutOp> puts);

  void barrier_all(sim::ProcContext& ctx);

  /// Collective gather-and-reduce over fcollect: every PE contributes an
  /// equal-size block `in`, the last arriver runs `reduce` once over the
  /// PE-indexed blocks (a sim::Blocks<T>), and every PE receives the same
  /// result. Charged exactly like fcollect: each modelled PE still
  /// collects every block and derives the result itself, only the host
  /// computes it once (DESIGN.md §5.1). `reduce` must be pure.
  template <typename T, typename R, typename Reduce>
  std::shared_ptr<const R> fcollect_reduce(sim::ProcContext& ctx,
                                           std::span<const T> in,
                                           Reduce reduce) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto res = team_.reconcile_shared<std::span<const T>, R>(
        ctx, in, sim::over_equal_blocks<T>(reduce, "fcollect"));
    charge_fcollect(ctx, in.size() * sizeof(T));
    team_.vbarrier(ctx);
    return res;
  }

  /// Collective allgather (shmem_fcollect): `in` from every PE
  /// concatenated by PE id into `out` on every PE.
  template <typename T>
  void fcollect(sim::ProcContext& ctx, std::span<const T> in,
                std::span<T> out) {
    DSM_REQUIRE(out.size() == in.size() * static_cast<std::size_t>(npes()),
                "fcollect output must hold npes blocks");
    const auto all = fcollect_reduce<T, std::vector<T>>(
        ctx, in, sim::concat_blocks<T>);
    std::copy(all->begin(), all->end(), out.begin());
  }

  /// Collective broadcast (shmem_broadcast): every PE's `data` receives
  /// the root's contents.
  template <typename T>
  void broadcast(sim::ProcContext& ctx, int root, std::span<T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    DSM_REQUIRE(root >= 0 && root < npes(), "broadcast root out of range");
    const auto payload = team_.reconcile_shared<std::span<const T>,
                                                std::vector<T>>(
        ctx, std::span<const T>(data),
        sim::over_equal_blocks<T>(
            [root](sim::Blocks<T> b) {
              const auto& r = b[static_cast<std::size_t>(root)];
              return std::vector<T>(r.begin(), r.end());
            },
            "broadcast"));
    std::copy(payload->begin(), payload->end(), data.begin());
    charge_tree(ctx, data.size() * sizeof(T));
    team_.vbarrier(ctx);
  }

  /// Collective concatenation with per-PE block sizes (shmem_collect):
  /// `out` must hold the sum of all PEs' `in` sizes; blocks are placed in
  /// PE order. Returns this PE's block offset within `out` (elements).
  template <typename T>
  std::uint64_t collect(sim::ProcContext& ctx, std::span<const T> in,
                        std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    struct Collected {
      std::vector<T> data;
      std::vector<std::uint64_t> offsets;  // each PE's block offset
    };
    const auto all = team_.reconcile_shared<std::span<const T>, Collected>(
        ctx, in, [](std::span<const std::span<const T>* const> deps) {
          Collected c;
          for (const std::span<const T>* d : deps) {
            c.offsets.push_back(c.data.size());
            c.data.insert(c.data.end(), d->begin(), d->end());
          }
          return c;
        });
    DSM_REQUIRE(out.size() == all->data.size(),
                "collect output must hold every PE's block");
    std::copy(all->data.begin(), all->data.end(), out.begin());
    // Charged like fcollect with the mean block size, plus a small
    // size-exchange round (variable-size collect must agree on offsets).
    charge_fcollect(ctx, all->data.size() * sizeof(T) /
                             static_cast<std::uint64_t>(npes()));
    ctx.rmem_ns(ctx.params().sw.shmem_put_overhead_ns);
    team_.vbarrier(ctx);
    return all->offsets[static_cast<std::size_t>(ctx.rank())];
  }

  /// Collective scalar max over all PEs (shmem_*_max_to_all).
  template <typename T>
  T max_to_all(sim::ProcContext& ctx, T value) {
    static_assert(std::is_arithmetic_v<T>);
    const T result = *team_.reconcile_shared<T, T>(
        ctx, value, [](std::span<const T* const> vals) {
          T mx = *vals[0];
          for (const T* v : vals) mx = std::max(mx, *v);
          return mx;
        });
    charge_tree(ctx, sizeof(T));
    team_.vbarrier(ctx);
    return result;
  }

  /// Collective element-wise sum over all PEs (shmem_*_sum_to_all):
  /// every PE's `data` becomes the element-wise global sum.
  template <typename T>
  void sum_to_all(sim::ProcContext& ctx, std::span<T> data) {
    static_assert(std::is_arithmetic_v<T>);
    const auto sum = team_.reconcile_shared<std::span<const T>,
                                            std::vector<T>>(
        ctx, std::span<const T>(data),
        sim::over_equal_blocks<T>(sim::sum_blocks<T>, "sum_to_all"));
    std::copy(sum->begin(), sum->end(), data.begin());
    charge_tree(ctx, data.size() * sizeof(T));
    ctx.busy_cycles(static_cast<double>(data.size()) *
                    ctx.params().cpu.scan_cycles);
    team_.vbarrier(ctx);
  }

 private:
  void charge_fcollect(sim::ProcContext& ctx, std::uint64_t block_bytes);
  void charge_tree(sim::ProcContext& ctx, std::uint64_t bytes);

  sim::SimTeam& team_;
  SymmetricHeap& heap_;
};

}  // namespace dsm::shmem
