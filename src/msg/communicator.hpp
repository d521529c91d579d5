// MPI-like communicator over the virtual-time engine.
//
// Supplies the operations the paper's MPI sorting codes use:
//   * exchange()  — a bulk point-to-point phase (irecv-all/isend-all/
//     waitall idiom): every rank registers its receive window and posts
//     sends that land at explicit offsets in remote windows (the radix
//     program's "one message per contiguously-destined chunk").
//   * allgather() / allgather_reduce() — histogram and sample collection;
//     the reduce form hands every rank one shared result computed once
//     (the radix prefix table, the sample splitters).
//   * barrier().
//
// Payloads really move (the staged transport really copies through a
// bounce buffer); timing comes from the two-sided DES epoch with per-pair
// message slots.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "msg/transport.hpp"
#include "sim/team.hpp"

namespace dsm::msg {

class Communicator {
 public:
  /// Construct one shared Communicator per team (outside run()).
  Communicator(sim::SimTeam& team, Impl impl);

  Impl impl() const { return impl_; }
  int nprocs() const { return team_.nprocs(); }

  /// One posted send: `bytes` from `data` into the destination rank's
  /// receive window at byte offset `dst_offset`.
  struct Send {
    int dst = 0;
    std::uint64_t dst_offset = 0;
    const std::byte* data = nullptr;
    std::uint64_t bytes = 0;
  };

  /// Collective bulk exchange. Every rank passes its posted sends (in
  /// order) and its receive window. On return, all inbound payloads are in
  /// place. Throws (team-wide) if any send overflows its destination
  /// window.
  void exchange(sim::ProcContext& ctx, std::span<const Send> sends,
                std::span<std::byte> window);

  /// The charge half of exchange(): reads only each send's `dst` and
  /// `bytes` (`data` may be null) and charges the phase exactly as
  /// exchange() does after moving the payloads. Collective, like
  /// exchange(). Callers whose payloads already sit at their destinations
  /// (the radix charge programs, DESIGN.md §5.3) call it directly.
  void charge_exchange(sim::ProcContext& ctx, std::span<const Send> sends);

  /// Collective gather-and-reduce: every rank contributes an equal-size
  /// block `in`, the last arriver runs `reduce` once over the rank-indexed
  /// blocks (a sim::Blocks<T>), and every rank receives the same result.
  /// Charged exactly like allgather: each modelled process still gathers
  /// every block and derives the result itself, only the host computes it
  /// once (DESIGN.md §5.1). `reduce` must be pure over the blocks.
  template <typename T, typename R, typename Reduce>
  std::shared_ptr<const R> allgather_reduce(sim::ProcContext& ctx,
                                            std::span<const T> in,
                                            Reduce reduce) {
    auto res = team_.reconcile_shared<std::span<const T>, R>(
        ctx, in, sim::over_equal_blocks<T>(reduce, "allgather"));
    charge_allgather(ctx, in.size() * sizeof(T));
    ctx.team().vbarrier(ctx);
    return res;
  }

  /// Collective allgather: `in` from every rank concatenated (by rank)
  /// into `out` (size in.size() * nprocs) on every rank.
  template <typename T>
  void allgather(sim::ProcContext& ctx, std::span<const T> in,
                 std::span<T> out) {
    DSM_REQUIRE(out.size() == in.size() * static_cast<std::size_t>(nprocs()),
                "allgather output must hold nprocs blocks");
    const auto all = allgather_reduce<T, std::vector<T>>(
        ctx, in, sim::concat_blocks<T>);
    std::copy(all->begin(), all->end(), out.begin());
  }

  /// Collective barrier (dissemination rounds + reconciliation).
  void barrier(sim::ProcContext& ctx);

  /// Collective broadcast from `root`: on exit every rank's `data` holds
  /// the root's contents. Binomial-tree cost model.
  template <typename T>
  void bcast(sim::ProcContext& ctx, int root, std::span<T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    DSM_REQUIRE(root >= 0 && root < nprocs(), "bcast root out of range");
    const auto all = team_.reconcile_shared<std::span<const T>,
                                            std::vector<T>>(
        ctx, std::span<const T>(data),
        sim::over_equal_blocks<T>(
            [root](sim::Blocks<T> b) {
              const auto& r = b[static_cast<std::size_t>(root)];
              return std::vector<T>(r.begin(), r.end());
            },
            "bcast"));
    std::copy(all->begin(), all->end(), data.begin());
    charge_tree(ctx, data.size() * sizeof(T));
    ctx.team().vbarrier(ctx);
  }

  /// Collective element-wise sum reduction to `root`: root's `data`
  /// becomes the element-wise sum over all ranks; other ranks' buffers are
  /// unchanged. Binomial-tree cost model.
  template <typename T>
  void reduce_sum(sim::ProcContext& ctx, int root, std::span<T> data) {
    static_assert(std::is_arithmetic_v<T>);
    DSM_REQUIRE(root >= 0 && root < nprocs(), "reduce root out of range");
    const auto sum = team_.reconcile_shared<std::span<const T>,
                                            std::vector<T>>(
        ctx, std::span<const T>(data),
        sim::over_equal_blocks<T>(sim::sum_blocks<T>, "reduce"));
    if (ctx.rank() == root) std::copy(sum->begin(), sum->end(), data.begin());
    charge_tree(ctx, data.size() * sizeof(T));
    // Reduction adds every received element.
    ctx.busy_cycles(static_cast<double>(data.size()) *
                    ctx.params().cpu.scan_cycles *
                    std::max(1, bit_width_of_pm1()));
    ctx.team().vbarrier(ctx);
  }

  /// Collective gather to `root`: root's `out` (count * nprocs) receives
  /// every rank's `in` block, concatenated by rank; `out` is ignored on
  /// other ranks (may be empty).
  template <typename T>
  void gather(sim::ProcContext& ctx, int root, std::span<const T> in,
              std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    DSM_REQUIRE(root >= 0 && root < nprocs(), "gather root out of range");
    DSM_REQUIRE(ctx.rank() != root ||
                    out.size() == in.size() * static_cast<std::size_t>(nprocs()),
                "gather output must hold nprocs blocks at the root");
    const auto all = team_.reconcile_shared<std::span<const T>,
                                            std::vector<T>>(
        ctx, in, sim::over_equal_blocks<T>(sim::concat_blocks<T>, "gather"));
    if (ctx.rank() == root) {
      std::copy(all->begin(), all->end(), out.begin());
      // Root drains p-1 inbound blocks.
      ctx.rmem_ns(static_cast<double>(nprocs() - 1) *
                  (cfg_.recv_overhead_ns +
                   ctx.cost().wire_ns(ctx.rank(), (ctx.rank() + 1) % nprocs(),
                                      in.size() * sizeof(T))));
    } else {
      ctx.rmem_ns(cfg_.send_overhead_ns +
                  (cfg_.send_copy_ns_per_byte)*
                      static_cast<double>(in.size() * sizeof(T)));
    }
    ctx.team().vbarrier(ctx);
  }

  /// Collective max-allreduce of a single value (MPI_Allreduce MAX).
  template <typename T>
  T allreduce_max(sim::ProcContext& ctx, T value) {
    static_assert(std::is_arithmetic_v<T>);
    const T result = *team_.reconcile_shared<T, T>(
        ctx, value, [](std::span<const T* const> vals) {
          T mx = *vals[0];
          for (const T* v : vals) mx = std::max(mx, *v);
          return mx;
        });
    charge_tree(ctx, sizeof(T));
    ctx.team().vbarrier(ctx);
    return result;
  }

  /// MPI_Alltoallv-style personalised exchange of T elements:
  /// `sendcounts[d]` elements go from this rank's `sendbuf` (packed in
  /// destination order) to rank d; `recvcounts[s]` elements arrive from
  /// rank s into `recvbuf` (packed in source order). Counts must be
  /// globally consistent (sendcounts[d] here == recvcounts[here] on d);
  /// inconsistency raises a team-wide error.
  template <typename T>
  void alltoallv(sim::ProcContext& ctx, std::span<const T> sendbuf,
                 std::span<const std::uint64_t> sendcounts,
                 std::span<T> recvbuf,
                 std::span<const std::uint64_t> recvcounts) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int p = nprocs();
    const int r = ctx.rank();
    DSM_REQUIRE(sendcounts.size() == static_cast<std::size_t>(p) &&
                    recvcounts.size() == static_cast<std::size_t>(p),
                "alltoallv counts must have one entry per rank");
    std::uint64_t send_total = 0, recv_total = 0;
    for (int i = 0; i < p; ++i) {
      send_total += sendcounts[static_cast<std::size_t>(i)];
      recv_total += recvcounts[static_cast<std::size_t>(i)];
    }
    DSM_REQUIRE(sendbuf.size() == send_total, "sendbuf size mismatch");
    DSM_REQUIRE(recvbuf.size() == recv_total, "recvbuf size mismatch");

    // Publish every rank's recvcounts row so senders can place payloads at
    // the receiver-side displacements (the library-internal handshake).
    const auto all_rc =
        team_.reconcile_shared<std::span<const std::uint64_t>,
                               std::vector<std::uint64_t>>(
            ctx, recvcounts,
            sim::over_equal_blocks<std::uint64_t>(
                sim::concat_blocks<std::uint64_t>, "alltoallv"));
    auto rc_of = [&](int dst, int src) {
      return (*all_rc)[static_cast<std::size_t>(dst) *
                           static_cast<std::size_t>(p) +
                       static_cast<std::size_t>(src)];
    };

    std::vector<Send> sends;
    std::uint64_t send_off = 0;
    for (int dst = 0; dst < p; ++dst) {
      const std::uint64_t cnt = sendcounts[static_cast<std::size_t>(dst)];
      DSM_REQUIRE(rc_of(dst, r) == cnt,
                  "alltoallv counts are globally inconsistent");
      if (cnt != 0) {
        std::uint64_t dst_off = 0;
        for (int s = 0; s < r; ++s) dst_off += rc_of(dst, s);
        const T* src_ptr = sendbuf.data() + send_off;
        if (dst == r) {
          std::memcpy(recvbuf.data() + dst_off, src_ptr, cnt * sizeof(T));
          ctx.stream(2 * cnt * sizeof(T), 2 * cnt * sizeof(T));
        } else {
          sends.push_back(Send{dst, dst_off * sizeof(T),
                               reinterpret_cast<const std::byte*>(src_ptr),
                               cnt * sizeof(T)});
        }
      }
      send_off += cnt;
    }
    exchange(ctx, sends, std::as_writable_bytes(recvbuf));
  }

 private:
  int bit_width_of_pm1() const;

  /// Binomial-tree collective cost: log2(p) rounds of one block.
  void charge_tree(sim::ProcContext& ctx, std::uint64_t bytes);

  /// Recursive-doubling cost: log2(p) rounds, block doubling each round.
  void charge_allgather(sim::ProcContext& ctx, std::uint64_t block_bytes);

  sim::SimTeam& team_;
  Impl impl_;
  sim::TwoSidedConfig cfg_;
  // Per-rank staging bounce buffers (staged transport only).
  std::vector<std::vector<std::byte>> staging_;
};

}  // namespace dsm::msg
