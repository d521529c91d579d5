#include "msg/communicator.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace dsm::msg {

Communicator::Communicator(sim::SimTeam& team, Impl impl)
    : team_(team),
      impl_(impl),
      cfg_(two_sided_config(team.cost().params(), impl)),
      staging_(static_cast<std::size_t>(team.nprocs())) {}

void Communicator::exchange(sim::ProcContext& ctx,
                            std::span<const Send> sends,
                            std::span<std::byte> window) {
  const int p = nprocs();
  const int r = ctx.rank();

  struct WinInfo {
    std::byte* ptr;
    std::uint64_t size;
  };
  const WinInfo mine{window.data(), window.size()};
  const auto windows = team_.reconcile_shared<WinInfo, std::vector<WinInfo>>(
      ctx, mine, [](std::span<const WinInfo* const> wins) {
        std::vector<WinInfo> all;
        all.reserve(wins.size());
        for (const WinInfo* w : wins) all.push_back(*w);
        return all;
      });

  // Validate everything before touching remote memory so a malformed send
  // raises an error instead of corrupting another rank's window.
  for (const Send& s : sends) {
    DSM_REQUIRE(s.dst >= 0 && s.dst < p, "send dst out of range");
    const WinInfo& w = (*windows)[static_cast<std::size_t>(s.dst)];
    DSM_REQUIRE(s.dst_offset + s.bytes <= w.size,
                "send overflows the destination window");
  }

  auto& stage = staging_[static_cast<std::size_t>(r)];
  for (const Send& s : sends) {
    std::byte* dst = (*windows)[static_cast<std::size_t>(s.dst)].ptr +
                     s.dst_offset;
    if (s.dst != r && impl_ == Impl::kStaged) {
      // Pure message passing: payload really goes through the library
      // bounce buffer (copy in, copy out).
      stage.resize(std::max<std::size_t>(stage.size(), s.bytes));
      std::memcpy(stage.data(), s.data, s.bytes);
      std::memcpy(dst, stage.data(), s.bytes);
    } else {
      std::memcpy(dst, s.data, s.bytes);
    }
  }
  charge_exchange(ctx, sends);
}

void Communicator::charge_exchange(sim::ProcContext& ctx,
                                   std::span<const Send> sends) {
  const int p = nprocs();
  const int r = ctx.rank();
  std::vector<sim::Transfer> transfers;
  transfers.reserve(sends.size());
  for (const Send& s : sends) {
    DSM_REQUIRE(s.dst >= 0 && s.dst < p, "send dst out of range");
    DSM_REQUIRE(s.bytes > 0, "empty sends must not be posted");
    if (s.dst == r) {
      // Local delivery: a plain memory copy, charged as local streaming.
      ctx.stream(2 * s.bytes, 2 * s.bytes);
      continue;
    }
    transfers.push_back(sim::Transfer{r, s.dst, s.bytes});
  }
  team_.two_sided_epoch(ctx, std::move(transfers), cfg_);
}

void Communicator::charge_allgather(sim::ProcContext& ctx,
                                    std::uint64_t block_bytes) {
  const int p = nprocs();
  const int r = ctx.rank();
  const int rounds = bit_width_u64(static_cast<std::uint64_t>(p) - 1);
  double ns = 0;
  std::uint64_t have = block_bytes;
  for (int k = 0; k < rounds; ++k) {
    const int partner = (r + (1 << k)) % p;
    ns += cfg_.send_overhead_ns + cfg_.recv_overhead_ns +
          ctx.cost().wire_ns(r, partner, have) +
          (cfg_.send_copy_ns_per_byte + cfg_.recv_copy_ns_per_byte) *
              static_cast<double>(have);
    have = std::min<std::uint64_t>(2 * have,
                                   block_bytes * static_cast<std::uint64_t>(p));
  }
  ctx.rmem_ns(ns);
}

int Communicator::bit_width_of_pm1() const {
  return bit_width_u64(static_cast<std::uint64_t>(nprocs()) - 1);
}

void Communicator::charge_tree(sim::ProcContext& ctx, std::uint64_t bytes) {
  // Binomial tree: log2(p) rounds; each participating rank forwards one
  // block per round.
  const int rounds = bit_width_of_pm1();
  const int partner = (ctx.rank() + 1) % nprocs();
  ctx.rmem_ns(static_cast<double>(rounds) *
              (cfg_.send_overhead_ns + cfg_.recv_overhead_ns +
               ctx.cost().wire_ns(ctx.rank(), partner, bytes) +
               (cfg_.send_copy_ns_per_byte + cfg_.recv_copy_ns_per_byte) *
                   static_cast<double>(bytes)));
}

void Communicator::barrier(sim::ProcContext& ctx) {
  const int p = nprocs();
  const int rounds = bit_width_u64(static_cast<std::uint64_t>(p) - 1);
  ctx.rmem_ns(static_cast<double>(rounds) *
              (cfg_.send_overhead_ns + cfg_.recv_overhead_ns));
  team_.vbarrier(ctx);
}

}  // namespace dsm::msg
