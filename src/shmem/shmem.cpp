#include "shmem/shmem.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace dsm::shmem {

SymmetricHeap::SymmetricHeap(int npes, std::uint64_t bytes_per_pe)
    : npes_(npes), segment_bytes_(bytes_per_pe) {
  DSM_REQUIRE(npes >= 1, "heap needs at least one PE");
  DSM_REQUIRE(bytes_per_pe > 0, "heap needs a nonzero segment");
  segments_.resize(static_cast<std::size_t>(npes));
  for (auto& s : segments_) s.resize(bytes_per_pe);
}

std::uint64_t SymmetricHeap::alloc_bytes(std::uint64_t bytes,
                                         std::uint64_t align) {
  DSM_REQUIRE(is_pow2(align), "alignment must be a power of two");
  const std::uint64_t off = (brk_ + align - 1) & ~(align - 1);
  DSM_REQUIRE(off + bytes <= segment_bytes_,
              "symmetric heap exhausted (grow bytes_per_pe)");
  brk_ = off + bytes;
  return off;
}

std::byte* SymmetricHeap::addr(int pe, std::uint64_t offset) {
  DSM_REQUIRE(pe >= 0 && pe < npes_, "PE id out of range");
  DSM_REQUIRE(offset < segment_bytes_, "offset outside the symmetric segment");
  return segments_[static_cast<std::size_t>(pe)].data() + offset;
}

const std::byte* SymmetricHeap::addr(int pe, std::uint64_t offset) const {
  DSM_REQUIRE(pe >= 0 && pe < npes_, "PE id out of range");
  DSM_REQUIRE(offset < segment_bytes_, "offset outside the symmetric segment");
  return segments_[static_cast<std::size_t>(pe)].data() + offset;
}

Shmem::Shmem(sim::SimTeam& team, SymmetricHeap& heap)
    : team_(team), heap_(heap) {
  DSM_REQUIRE(heap.npes() == team.nprocs(),
              "heap PE count must match the team");
}

void Shmem::charge_get_phase(sim::ProcContext& ctx,
                             std::span<const GetOp> gets) {
  const int r = ctx.rank();
  std::vector<sim::Transfer> transfers;
  transfers.reserve(gets.size());
  for (const GetOp& g : gets) {
    DSM_REQUIRE(g.bytes > 0, "empty gets must not be posted");
    if (g.src_pe == r) {
      ctx.stream(2 * g.bytes, 2 * g.bytes);  // local copy
      continue;
    }
    transfers.push_back(sim::Transfer{g.src_pe, r, g.bytes});
  }
  team_.get_epoch(ctx, std::move(transfers),
                  sim::OneSidedConfig{
                      ctx.params().sw.shmem_get_overhead_ns});
}

void Shmem::charge_put_phase(sim::ProcContext& ctx,
                             std::span<const PutOp> puts) {
  const int r = ctx.rank();
  std::vector<sim::Transfer> transfers;
  transfers.reserve(puts.size());
  for (const PutOp& pt : puts) {
    DSM_REQUIRE(pt.bytes > 0, "empty puts must not be posted");
    if (pt.dst_pe == r) {
      ctx.stream(2 * pt.bytes, 2 * pt.bytes);
      continue;
    }
    transfers.push_back(sim::Transfer{r, pt.dst_pe, pt.bytes});
  }
  team_.put_epoch(ctx, std::move(transfers),
                  sim::OneSidedConfig{
                      ctx.params().sw.shmem_put_overhead_ns});
}

void Shmem::barrier_all(sim::ProcContext& ctx) {
  const int rounds =
      bit_width_u64(static_cast<std::uint64_t>(npes()) - 1);
  ctx.rmem_ns(static_cast<double>(rounds) *
              ctx.params().sw.shmem_put_overhead_ns);
  team_.vbarrier(ctx);
}

void Shmem::charge_tree(sim::ProcContext& ctx, std::uint64_t bytes) {
  const int rounds = bit_width_u64(static_cast<std::uint64_t>(npes()) - 1);
  const int partner = (ctx.rank() + 1) % npes();
  ctx.rmem_ns(static_cast<double>(rounds) *
              (ctx.params().sw.shmem_put_overhead_ns +
               ctx.cost().wire_ns(ctx.rank(), partner, bytes)));
}

void Shmem::charge_fcollect(sim::ProcContext& ctx, std::uint64_t block_bytes) {
  const int p = npes();
  const int r = ctx.rank();
  const int rounds = bit_width_u64(static_cast<std::uint64_t>(p) - 1);
  double ns = 0;
  std::uint64_t have = block_bytes;
  for (int k = 0; k < rounds; ++k) {
    const int partner = (r + (1 << k)) % p;
    ns += ctx.params().sw.shmem_put_overhead_ns +
          ctx.cost().wire_ns(r, partner, have);
    have = std::min<std::uint64_t>(2 * have,
                                   block_bytes * static_cast<std::uint64_t>(p));
  }
  ctx.rmem_ns(ns);
}

}  // namespace dsm::shmem
