#include "shmem/shmem.hpp"

#include <gtest/gtest.h>

#include "msg/communicator.hpp"
#include "sim/team.hpp"

namespace dsm::shmem {
namespace {

machine::MachineParams origin() { return machine::MachineParams::origin2000(); }

TEST(SymmetricHeap, AllocReturnsSameOffsetSemantics) {
  SymmetricHeap heap(4, 1 << 16);
  const auto a = heap.alloc<std::uint32_t>(100);
  const auto b = heap.alloc<std::uint32_t>(50);
  EXPECT_NE(a, b);
  // Same offset addresses distinct per-PE storage.
  *heap.at<std::uint32_t>(0, a) = 11;
  *heap.at<std::uint32_t>(3, a) = 33;
  EXPECT_EQ(*heap.at<std::uint32_t>(0, a), 11u);
  EXPECT_EQ(*heap.at<std::uint32_t>(3, a), 33u);
}

TEST(SymmetricHeap, AlignmentRespected) {
  SymmetricHeap heap(1, 1 << 12);
  heap.alloc_bytes(3, 1);
  const auto off = heap.alloc_bytes(64, 64);
  EXPECT_EQ(off % 64, 0u);
}

TEST(SymmetricHeap, ExhaustionThrows) {
  SymmetricHeap heap(1, 128);
  heap.alloc_bytes(100);
  EXPECT_THROW(heap.alloc_bytes(100), Error);
}

TEST(SymmetricHeap, BadPeOrOffsetRejected) {
  SymmetricHeap heap(2, 128);
  EXPECT_THROW(heap.addr(2, 0), Error);
  EXPECT_THROW(heap.addr(0, 128), Error);
  EXPECT_THROW(SymmetricHeap(0, 128), Error);
}

TEST(Shmem, GetPhaseChargesRmem) {
  sim::SimTeam team(4, origin());
  SymmetricHeap heap(4, 64);
  Shmem sh(team, heap);
  team.run([&](sim::ProcContext& ctx) {
    // Get one word from every PE, the own one a local copy.
    std::vector<GetOp> gets;
    for (int src = 0; src < 4; ++src) gets.push_back(GetOp{nullptr, src, 0, 4});
    sh.charge_get_phase(ctx, gets);
  });
  // Remote gets charged RMEM.
  EXPECT_GT(team.breakdown_of(0).rmem_ns, 0.0);
}

TEST(Shmem, PutPhaseChargesRmem) {
  sim::SimTeam team(4, origin());
  SymmetricHeap heap(4, 64);
  Shmem sh(team, heap);
  team.run([&](sim::ProcContext& ctx) {
    std::vector<PutOp> puts;
    for (int dst = 0; dst < 4; ++dst) puts.push_back(PutOp{nullptr, dst, 0, 4});
    sh.charge_put_phase(ctx, puts);
    sh.barrier_all(ctx);
  });
  // Remote puts charged RMEM.
  EXPECT_GT(team.breakdown_of(0).rmem_ns, 0.0);
}

TEST(Shmem, FcollectGathersByPe) {
  sim::SimTeam team(4, origin());
  SymmetricHeap heap(4, 1 << 12);
  Shmem sh(team, heap);
  std::vector<std::vector<std::uint32_t>> got(4);
  team.run([&](sim::ProcContext& ctx) {
    std::vector<std::uint32_t> in{static_cast<std::uint32_t>(ctx.rank()),
                                  static_cast<std::uint32_t>(ctx.rank() + 10)};
    std::vector<std::uint32_t> out(8);
    sh.fcollect<std::uint32_t>(ctx, in, out);
    got[ctx.rank()] = out;
  });
  const std::vector<std::uint32_t> expect{0, 10, 1, 11, 2, 12, 3, 13};
  for (int r = 0; r < 4; ++r) EXPECT_EQ(got[r], expect);
}

TEST(Shmem, FcollectCheaperThanStagedMpiAllgather) {
  // The paper: SHMEM collectives are more efficient than MPI's.
  sim::SimTeam team_a(8, origin());
  SymmetricHeap heap(8, 1 << 12);
  Shmem sh(team_a, heap);
  team_a.run([&](sim::ProcContext& ctx) {
    std::vector<std::uint32_t> in(64, 1), out(64 * 8);
    sh.fcollect<std::uint32_t>(ctx, in, out);
  });

  sim::SimTeam team_b(8, origin());
  msg::Communicator comm(team_b, msg::Impl::kStaged);
  team_b.run([&](sim::ProcContext& ctx) {
    std::vector<std::uint32_t> in(64, 1), out(64 * 8);
    comm.allgather<std::uint32_t>(ctx, in, out);
  });
  EXPECT_LT(team_a.elapsed_ns(), team_b.elapsed_ns());
}

TEST(Shmem, BarrierAllSynchronises) {
  sim::SimTeam team(4, origin());
  SymmetricHeap heap(4, 256);
  Shmem sh(team, heap);
  team.run([&](sim::ProcContext& ctx) {
    ctx.busy_cycles(777.0 * ctx.rank());
    sh.barrier_all(ctx);
  });
  const double t = team.breakdown_of(0).total_ns();
  for (int r = 1; r < 4; ++r) {
    EXPECT_NEAR(team.breakdown_of(r).total_ns(), t, 1e-6);
  }
}

TEST(Shmem, HeapTeamSizeMismatchRejected) {
  sim::SimTeam team(4, origin());
  SymmetricHeap heap(2, 256);
  EXPECT_THROW(Shmem(team, heap), Error);
}

}  // namespace
}  // namespace dsm::shmem
