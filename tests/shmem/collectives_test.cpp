// Tests for the extended SHMEM collective set (fcollect_reduce, broadcast,
// collect, sum_to_all).
#include <gtest/gtest.h>


#include "shmem/shmem.hpp"
#include "sim/team.hpp"

namespace dsm::shmem {
namespace {

machine::MachineParams origin() { return machine::MachineParams::origin2000(); }

TEST(Broadcast, RootReachesEveryPe) {
  sim::SimTeam team(5, origin());
  SymmetricHeap heap(5, 256);
  Shmem sh(team, heap);
  std::vector<std::vector<std::uint32_t>> got(5);
  team.run([&](sim::ProcContext& ctx) {
    std::vector<std::uint32_t> data(3, ctx.rank() == 4 ? 42u : 0u);
    sh.broadcast<std::uint32_t>(ctx, 4, data);
    got[ctx.rank()] = data;
  });
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(got[r], std::vector<std::uint32_t>(3, 42u));
  }
  EXPECT_GT(team.breakdown_of(0).rmem_ns, 0.0);
}

TEST(Broadcast, BadRootRejected) {
  sim::SimTeam team(2, origin());
  SymmetricHeap heap(2, 256);
  Shmem sh(team, heap);
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<std::uint32_t> data(1);
    sh.broadcast<std::uint32_t>(ctx, -1, data);
  }),
               Error);
}

TEST(Collect, VariableBlocksConcatenatedInPeOrder) {
  sim::SimTeam team(4, origin());
  SymmetricHeap heap(4, 256);
  Shmem sh(team, heap);
  std::vector<std::vector<std::uint32_t>> got(4);
  std::vector<std::uint64_t> offsets(4);
  team.run([&](sim::ProcContext& ctx) {
    const int r = ctx.rank();
    // PE r contributes r+1 copies of r.
    std::vector<std::uint32_t> in(static_cast<std::size_t>(r + 1),
                                  static_cast<std::uint32_t>(r));
    std::vector<std::uint32_t> out(1 + 2 + 3 + 4);
    offsets[r] = sh.collect<std::uint32_t>(ctx, in, out);
    got[r] = out;
  });
  const std::vector<std::uint32_t> expect{0, 1, 1, 2, 2, 2, 3, 3, 3, 3};
  for (int r = 0; r < 4; ++r) EXPECT_EQ(got[r], expect);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 1u);
  EXPECT_EQ(offsets[2], 3u);
  EXPECT_EQ(offsets[3], 6u);
}

TEST(Collect, WrongOutputSizeRejected) {
  sim::SimTeam team(2, origin());
  SymmetricHeap heap(2, 256);
  Shmem sh(team, heap);
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<std::uint32_t> in(2), out(3);  // total is 4
    sh.collect<std::uint32_t>(ctx, in, out);
  }),
               Error);
}

TEST(SumToAll, EveryPeGetsGlobalSum) {
  sim::SimTeam team(6, origin());
  SymmetricHeap heap(6, 256);
  Shmem sh(team, heap);
  std::vector<std::vector<std::uint64_t>> got(6);
  team.run([&](sim::ProcContext& ctx) {
    std::vector<std::uint64_t> data{
        1, static_cast<std::uint64_t>(ctx.rank())};
    sh.sum_to_all<std::uint64_t>(ctx, data);
    got[ctx.rank()] = data;
  });
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(got[r], (std::vector<std::uint64_t>{6, 0 + 1 + 2 + 3 + 4 + 5}));
  }
}

TEST(SumToAll, MismatchedSizesRejected) {
  sim::SimTeam team(2, origin());
  SymmetricHeap heap(2, 256);
  Shmem sh(team, heap);
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<std::uint64_t> data(
        static_cast<std::size_t>(ctx.rank() + 1));
    sh.sum_to_all<std::uint64_t>(ctx, data);
  }),
               Error);
}

TEST(FcollectReduce, ReducerRunsOncePerCallAndEveryPeSharesTheResult) {
  constexpr int kPes = 5;
  constexpr int kCalls = 3;
  sim::SimTeam team(kPes, origin());
  SymmetricHeap heap(kPes, 256);
  Shmem sh(team, heap);
  int reductions = 0;
  std::vector<std::vector<const std::vector<std::uint32_t>*>> seen(
      kCalls, std::vector<const std::vector<std::uint32_t>*>(kPes));
  std::vector<std::vector<std::uint32_t>> firsts(kCalls);
  team.run([&](sim::ProcContext& ctx) {
    for (int call = 0; call < kCalls; ++call) {
      const std::vector<std::uint32_t> mine{
          static_cast<std::uint32_t>(100 * call + ctx.rank())};
      const auto all = sh.fcollect_reduce<std::uint32_t,
                                          std::vector<std::uint32_t>>(
          ctx, mine, [&](sim::Blocks<std::uint32_t> blocks) {
            ++reductions;
            return sim::concat_blocks<std::uint32_t>(blocks);
          });
      seen[call][ctx.rank()] = all.get();
      if (ctx.rank() == 0) firsts[call] = *all;
    }
  });
  EXPECT_EQ(reductions, kCalls);
  for (int call = 0; call < kCalls; ++call) {
    for (int r = 0; r < kPes; ++r) {
      EXPECT_EQ(seen[call][r], seen[call][0]);
      EXPECT_EQ(firsts[call][static_cast<std::size_t>(r)],
                static_cast<std::uint32_t>(100 * call + r));
    }
  }
}

TEST(FcollectReduce, ChargedExactlyLikeFcollect) {
  auto run = [](bool reduce) {
    sim::SimTeam team(4, origin());
    SymmetricHeap heap(4, 256);
    Shmem sh(team, heap);
    team.run([&](sim::ProcContext& ctx) {
      ctx.busy_cycles(500.0 * ctx.rank());
      const std::vector<std::uint64_t> mine(17, ctx.rank());
      if (reduce) {
        sh.fcollect_reduce<std::uint64_t, int>(
            ctx, mine, [](sim::Blocks<std::uint64_t>) { return 0; });
      } else {
        std::vector<std::uint64_t> all(17 * 4);
        sh.fcollect<std::uint64_t>(ctx, mine, all);
      }
    });
    std::vector<sim::Breakdown> b;
    for (int r = 0; r < 4; ++r) b.push_back(team.breakdown_of(r));
    return b;
  };
  const auto a = run(false), b = run(true);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(a[r].busy_ns, b[r].busy_ns);
    EXPECT_EQ(a[r].lmem_ns, b[r].lmem_ns);
    EXPECT_EQ(a[r].rmem_ns, b[r].rmem_ns);
    EXPECT_EQ(a[r].sync_ns, b[r].sync_ns);
  }
}

}  // namespace
}  // namespace dsm::shmem
