// Tests for the extended MPI-like collective set (allgather_reduce, bcast,
// reduce_sum, gather, alltoallv) — functional correctness against references, cost
// charging, and misuse rejection.
#include <gtest/gtest.h>

#include <numeric>

#include "common/prng.hpp"
#include "msg/communicator.hpp"
#include "sim/team.hpp"

namespace dsm::msg {
namespace {

machine::MachineParams origin() { return machine::MachineParams::origin2000(); }

TEST(Bcast, RootDataReachesEveryRank) {
  for (const Impl impl : {Impl::kDirect, Impl::kStaged}) {
    sim::SimTeam team(6, origin());
    Communicator comm(team, impl);
    std::vector<std::vector<int>> got(6);
    team.run([&](sim::ProcContext& ctx) {
      std::vector<int> data(4, ctx.rank() == 2 ? 777 : -1);
      comm.bcast<int>(ctx, 2, data);
      got[ctx.rank()] = data;
    });
    for (int r = 0; r < 6; ++r) {
      EXPECT_EQ(got[r], std::vector<int>(4, 777)) << impl_name(impl);
    }
  }
}

TEST(Bcast, ChargesRmemAndSynchronises) {
  sim::SimTeam team(4, origin());
  Communicator comm(team, Impl::kDirect);
  team.run([&](sim::ProcContext& ctx) {
    ctx.busy_cycles(1000.0 * ctx.rank());
    std::vector<int> data(16);
    comm.bcast<int>(ctx, 0, data);
  });
  EXPECT_GT(team.breakdown_of(1).rmem_ns, 0.0);
  const double t = team.breakdown_of(0).total_ns();
  for (int r = 1; r < 4; ++r) {
    EXPECT_NEAR(team.breakdown_of(r).total_ns(), t, 1e-6);
  }
}

TEST(Bcast, BadRootRejected) {
  sim::SimTeam team(2, origin());
  Communicator comm(team, Impl::kDirect);
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<int> data(1);
    comm.bcast<int>(ctx, 5, data);
  }),
               Error);
}

TEST(ReduceSum, SumsElementwiseAtRoot) {
  sim::SimTeam team(5, origin());
  Communicator comm(team, Impl::kDirect);
  std::vector<std::vector<std::uint64_t>> got(5);
  team.run([&](sim::ProcContext& ctx) {
    std::vector<std::uint64_t> data{
        static_cast<std::uint64_t>(ctx.rank()),
        static_cast<std::uint64_t>(10 * ctx.rank())};
    comm.reduce_sum<std::uint64_t>(ctx, 3, data);
    got[ctx.rank()] = data;
  });
  EXPECT_EQ(got[3], (std::vector<std::uint64_t>{0 + 1 + 2 + 3 + 4, 100}));
  // Non-root buffers untouched.
  EXPECT_EQ(got[1], (std::vector<std::uint64_t>{1, 10}));
}

TEST(ReduceSum, MismatchedSizesRejected) {
  sim::SimTeam team(2, origin());
  Communicator comm(team, Impl::kDirect);
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<std::uint64_t> data(
        static_cast<std::size_t>(1 + ctx.rank()));
    comm.reduce_sum<std::uint64_t>(ctx, 0, data);
  }),
               Error);
}

TEST(Gather, RootCollectsBlocksInRankOrder) {
  sim::SimTeam team(4, origin());
  Communicator comm(team, Impl::kDirect);
  std::vector<int> at_root;
  team.run([&](sim::ProcContext& ctx) {
    std::vector<int> in{ctx.rank(), ctx.rank() + 100};
    std::vector<int> out(ctx.rank() == 1 ? 8 : 0);
    comm.gather<int>(ctx, 1, in, out);
    if (ctx.rank() == 1) at_root = out;
  });
  EXPECT_EQ(at_root, (std::vector<int>{0, 100, 1, 101, 2, 102, 3, 103}));
}

TEST(Gather, RootOutputSizeValidated) {
  sim::SimTeam team(2, origin());
  Communicator comm(team, Impl::kDirect);
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<int> in(2), out(1);  // too small at root
    comm.gather<int>(ctx, 0, in, out);
  }),
               Error);
}

TEST(Alltoallv, ExchangesVariableBlocks) {
  const int p = 4;
  sim::SimTeam team(p, origin());
  Communicator comm(team, Impl::kDirect);
  // Rank s sends (s + d) copies of value s*10+d to rank d.
  std::vector<std::vector<std::uint32_t>> received(p);
  team.run([&](sim::ProcContext& ctx) {
    const int s = ctx.rank();
    std::vector<std::uint64_t> sendcounts(p), recvcounts(p);
    std::vector<std::uint32_t> sendbuf;
    for (int d = 0; d < p; ++d) {
      sendcounts[static_cast<std::size_t>(d)] =
          static_cast<std::uint64_t>(s + d);
      recvcounts[static_cast<std::size_t>(d)] =
          static_cast<std::uint64_t>(d + s);
      for (int k = 0; k < s + d; ++k) {
        sendbuf.push_back(static_cast<std::uint32_t>(s * 10 + d));
      }
    }
    std::uint64_t total = 0;
    for (const auto c : recvcounts) total += c;
    std::vector<std::uint32_t> recvbuf(total);
    comm.alltoallv<std::uint32_t>(ctx, sendbuf, sendcounts, recvbuf,
                                  recvcounts);
    received[s] = recvbuf;
  });
  for (int d = 0; d < p; ++d) {
    std::size_t idx = 0;
    for (int s = 0; s < p; ++s) {
      for (int k = 0; k < s + d; ++k) {
        ASSERT_EQ(received[d][idx++], static_cast<std::uint32_t>(s * 10 + d))
            << "d=" << d << " s=" << s;
      }
    }
  }
}

TEST(Alltoallv, InconsistentCountsRejected) {
  sim::SimTeam team(2, origin());
  Communicator comm(team, Impl::kDirect);
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    // Rank 0 claims to send 3 to rank 1, but rank 1 expects 2.
    std::vector<std::uint64_t> sendcounts{0, 3}, recvcounts{0, 0};
    if (ctx.rank() == 1) {
      sendcounts = {0, 0};
      recvcounts = {2, 0};
    }
    std::uint64_t st = 0, rt = 0;
    for (auto c : sendcounts) st += c;
    for (auto c : recvcounts) rt += c;
    std::vector<std::uint32_t> sendbuf(st), recvbuf(rt);
    comm.alltoallv<std::uint32_t>(ctx, sendbuf, sendcounts, recvbuf,
                                  recvcounts);
  }),
               Error);
}

TEST(Alltoallv, BufferSizeMismatchRejected) {
  sim::SimTeam team(2, origin());
  Communicator comm(team, Impl::kDirect);
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    std::vector<std::uint64_t> counts{1, 1};
    std::vector<std::uint32_t> sendbuf(1);  // should be 2
    std::vector<std::uint32_t> recvbuf(2);
    comm.alltoallv<std::uint32_t>(ctx, sendbuf, counts, recvbuf, counts);
  }),
               Error);
}

TEST(Alltoallv, RandomisedRoundTrip) {
  const int p = 5;
  sim::SimTeam team(p, origin());
  Communicator comm(team, Impl::kDirect);
  // Symmetric random counts: counts[s][d] agreed by construction.
  std::vector<std::vector<std::uint64_t>> counts(
      p, std::vector<std::uint64_t>(p));
  SplitMix64 rng(99);
  for (int s = 0; s < p; ++s) {
    for (int d = 0; d < p; ++d) {
      counts[s][d] = rng.next_below(20);
    }
  }
  std::vector<std::uint64_t> checks(p, 0), expect(p, 0);
  team.run([&](sim::ProcContext& ctx) {
    const int s = ctx.rank();
    std::vector<std::uint64_t> sendcounts = counts[s];
    std::vector<std::uint64_t> recvcounts(p);
    for (int d = 0; d < p; ++d) recvcounts[d] = counts[d][s];
    std::vector<std::uint32_t> sendbuf;
    for (int d = 0; d < p; ++d) {
      for (std::uint64_t k = 0; k < sendcounts[d]; ++k) {
        sendbuf.push_back(static_cast<std::uint32_t>(s * 1000 + d));
      }
    }
    std::uint64_t total = 0;
    for (auto c : recvcounts) total += c;
    std::vector<std::uint32_t> recvbuf(total);
    comm.alltoallv<std::uint32_t>(ctx, sendbuf, sendcounts, recvbuf,
                                  recvcounts);
    std::uint64_t sum = 0;
    for (const auto v : recvbuf) sum += v;
    checks[s] = sum;
    std::uint64_t e = 0;
    for (int src = 0; src < p; ++src) {
      e += counts[src][s] * static_cast<std::uint64_t>(src * 1000 + s);
    }
    expect[s] = e;
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(checks[r], expect[r]) << r;
}

TEST(AllgatherReduce, ReducerRunsOncePerCallAndEveryRankSharesTheResult) {
  constexpr int kProcs = 6;
  constexpr int kCalls = 3;
  sim::SimTeam team(kProcs, origin());
  Communicator comm(team, Impl::kDirect);
  int reductions = 0;
  std::vector<std::vector<const std::uint64_t*>> seen(
      kCalls, std::vector<const std::uint64_t*>(kProcs));
  std::vector<std::vector<std::uint64_t>> values(
      kCalls, std::vector<std::uint64_t>(kProcs));
  team.run([&](sim::ProcContext& ctx) {
    for (int call = 0; call < kCalls; ++call) {
      const std::vector<int> mine{ctx.rank(), call};
      const auto sum = comm.allgather_reduce<int, std::uint64_t>(
          ctx, mine, [&](sim::Blocks<int> blocks) {
            ++reductions;
            std::uint64_t s = 0;
            for (const auto& b : blocks) s += 10 * b[0] + b[1];
            return s;
          });
      seen[call][ctx.rank()] = sum.get();
      values[call][ctx.rank()] = *sum;
    }
  });
  EXPECT_EQ(reductions, kCalls);
  for (int call = 0; call < kCalls; ++call) {
    for (int r = 0; r < kProcs; ++r) {
      EXPECT_EQ(seen[call][r], seen[call][0]);
      EXPECT_EQ(values[call][r],
                static_cast<std::uint64_t>(10 * 15 + kProcs * call));
    }
  }
}

TEST(AllgatherReduce, ChargedExactlyLikeAllgather) {
  auto run = [](bool reduce) {
    sim::SimTeam team(5, origin());
    Communicator comm(team, Impl::kDirect);
    team.run([&](sim::ProcContext& ctx) {
      ctx.busy_cycles(700.0 * ctx.rank());
      const std::vector<std::uint64_t> mine(33, ctx.rank());
      if (reduce) {
        comm.allgather_reduce<std::uint64_t, int>(
            ctx, mine, [](sim::Blocks<std::uint64_t>) { return 0; });
      } else {
        std::vector<std::uint64_t> all(33 * 5);
        comm.allgather<std::uint64_t>(ctx, mine, all);
      }
    });
    std::vector<sim::Breakdown> b;
    for (int r = 0; r < 5; ++r) b.push_back(team.breakdown_of(r));
    return b;
  };
  const auto a = run(false), b = run(true);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(a[r].busy_ns, b[r].busy_ns);
    EXPECT_EQ(a[r].lmem_ns, b[r].lmem_ns);
    EXPECT_EQ(a[r].rmem_ns, b[r].rmem_ns);
    EXPECT_EQ(a[r].sync_ns, b[r].sync_ns);
  }
}

TEST(AllgatherReduce, UnequalBlocksRejected) {
  sim::SimTeam team(3, origin());
  Communicator comm(team, Impl::kDirect);
  EXPECT_THROW(team.run([&](sim::ProcContext& ctx) {
    const std::vector<int> mine(static_cast<std::size_t>(ctx.rank() + 1));
    comm.allgather_reduce<int, int>(ctx, mine,
                                    [](sim::Blocks<int>) { return 0; });
  }),
               Error);
}

}  // namespace
}  // namespace dsm::msg
