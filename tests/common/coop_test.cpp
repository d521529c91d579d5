// Cooperative scheduler: SPMD contract, barrier-with-completion semantics,
// and error unwinding: a mid-rank exception must poison the team, unwind
// every fiber stack (destructors run), and leave the scheduler refusing
// reuse.
#include "common/coop.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dsm {
namespace {

TEST(CoopScheduler, RunsEveryRankExactlyOnce) {
  CoopScheduler s(8);
  std::set<int> ranks;
  s.run([&](int r) { EXPECT_TRUE(ranks.insert(r).second); });
  EXPECT_EQ(ranks.size(), 8u);
  EXPECT_EQ(*ranks.begin(), 0);
  EXPECT_EQ(*ranks.rbegin(), 7);
}

TEST(CoopScheduler, SingleRankFastPath) {
  CoopScheduler s(1);
  int calls = 0;
  s.run([&](int r) {
    EXPECT_EQ(r, 0);
    ++calls;
    s.arrive_and_wait([&] { ++calls; });  // completes inline for one rank
  });
  EXPECT_EQ(calls, 2);
}

TEST(CoopScheduler, CompletionRunsOncePerRoundAfterAllArrive) {
  CoopScheduler s(4);
  int rounds = 0;
  int before = 0;
  s.run([&](int) {
    for (int round = 0; round < 3; ++round) {
      ++before;
      s.arrive_and_wait([&] {
        // Every rank of this round must have arrived already.
        EXPECT_EQ(before, 4 * (rounds + 1));
        ++rounds;
      });
    }
  });
  EXPECT_EQ(rounds, 3);
}

TEST(CoopScheduler, BarrierOrdersRoundsAcrossRanks) {
  CoopScheduler s(16);
  std::vector<int> log;
  s.run([&](int r) {
    for (int round = 0; round < 4; ++round) {
      log.push_back(round);
      s.arrive_and_wait({});
    }
    (void)r;
  });
  // Rounds never interleave: the log is 16 zeros, then 16 ones, ...
  ASSERT_EQ(log.size(), 64u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i], static_cast<int>(i / 16)) << i;
  }
}

TEST(CoopScheduler, RethrowsTheErrorThatPoisonedTheTeam) {
  CoopScheduler s(8);
  try {
    s.run([&](int r) {
      s.arrive_and_wait({});
      if (r == 5) throw Error("rank 5 failed");
      if (r == 2) throw Error("rank 2 failed");
      s.arrive_and_wait({});
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos);
  }
}

// Sentinel whose destructor count proves a fiber stack was unwound, not
// abandoned.
struct Sentinel {
  int* count;
  explicit Sentinel(int* c) : count(c) {}
  ~Sentinel() { ++*count; }
};

TEST(CoopScheduler, ExceptionMidRankUnwindsEveryFiberStack) {
  CoopScheduler s(16);
  int destroyed = 0;
  int poisoned_ranks = 0;
  try {
    s.run([&](int r) {
      const Sentinel guard(&destroyed);
      s.arrive_and_wait({});
      if (r == 7) throw Error("rank 7 failed mid-run");
      try {
        // Every other rank parks here; the scheduler must wake it with
        // the poison error so `guard` is destroyed.
        s.arrive_and_wait({});
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("barrier poisoned"),
                  std::string::npos);
        ++poisoned_ranks;
        throw;
      }
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 7"), std::string::npos);
  }
  EXPECT_EQ(destroyed, 16);        // all 16 stacks unwound
  EXPECT_EQ(poisoned_ranks, 15);   // everyone but the thrower was released
  EXPECT_TRUE(s.poisoned());
}

TEST(CoopScheduler, ThrowingCompletionPoisonsTheRound) {
  CoopScheduler s(4);
  int destroyed = 0;
  EXPECT_THROW(s.run([&](int) {
                 const Sentinel guard(&destroyed);
                 s.arrive_and_wait(
                     [] { throw Error("completion failed"); });
               }),
               Error);
  EXPECT_EQ(destroyed, 4);
  EXPECT_TRUE(s.poisoned());
}

TEST(CoopScheduler, DetectsDeadlockWhenRanksDesynchronise) {
  CoopScheduler s(4);
  int destroyed = 0;
  try {
    s.run([&](int r) {
      const Sentinel guard(&destroyed);
      // Rank 3 skips the barrier and finishes; the rest can never be
      // released.
      if (r != 3) s.arrive_and_wait({});
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
  EXPECT_EQ(destroyed, 4);
}

// A poisoned team refuses further barrier rounds: every rank enters its
// body and the first barrier throws.
TEST(CoopScheduler, PoisonedTeamRefusesReuse) {
  CoopScheduler s(4);
  s.poison();
  EXPECT_TRUE(s.poisoned());
  int entered = 0;
  try {
    s.run([&](int) {
      ++entered;
      s.arrive_and_wait({});
    });
    FAIL() << "expected throw";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("barrier poisoned"),
              std::string::npos);
  }
  EXPECT_EQ(entered, 4);
}

TEST(CoopScheduler, StressManyRanksManyRounds) {
  CoopScheduler s(64);
  std::uint64_t sum = 0;
  s.run([&](int r) {
    for (int round = 0; round < 50; ++round) {
      sum += static_cast<std::uint64_t>(r);
      s.arrive_and_wait({});
    }
  });
  EXPECT_EQ(sum, 50ull * (63ull * 64ull / 2ull));
}

// A thread hands the stacks of finished teams to its next team; teams
// alive at once on one thread, together past what the thread keeps, must
// still run every rank on a stack of its own.
TEST(CoopScheduler, TeamsAliveTogetherNeverShareAStack) {
  { CoopScheduler warm(64); warm.run([](int) {}); }  // fill the cache
  CoopScheduler a(48);
  CoopScheduler b(48);
  std::set<std::uintptr_t> frames;
  const auto record = [&](int) {
    frames.insert(reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)));
  };
  a.run(record);
  b.run(record);
  ASSERT_EQ(frames.size(), 96u);
  for (auto it = std::next(frames.begin()); it != frames.end(); ++it) {
    EXPECT_GE(*it - *std::prev(it), 4096u) << "two ranks on one stack";
  }
}

TEST(CoopScheduler, RejectsBadArguments) {
  EXPECT_THROW(CoopScheduler(0), Error);
  CoopScheduler s(2);
  EXPECT_THROW(s.run({}), Error);
}

}  // namespace
}  // namespace dsm
