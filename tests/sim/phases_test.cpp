#include "sim/phases.hpp"

#include <gtest/gtest.h>

#include "sim/team.hpp"
#include "sort/sort_api.hpp"

namespace dsm::sim {
namespace {

Breakdown bd(double busy, double lmem = 0, double rmem = 0, double sync = 0) {
  return Breakdown{busy, lmem, rmem, sync};
}

TEST(PhaseLog, AttributesDeltasBetweenMarks) {
  PhaseLog log;
  log.mark("a", bd(0));
  log.mark("b", bd(10));
  const auto totals = log.totals(bd(10, 5));
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].first, "a");
  EXPECT_DOUBLE_EQ(totals[0].second.busy_ns, 10);
  EXPECT_EQ(totals[1].first, "b");
  EXPECT_DOUBLE_EQ(totals[1].second.lmem_ns, 5);
}

TEST(PhaseLog, RepeatedNamesAccumulate) {
  PhaseLog log;
  log.mark("hist", bd(0));
  log.mark("permute", bd(10));
  log.mark("hist", bd(30));
  log.mark("permute", bd(35));
  const auto totals = log.totals(bd(50));
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].first, "hist");
  EXPECT_DOUBLE_EQ(totals[0].second.busy_ns, 10 + 5);   // [0,10) + [30,35)
  EXPECT_DOUBLE_EQ(totals[1].second.busy_ns, 20 + 15);  // [10,30) + [35,50)
}

TEST(PhaseLog, SetupAttributedWhenWorkPrecedesFirstMark) {
  PhaseLog log;
  log.mark("main", bd(7));
  const auto totals = log.totals(bd(9));
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].first, "(setup)");
  EXPECT_DOUBLE_EQ(totals[0].second.busy_ns, 7);
  EXPECT_DOUBLE_EQ(totals[1].second.busy_ns, 2);
}

TEST(PhaseLog, EmptySetupDropped) {
  PhaseLog log;
  log.mark("main", bd(0));
  const auto totals = log.totals(bd(3));
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].first, "main");
}

TEST(PhaseLog, TotalsSumToEnd) {
  PhaseLog log;
  log.mark("a", bd(1, 2, 3, 4));
  log.mark("b", bd(5, 6, 7, 8));
  const Breakdown end = bd(9, 10, 11, 12);
  double sum = 0;
  for (const auto& [name, b] : log.totals(end)) sum += b.total_ns();
  EXPECT_DOUBLE_EQ(sum, end.total_ns());
}

TEST(MeanPhases, AveragesAcrossRanks) {
  std::vector<std::vector<std::pair<std::string, Breakdown>>> ranks{
      {{"a", bd(10)}, {"b", bd(0, 20)}},
      {{"a", bd(30)}},  // rank missing phase b contributes zero
  };
  const auto mean = mean_phases(ranks);
  ASSERT_EQ(mean.size(), 2u);
  EXPECT_DOUBLE_EQ(mean[0].second.busy_ns, 20);
  EXPECT_DOUBLE_EQ(mean[1].second.lmem_ns, 10);
}

TEST(SimTeamPhases, RecordedThroughContext) {
  SimTeam team(4, machine::MachineParams::origin2000());
  team.run([](ProcContext& ctx) {
    ctx.phase("compute");
    ctx.busy_cycles(1950);  // 10 us
    ctx.phase("wait");
    ctx.barrier();
  });
  const auto report = team.mean_phase_report();
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].first, "compute");
  EXPECT_NEAR(report[0].second.busy_ns, 10000, 1e-6);
  EXPECT_EQ(report[1].first, "wait");
}

TEST(SimTeamPhases, ResetClearsLogs) {
  SimTeam team(2, machine::MachineParams::origin2000());
  team.run([](ProcContext& ctx) { ctx.phase("x"); });
  team.reset_clocks();
  EXPECT_TRUE(team.phases_of(0).empty() || team.phases_of(0).size() <= 1);
  // After reset the log is empty: totals with a zero clock is empty.
  EXPECT_TRUE(team.phases_of(0).empty());
}

TEST(SortPhases, RadixPhasesCoverTotal) {
  sort::SortSpec spec;
  spec.algo = sort::Algo::kRadix;
  spec.model = sort::Model::kShmem;
  spec.nprocs = 4;
  spec.n = 1 << 14;
  const auto res = sort::try_run_sort(spec).value();
  ASSERT_FALSE(res.phases.empty());
  double sum = 0;
  for (const auto& [name, b] : res.phases) sum += b.total_ns();
  // Mean phase totals sum to the mean per-proc total.
  double mean_total = 0;
  for (const auto& b : res.per_proc) mean_total += b.total_ns();
  mean_total /= static_cast<double>(res.per_proc.size());
  EXPECT_NEAR(sum, mean_total, mean_total * 1e-9 + 1e-3);

  // The paper's radix phase vocabulary is present.
  std::vector<std::string> names;
  for (const auto& [name, b] : res.phases) names.push_back(name);
  EXPECT_NE(std::find(names.begin(), names.end(), "local histogram"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "global histogram"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "permutation"),
            names.end());
}

TEST(SortPhases, SamplePhasesIncludeTwoLocalSorts) {
  sort::SortSpec spec;
  spec.algo = sort::Algo::kSample;
  spec.model = sort::Model::kCcSas;
  spec.nprocs = 4;
  spec.n = 1 << 14;
  const auto res = sort::try_run_sort(spec).value();
  std::vector<std::string> names;
  for (const auto& [name, b] : res.phases) names.push_back(name);
  EXPECT_NE(std::find(names.begin(), names.end(), "local sort 1"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "local sort 2"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "redistribution"),
            names.end());
}

TEST(SortPhases, LocalSortsDominateSampleSort) {
  // §4.3: "the two local sorting phases dominate the total execution time"
  // for larger data sets.
  sort::SortSpec spec;
  spec.algo = sort::Algo::kSample;
  spec.model = sort::Model::kShmem;
  spec.nprocs = 8;
  spec.n = 1 << 19;
  spec.radix_bits = 11;
  const auto res = sort::try_run_sort(spec).value();
  double sorts = 0, total = 0;
  for (const auto& [name, b] : res.phases) {
    total += b.total_ns();
    if (name == "local sort 1" || name == "local sort 2") {
      sorts += b.total_ns();
    }
  }
  EXPECT_GT(sorts, 0.6 * total);
}

}  // namespace
}  // namespace dsm::sim
