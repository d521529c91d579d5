// Planner: honours forced dimensions, agrees with the raw predictor when
// uncalibrated, and converges its per-cell EWMA factors onto the observed
// measured/predicted ratio — deterministically.
#include "svc/planner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "perf/predictor.hpp"

namespace dsm::svc {
namespace {

JobSpec gauss_job(Index n, int nprocs) {
  JobSpec j;
  j.id = 7;
  j.n = n;
  j.nprocs = nprocs;
  j.dist = keys::Dist::kGauss;
  j.seed = 11;
  return j;
}

TEST(Planner, ForcedDimensionsAreRespected) {
  Planner planner;
  JobSpec j = gauss_job(1 << 18, 16);
  j.force_algo = sort::Algo::kSample;
  j.force_model = sort::Model::kCcSas;
  j.force_radix_bits = 11;
  const Plan p = planner.try_plan(j).value();
  EXPECT_EQ(p.algo, sort::Algo::kSample);
  EXPECT_EQ(p.model, sort::Model::kCcSas);
  EXPECT_EQ(p.radix_bits, 11);
  EXPECT_GT(p.predicted_raw_ns, 0);
  // Fully pinned job: every candidate sits in one cell, no runner-up.
  EXPECT_FALSE(p.has_runner_up);
}

TEST(Planner, InfeasibleForcedComboThrowsNoFeasiblePlan) {
  Planner planner;
  JobSpec j = gauss_job(1 << 16, 8);
  j.force_algo = sort::Algo::kSample;
  j.force_model = sort::Model::kCcSasNew;  // radix-only model
  try {
    (void)planner.try_plan(j).value();
    FAIL() << "expected no-feasible-plan error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no feasible plan"),
              std::string::npos)
        << e.what();
  }
}

TEST(Planner, UncalibratedPlanMatchesPredictBestForGauss) {
  // The predictor convenience API prices gauss inputs over the same
  // radix set; with no observations the planner must reproduce its pick.
  Planner planner;
  for (const int nprocs : {16, 64}) {
    const Index n = Index{1} << 22;
    const perf::PredictedBest best = perf::predict_best(n, nprocs);
    const Plan p = planner.try_plan(gauss_job(n, nprocs)).value();
    EXPECT_EQ(p.algo, best.algo) << "p=" << nprocs;
    EXPECT_EQ(p.model, best.model) << "p=" << nprocs;
    EXPECT_EQ(p.radix_bits, best.radix_bits) << "p=" << nprocs;
    EXPECT_DOUBLE_EQ(p.predicted_raw_ns, best.total_ns) << "p=" << nprocs;
    EXPECT_DOUBLE_EQ(p.predicted_ns, p.predicted_raw_ns);  // factor 1.0
  }
}

TEST(Planner, RunnerUpComesFromADifferentCell) {
  Planner planner;
  const Plan p = planner.try_plan(gauss_job(1 << 20, 16)).value();
  ASSERT_TRUE(p.has_runner_up);
  EXPECT_TRUE(p.runner_algo != p.algo || p.runner_model != p.model);
  EXPECT_GE(p.runner_predicted_ns, p.predicted_ns);
}

TEST(Planner, ObservationsNudgeTheFactorGradually) {
  PlannerConfig cfg;
  cfg.ewma_alpha = 0.25;
  Planner planner(cfg);
  const JobSpec j = gauss_job(1 << 18, 16);
  const Plan p = planner.try_plan(j).value();
  EXPECT_DOUBLE_EQ(planner.factor(p.algo, p.model), 1.0);

  // The factor eases from 1.0 toward the observed ratio — one outlier job
  // must not slam the whole cell to its ratio.
  planner.observe(p, 2.0 * p.predicted_raw_ns);
  EXPECT_DOUBLE_EQ(planner.factor(p.algo, p.model), 1.25);  // 0.75+0.25*2
  EXPECT_EQ(planner.observations(p.algo, p.model), 1u);
  planner.observe(p, 4.0 * p.predicted_raw_ns);
  EXPECT_DOUBLE_EQ(planner.factor(p.algo, p.model),
                   0.75 * 1.25 + 0.25 * 4.0);
  EXPECT_EQ(planner.observations(p.algo, p.model), 2u);

  // The next plan for the same cell scales its estimate by the factor.
  const Plan p2 = planner.try_plan(j).value();
  if (p2.algo == p.algo && p2.model == p.model) {
    EXPECT_DOUBLE_EQ(p2.predicted_ns,
                     planner.factor(p.algo, p.model) * p2.predicted_raw_ns);
  }
}

TEST(Planner, EwmaConvergesOntoAStableBias) {
  Planner planner;  // default alpha
  const Plan p = planner.try_plan(gauss_job(1 << 18, 16)).value();
  for (int i = 0; i < 200; ++i) {
    planner.observe(p, 1.5 * p.predicted_raw_ns);
  }
  EXPECT_NEAR(planner.factor(p.algo, p.model), 1.5, 1e-6);
}

TEST(Planner, ObservationRatioIsClamped) {
  PlannerConfig cfg;
  cfg.ewma_alpha = 1.0;  // factor = clamped ratio, directly visible
  Planner planner(cfg);
  const Plan p = planner.try_plan(gauss_job(1 << 18, 16)).value();
  planner.observe(p, 1e6 * p.predicted_raw_ns);
  EXPECT_DOUBLE_EQ(planner.factor(p.algo, p.model), 10.0);  // kMaxRatio
  planner.observe(p, 1e-6 * p.predicted_raw_ns);
  EXPECT_DOUBLE_EQ(planner.factor(p.algo, p.model), 0.1);  // kMinRatio
}

TEST(Planner, CalibrationCanFlipTheChoiceToTheRunnerUp) {
  PlannerConfig cfg;
  cfg.ewma_alpha = 1.0;
  Planner planner(cfg);
  const JobSpec j = gauss_job(1 << 20, 16);
  const Plan before = planner.try_plan(j).value();
  ASSERT_TRUE(before.has_runner_up);
  // Teach the planner that the winning cell is 10x slower than predicted:
  // its calibrated price must now lose to some other cell.
  planner.observe(before, 10.0 * before.predicted_raw_ns);
  const Plan after = planner.try_plan(j).value();
  EXPECT_TRUE(after.algo != before.algo || after.model != before.model);
}

TEST(Planner, CalibrateSwitchOffPlansOnRawPredictions) {
  PlannerConfig cfg;
  cfg.calibrate = false;
  Planner planner(cfg);
  const JobSpec j = gauss_job(1 << 20, 16);
  const Plan before = planner.try_plan(j).value();
  planner.observe(before, 10.0 * before.predicted_raw_ns);
  const Plan after = planner.try_plan(j).value();
  EXPECT_EQ(after.algo, before.algo);
  EXPECT_EQ(after.model, before.model);
  EXPECT_DOUBLE_EQ(after.predicted_ns, after.predicted_raw_ns);
  // The factor table still learns (A/B runs can inspect it).
  EXPECT_EQ(planner.observations(before.algo, before.model), 1u);
}

TEST(Planner, CalibrationJsonListsTheThirteenFeasibleCells) {
  Planner planner;
  const std::string json = planner.calibration_json();
  // 4 algorithms x 4 models minus the three non-radix cells on the
  // radix-only CC-SAS-NEW model.
  std::size_t cells = 0;
  for (std::size_t pos = json.find("\"factor\""); pos != std::string::npos;
       pos = json.find("\"factor\"", pos + 1)) {
    ++cells;
  }
  EXPECT_EQ(cells, 13u);
  // CC-SAS-NEW is radix-only: exactly one entry mentions it.
  EXPECT_EQ(json.find("CC-SAS-NEW"), json.rfind("CC-SAS-NEW"));
  EXPECT_NE(json.find("CC-SAS-NEW"), std::string::npos);
  // Every registry algorithm appears.
  for (const auto& e : sort::kAlgoNames) {
    EXPECT_NE(json.find(std::string("\"") + e.name + "\""),
              std::string::npos)
        << e.name;
  }
}

TEST(Planner, SkewedJobsPickTheMatchingBackend) {
  // The planner is distribution-aware end to end: the same (n, p) flips
  // algorithm with the job's dist (DESIGN.md §13).
  Planner planner;
  JobSpec j = gauss_job(1 << 20, 16);
  j.dist = keys::Dist::kDup;
  EXPECT_EQ(planner.try_plan(j).value().algo, sort::Algo::kMsdRadix);
  j.dist = keys::Dist::kAlmostSorted;
  EXPECT_EQ(planner.try_plan(j).value().algo, sort::Algo::kMergesort);
}

TEST(Planner, ForcedNewBackendsPlanAndCcSasNewStaysRadixOnly) {
  Planner planner;
  for (const sort::Algo a : {sort::Algo::kMsdRadix, sort::Algo::kMergesort}) {
    JobSpec j = gauss_job(1 << 18, 16);
    j.force_algo = a;
    const Plan p = planner.try_plan(j).value();
    EXPECT_EQ(p.algo, a);
    EXPECT_NE(p.model, sort::Model::kCcSasNew) << sort::algo_name(a);
    JobSpec bad = j;
    bad.force_model = sort::Model::kCcSasNew;
    EXPECT_EQ(planner.try_plan(bad).status().code(), StatusCode::kInfeasible)
        << sort::algo_name(a);
  }
}

TEST(Planner, ExportedCellsAreTaggedAndImportByTag) {
  Planner planner;
  const Plan p = planner.try_plan(gauss_job(1 << 18, 16)).value();
  planner.observe(p, 2.0 * p.predicted_raw_ns);

  const auto cells = planner.export_cells();
  ASSERT_EQ(cells.size(), Planner::kNumCells);
  // Registry enumeration order, algo-major.
  std::size_t i = 0;
  for (const auto& ae : sort::kAlgoNames) {
    for (const auto& me : sort::kModelNames) {
      EXPECT_EQ(cells[i].algo, ae.value) << i;
      EXPECT_EQ(cells[i].model, me.value) << i;
      ++i;
    }
  }

  // A shuffled subset restores by tag; untagged cells reset to default.
  Planner fresh;
  std::vector<Planner::CellState> subset;
  for (const auto& c : cells) {
    if (c.samples > 0) subset.push_back(c);
  }
  ASSERT_FALSE(subset.empty());
  fresh.import_cells(subset);
  EXPECT_DOUBLE_EQ(fresh.factor(p.algo, p.model),
                   planner.factor(p.algo, p.model));
  EXPECT_EQ(fresh.observations(p.algo, p.model),
            planner.observations(p.algo, p.model));
  EXPECT_EQ(fresh.observations(sort::Algo::kMergesort, sort::Model::kMpi),
            0u);
}

TEST(Planner, RejectsBadConfig) {
  PlannerConfig no_radix;
  no_radix.radixes.clear();
  EXPECT_THROW(Planner{no_radix}, Error);
  PlannerConfig bad_alpha;
  bad_alpha.ewma_alpha = 0;
  EXPECT_THROW(Planner{bad_alpha}, Error);
}

}  // namespace
}  // namespace dsm::svc
