#include "perf/predictor.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sort/sort_api.hpp"

namespace dsm::perf {
namespace {

using sort::Algo;
using sort::Model;
using sort::SortSpec;

SortSpec make(Algo a, Model m, int p, Index n, int radix) {
  SortSpec spec;
  spec.algo = a;
  spec.model = m;
  spec.nprocs = p;
  spec.n = n;
  spec.radix_bits = radix;
  return spec;
}

double rel_err(double predicted, double simulated) {
  return std::abs(predicted - simulated) / simulated;
}

TEST(Predictor, BreakdownSumsToTotal) {
  const auto pred = predict(make(Algo::kRadix, Model::kShmem, 8, 1 << 16, 8));
  EXPECT_NEAR(pred.total_ns, pred.breakdown.total_ns(), 1e-6);
  EXPECT_GT(pred.total_ns, 0.0);
}

TEST(Predictor, ValidatesSpec) {
  SortSpec bad = make(Algo::kSample, Model::kCcSasNew, 4, 1 << 14, 8);
  EXPECT_THROW(predict(bad), Error);
}

class PredictorAccuracy
    : public ::testing::TestWithParam<std::tuple<Algo, Model, int, Index>> {};

TEST_P(PredictorAccuracy, TracksSimulatorWithin40Percent) {
  const auto [algo, model, p, n] = GetParam();
  const int radix = algo == Algo::kRadix ? 8 : 11;
  const SortSpec spec = make(algo, model, p, n, radix);
  const double predicted = predict(spec).total_ns;
  const double simulated = sort::try_run_sort(spec).value().elapsed_ns;
  EXPECT_LT(rel_err(predicted, simulated), 0.40)
      << "predicted " << predicted / 1e3 << " us vs simulated "
      << simulated / 1e3 << " us";
}

std::vector<std::tuple<Algo, Model, int, Index>> accuracy_cases() {
  std::vector<std::tuple<Algo, Model, int, Index>> cases;
  for (const Index n : {Index{1} << 16, Index{1} << 19}) {
    for (const int p : {4, 16}) {
      for (const Model m : {Model::kCcSas, Model::kCcSasNew, Model::kMpi,
                            Model::kShmem}) {
        cases.emplace_back(Algo::kRadix, m, p, n);
      }
      for (const Model m : {Model::kCcSas, Model::kMpi, Model::kShmem}) {
        cases.emplace_back(Algo::kSample, m, p, n);
      }
    }
  }
  return cases;
}

std::string accuracy_case_name(
    const ::testing::TestParamInfo<std::tuple<Algo, Model, int, Index>>&
        info) {
  const auto& param = info.param;
  std::string name = std::string(sort::algo_name(std::get<0>(param))) + "_";
  name += sort::model_name(std::get<1>(param));
  name += "_p" + std::to_string(std::get<2>(param));
  name += "_n" + std::to_string(std::get<3>(param));
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PredictorAccuracy,
                         ::testing::ValuesIn(accuracy_cases()),
                         accuracy_case_name);

TEST(Predictor, OrdersStagedBelowDirect) {
  SortSpec spec = make(Algo::kRadix, Model::kMpi, 16, 1 << 19, 8);
  spec.ablations.mpi_impl = msg::Impl::kDirect;
  const double direct = predict(spec).total_ns;
  spec.ablations.mpi_impl = msg::Impl::kStaged;
  const double staged = predict(spec).total_ns;
  EXPECT_GT(staged, direct);
}

// The paper's own menu — its headline crossover is a statement about
// these two algorithms, independent of the newer backends.
const std::vector<Algo> kPaperMenu = {Algo::kRadix, Algo::kSample};

TEST(Predictor, PredictsSampleRadixCrossover) {
  // The paper's headline: sample wins small, radix wins large (per proc).
  const int p = 64;
  const auto small =
      predict_best(1 << 20, p, {8, 11, 12}, keys::Dist::kGauss, kPaperMenu);
  EXPECT_EQ(small.algo, Algo::kSample);
  const auto large = predict_best(Index{1} << 24, p, {8, 11, 12},
                                  keys::Dist::kGauss, kPaperMenu);
  EXPECT_EQ(large.algo, Algo::kRadix);
}

TEST(Predictor, BestAgreesWithSimulatorOnAlgorithm) {
  // The predictor's recommended algorithm matches the simulated winner for
  // a mid-size configuration.
  const Index n = 1 << 19;
  const int p = 16;
  const auto best =
      predict_best(n, p, {8, 11}, keys::Dist::kGauss, kPaperMenu);
  double best_sim_radix = 1e300, best_sim_sample = 1e300;
  for (const int r : {8, 11}) {
    for (const Model m : {Model::kCcSas, Model::kCcSasNew, Model::kMpi,
                          Model::kShmem}) {
      if (m == Model::kCcSasNew) {
        best_sim_radix =
            std::min(best_sim_radix,
                     sort::try_run_sort(make(Algo::kRadix, m, p, n, r))
                         .value()
                         .elapsed_ns);
        continue;
      }
      best_sim_radix =
          std::min(best_sim_radix,
                   sort::try_run_sort(make(Algo::kRadix, m, p, n, r))
                       .value()
                       .elapsed_ns);
      best_sim_sample =
          std::min(best_sim_sample,
                   sort::try_run_sort(make(Algo::kSample, m, p, n, r))
                       .value()
                       .elapsed_ns);
    }
  }
  const Algo sim_winner =
      best_sim_radix < best_sim_sample ? Algo::kRadix : Algo::kSample;
  EXPECT_EQ(best.algo, sim_winner);
}

}  // namespace
}  // namespace dsm::perf
