#include "svc/planner.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/table.hpp"
#include "perf/predictor.hpp"

namespace dsm::svc {
namespace {

using sort::Algo;
using sort::Model;

// The cell index packs (algo, model) as algo-major over the registry
// tables; that only works while the enum values are their registry
// positions, which these assertions pin.
static_assert(sort::kAlgoNames[static_cast<std::size_t>(Algo::kRadix)].value ==
              Algo::kRadix);
static_assert(
    sort::kAlgoNames[static_cast<std::size_t>(Algo::kMergesort)].value ==
    Algo::kMergesort);
static_assert(
    sort::kModelNames[static_cast<std::size_t>(Model::kShmem)].value ==
    Model::kShmem);

// Keep one observation from swinging a cell past plausible predictor
// error; the EWMA still converges onto any persistent bias inside the
// clamp range within a few samples.
constexpr double kMinRatio = 0.1;
constexpr double kMaxRatio = 10.0;

}  // namespace

Planner::Planner(PlannerConfig cfg) : cfg_(std::move(cfg)) {
  DSM_REQUIRE(!cfg_.radixes.empty(), "planner needs at least one radix");
  DSM_REQUIRE(cfg_.ewma_alpha > 0 && cfg_.ewma_alpha <= 1,
              "ewma_alpha in (0, 1]");
}

std::size_t Planner::cell_index(Algo algo, Model model) {
  const std::size_t a = static_cast<std::size_t>(algo);
  const std::size_t m = static_cast<std::size_t>(model);
  DSM_REQUIRE(a < kNumAlgos && m < kNumModels, "cell index out of range");
  return a * kNumModels + m;
}

Result<Plan> Planner::try_plan(const JobSpec& job) const {
  std::vector<Algo> algos;
  if (job.force_algo) {
    algos.push_back(*job.force_algo);
  } else {
    for (const auto& e : sort::kAlgoNames) algos.push_back(e.value);
  }
  std::vector<Model> models;
  if (job.force_model) {
    models.push_back(*job.force_model);
  } else {
    for (const auto& e : sort::kModelNames) models.push_back(e.value);
  }
  const std::vector<int> radixes = job.force_radix_bits
                                       ? std::vector<int>{*job.force_radix_bits}
                                       : cfg_.radixes;

  struct Candidate {
    Algo algo;
    Model model;
    int radix_bits;
    double raw_ns;
    double calibrated_ns;
  };
  std::vector<Candidate> feasible;
  std::string last_error = "no candidates enumerated";
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Algo a : algos) {
      for (const Model m : models) {
        if (!sort::algo_supports_model(a, m)) {
          last_error = std::string(sort::model_name(m)) +
                       " does not support algorithm " + sort::algo_name(a);
          continue;
        }
        // Algorithms that ignore the radix knob contribute one candidate
        // per model, not one per radix size.
        const std::vector<int> rset = sort::algo_uses_radix_bits(a)
                                          ? radixes
                                          : std::vector<int>{radixes.front()};
        for (const int r : rset) {
          sort::SortSpec spec;
          spec.algo = a;
          spec.model = m;
          spec.nprocs = job.nprocs;
          spec.n = job.n;
          spec.radix_bits = r;
          spec.dist = job.dist;
          spec.seed = job.seed;
          spec.record = job.record;  // charge-oblivious, but keep the
                                     // candidate spec faithful to the job
          const Status valid = spec.validate_status();
          if (!valid.ok()) {
            // Infeasible combination (e.g. radix bits out of range): skip;
            // remember why in case nothing fits.
            last_error = valid.message();
            continue;
          }
          const double raw = perf::predict(spec).total_ns;
          const Cell& cell = cells_[cell_index(a, m)];
          const double f =
              (cfg_.calibrate && cell.samples > 0) ? cell.factor : 1.0;
          feasible.push_back(Candidate{a, m, r, raw, raw * f});
        }
      }
    }
  }
  if (feasible.empty()) {
    return Status::infeasible("no feasible plan for job " +
                              std::to_string(job.id) + ": " + last_error);
  }

  const auto best_it = std::min_element(
      feasible.begin(), feasible.end(), [](const Candidate& x,
                                           const Candidate& y) {
        return x.calibrated_ns < y.calibrated_ns;
      });
  Plan out;
  out.algo = best_it->algo;
  out.model = best_it->model;
  out.radix_bits = best_it->radix_bits;
  out.predicted_raw_ns = best_it->raw_ns;
  out.predicted_ns = best_it->calibrated_ns;

  // Runner-up: cheapest candidate from a different (algo, model) cell —
  // a genuinely different strategy, not just another radix size.
  const Candidate* runner = nullptr;
  for (const Candidate& c : feasible) {
    if (c.algo == out.algo && c.model == out.model) continue;
    if (runner == nullptr || c.calibrated_ns < runner->calibrated_ns) {
      runner = &c;
    }
  }
  if (runner != nullptr) {
    out.has_runner_up = true;
    out.runner_algo = runner->algo;
    out.runner_model = runner->model;
    out.runner_radix_bits = runner->radix_bits;
    out.runner_predicted_ns = runner->calibrated_ns;
  }
  return out;
}

void Planner::observe(const Plan& plan, double measured_ns) {
  if (plan.predicted_raw_ns <= 0 || measured_ns <= 0) return;
  const double ratio = std::clamp(measured_ns / plan.predicted_raw_ns,
                                  kMinRatio, kMaxRatio);
  const std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = cells_[cell_index(plan.algo, plan.model)];
  cell.factor = (1.0 - cfg_.ewma_alpha) * cell.factor +
                cfg_.ewma_alpha * ratio;
  ++cell.samples;
}

double Planner::factor(sort::Algo algo, sort::Model model) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const Cell& cell = cells_[cell_index(algo, model)];
  return cell.samples > 0 ? cell.factor : 1.0;
}

std::uint64_t Planner::observations(sort::Algo algo, sort::Model model) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return cells_[cell_index(algo, model)].samples;
}

std::vector<Planner::CellState> Planner::export_cells() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<CellState> out;
  out.reserve(kNumCells);
  for (const auto& ae : sort::kAlgoNames) {
    for (const auto& me : sort::kModelNames) {
      const Cell& cell = cells_[cell_index(ae.value, me.value)];
      out.push_back(CellState{ae.value, me.value, cell.factor, cell.samples});
    }
  }
  return out;
}

void Planner::import_cells(const std::vector<CellState>& cells) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (Cell& c : cells_) c = Cell{};
  for (const CellState& c : cells) {
    Cell& slot = cells_[cell_index(c.algo, c.model)];
    slot.factor = c.factor;
    slot.samples = c.samples;
  }
}

std::string Planner::calibration_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const auto& ae : sort::kAlgoNames) {
    for (const auto& me : sort::kModelNames) {
      if (!sort::algo_supports_model(ae.value, me.value)) continue;
      const Cell& cell = cells_[cell_index(ae.value, me.value)];
      os << (first ? "" : ", ") << "{\"algo\": \""
         << sort::algo_name(ae.value) << "\", \"model\": \""
         << sort::model_name(me.value) << "\", \"factor\": "
         << fmt_fixed(cell.samples > 0 ? cell.factor : 1.0, 4)
         << ", \"samples\": " << cell.samples << "}";
      first = false;
    }
  }
  os << "]";
  return os.str();
}

}  // namespace dsm::svc
