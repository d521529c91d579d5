// Predictor-driven job planner with online EWMA calibration.
//
// try_plan() answers the paper's model-selection question per request: it
// enumerates every feasible (algorithm, model, radix) candidate for the
// job (honouring forced dimensions), prices each with the closed-form
// predictor — distribution-aware, unlike the n-and-p-only predict_best —
// and picks the cheapest *calibrated* estimate.
//
// Calibration closes the loop the static predictor cannot: the predictor
// is exact in BUSY/stream terms but approximate in contention and
// synchronisation, so its error is a roughly stable multiplicative bias
// per (algorithm, model) cell. observe() folds each completed job's
// measured/predicted ratio into an EWMA correction factor for its cell;
// try_plan() multiplies raw predictions by the current factor. As traffic
// flows, calibrated estimates converge onto the simulator and the
// planner's ranking sharpens — the service bench reports the error drop.
//
// Thread safety: try_plan() and observe() may be called concurrently; the
// factor table is mutex-guarded. Determinism: given the same sequence of
// try_plan/observe calls, all outputs are bit-identical (pure double
// arithmetic, no time or randomness).
#pragma once

#include <cstdint>
#include <iterator>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "sort/sort_api.hpp"
#include "svc/job.hpp"

namespace dsm::svc {

struct PlannerConfig {
  /// Radix sizes considered when the job does not pin one.
  std::vector<int> radixes{8, 11, 12};
  /// Weight of the newest observation in the EWMA (0 < alpha <= 1). The
  /// factor starts at 1.0 and eases toward each observed ratio; the small
  /// default deliberately favours a cell's long-run mean bias over
  /// recency, because the residual error drifts with (n, p) within a cell
  /// and chasing the latest job overcorrects (measured with
  /// `service_bench --scenario throughput`).
  double ewma_alpha = 0.1;
  /// Master switch: disable to plan on raw predictions only (A/B runs).
  bool calibrate = true;
};

class Planner {
 public:
  explicit Planner(PlannerConfig cfg = {});

  /// Choose a plan for `job`; kInfeasible when no candidate fits (e.g.
  /// sample sort forced onto CC-SAS-NEW).
  Result<Plan> try_plan(const JobSpec& job) const;

  /// Fold a completed job's measured virtual time into the calibration
  /// state of the plan's (algo, model) cell.
  void observe(const Plan& plan, double measured_ns);

  /// Current correction factor for a cell (1.0 until first observation).
  double factor(sort::Algo algo, sort::Model model) const;
  std::uint64_t observations(sort::Algo algo, sort::Model model) const;

  /// Calibration table as a JSON array (deterministic).
  std::string calibration_json() const;

  /// Calibration state of one (algo, model) cell, tagged with the cell it
  /// belongs to so snapshots name cells instead of relying on positional
  /// layout (a snapshot written before an algorithm existed still lands
  /// its cells on the right slots).
  struct CellState {
    sort::Algo algo = sort::Algo::kRadix;
    sort::Model model = sort::Model::kCcSas;
    double factor = 1.0;
    std::uint64_t samples = 0;
  };

  /// Every (algo, model) cell in registry enumeration order (algo-major,
  /// model-minor — derived from kAlgoNames x kModelNames). The factor
  /// doubles round-trip exactly through import_cells (snapshots serialize
  /// them as hexfloat), which is what makes a recovered planner produce
  /// byte-identical plans.
  std::vector<CellState> export_cells() const;
  /// Restore cells by tag; untagged slots reset to the uncalibrated
  /// default. Accepts any subset, so old snapshots that predate an
  /// algorithm restore cleanly.
  void import_cells(const std::vector<CellState>& cells);

  const PlannerConfig& config() const { return cfg_; }

  /// Cell-matrix shape, derived from the enum registries.
  static constexpr std::size_t kNumAlgos = std::size(sort::kAlgoNames);
  static constexpr std::size_t kNumModels = std::size(sort::kModelNames);
  static constexpr std::size_t kNumCells = kNumAlgos * kNumModels;

 private:
  struct Cell {
    double factor = 1.0;
    std::uint64_t samples = 0;
  };

  static std::size_t cell_index(sort::Algo algo, sort::Model model);

  PlannerConfig cfg_;
  mutable std::mutex mu_;
  Cell cells_[kNumCells];
};

}  // namespace dsm::svc
