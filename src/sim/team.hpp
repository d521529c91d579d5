// SimTeam: the SPMD launcher and collective virtual-time engine.
//
// A SimTeam owns P virtual clocks and a machine cost model, runs an SPMD
// body on P logical ranks (functional concurrency; timing is virtual), and
// provides the collective operations every programming-model runtime is
// built from:
//
//   * reconcile_shared<In, R>() — the fundamental primitive: every rank
//     deposits an In, the last arriver runs a single-threaded
//     reconciliation function once over all deposits, and every rank picks
//     up the same shared result. reconcile<In, Out>() hands each rank its
//     own entry of a per-rank result. All barrier timing, DES epochs,
//     collectives, and error broadcasting run through them.
//   * vbarrier() — barrier whose SYNC charge is max-minus-own over virtual
//     arrival times (also enforces pending network quiescence from puts).
//   * two_sided_epoch / get_epoch / put_epoch / scattered_write_epoch —
//     apply the engines in epoch.hpp to the team's clocks.
//
// Ranks execute as fibers of a CoopScheduler (see common/coop.hpp) on the
// calling thread. Reconciliation functions are pure over the rank-indexed
// deposits, so the host schedule cannot leak into results.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/coop.hpp"
#include "common/error.hpp"
#include "machine/cost.hpp"
#include "sim/clock.hpp"
#include "sim/epoch.hpp"
#include "sim/phases.hpp"
#include "sim/proc.hpp"
#include "sim/trace.hpp"

namespace dsm::sim {

class SimTeam {
 public:
  SimTeam(int nprocs, const machine::MachineParams& params);

  int nprocs() const { return cost_.nprocs(); }
  const machine::CostModel& cost() const { return cost_; }

  /// Run `body` on every rank (blocking). May be called multiple times;
  /// clocks accumulate across calls unless reset_clocks() is used.
  void run(const std::function<void(ProcContext&)>& body);

  void reset_clocks();

  /// Per-rank time breakdown (valid between run() calls).
  Breakdown breakdown_of(int rank) const;

  /// Mark a phase transition on `rank`'s timeline (used via
  /// ProcContext::phase()).
  void record_phase(int rank, std::string name);

  /// Observation hook fired on every phase mark with the marking rank's
  /// virtual time so far, before the mark is recorded. Throwing from the
  /// hook aborts the run like any rank failure (team poison). Used by the
  /// sort driver for fault injection, cooperative cancellation, and
  /// virtual-time deadline enforcement. A team's ranks run one at a time
  /// on one thread, so one team never calls the hook concurrently.
  using PhaseHook =
      std::function<void(int rank, const char* name, double virtual_ns)>;
  void set_phase_hook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  /// Per-rank phase attribution (deltas between marks; see sim/phases.hpp).
  std::vector<std::pair<std::string, Breakdown>> phases_of(int rank) const;

  /// Mean per-phase attribution across all ranks.
  std::vector<std::pair<std::string, Breakdown>> mean_phase_report() const;

  /// Enable per-rank event tracing (barriers/epochs); see sim/trace.hpp.
  void enable_tracing(bool on = true) { tracing_ = on; }
  bool tracing() const { return tracing_; }

  /// Events recorded for `rank` (empty unless tracing was enabled).
  const std::vector<TraceEvent>& trace_of(int rank) const;

  /// Whole-team trace as JSON lines, rank by rank.
  std::string trace_json() const;

  /// Max over ranks of total virtual time — the phase/sort completion time.
  double elapsed_ns() const;

  // ---- collective operations (call only from inside run bodies) ---------

  /// Deposit `in`; the last arriver runs `fn` once over all deposits
  /// (indexed by rank) and every rank receives the same shared, immutable
  /// result. `fn` must be the same pure function on every rank: whichever
  /// rank arrives last, the result depends only on the deposits.
  template <typename In, typename R, typename Fn>
  std::shared_ptr<const R> reconcile_shared(ProcContext& ctx, const In& in,
                                            Fn fn) {
    deposits_[static_cast<std::size_t>(ctx.rank())] = &in;
    sched_.arrive_and_wait([&] {
      std::vector<const In*> ins(static_cast<std::size_t>(nprocs()));
      for (std::size_t i = 0; i < ins.size(); ++i) {
        ins[i] = static_cast<const In*>(deposits_[i]);
        DSM_CHECK(ins[i] != nullptr, "missing reconcile deposit");
      }
      result_ =
          std::make_shared<const R>(fn(std::span<const In* const>(ins)));
    });
    return std::static_pointer_cast<const R>(result_);
  }

  /// reconcile_shared with one result per rank: `fn` returns a vector
  /// indexed by rank and every rank receives its own entry.
  template <typename In, typename Out, typename Fn>
  Out reconcile(ProcContext& ctx, const In& in, Fn fn) {
    const auto outs = reconcile_shared<In, std::vector<Out>>(
        ctx, in, [&](std::span<const In* const> ins) {
          auto o = fn(ins);
          DSM_CHECK(o.size() == ins.size(),
                    "reconcile fn must produce one result per rank");
          return o;
        });
    return (*outs)[static_cast<std::size_t>(ctx.rank())];
  }

  /// Barrier with SYNC reconciliation; release time also respects network
  /// quiescence left behind by put/scattered epochs.
  void vbarrier(ProcContext& ctx);

  /// Run a two-sided message exchange epoch: `sends` are this rank's
  /// posted sends in order (data must already have been copied by the
  /// caller); timing is reconciled and charged. Acts as a full barrier for
  /// the *participants' data visibility* (physical barrier inside). The
  /// vector is borrowed for the duration of the call (zero-copy), so
  /// callers can hoist and reuse one buffer across passes.
  void two_sided_epoch(ProcContext& ctx, const std::vector<Transfer>& sends,
                       const TwoSidedConfig& cfg);

  /// Blocking-get epoch (SHMEM-style, receiver initiated).
  void get_epoch(ProcContext& ctx, const std::vector<Transfer>& gets,
                 const OneSidedConfig& cfg);

  /// Put epoch (SHMEM-style, sender initiated); leaves a pending
  /// quiescence the next vbarrier enforces.
  void put_epoch(ProcContext& ctx, const std::vector<Transfer>& puts,
                 const OneSidedConfig& cfg);

  /// CC-SAS fine-grained scattered remote write epoch: charges each
  /// writer's contention-inflated RMEM. `overlap_ns` is the computation
  /// time this writer overlaps with its stores (widens the contention
  /// window). Quiescence handled like puts.
  void scattered_write_epoch(ProcContext& ctx,
                             const std::vector<ScatteredTraffic>& traffic,
                             double overlap_ns = 0.0);

 private:
  struct EpochIn {
    const std::vector<Transfer>* transfers = nullptr;
    const std::vector<ScatteredTraffic>* traffic = nullptr;
    double entry_ns = 0;
    double overlap_ns = 0;
  };

  void apply_outcome(ProcContext& ctx, const ProcOutcome& o);

  /// Collect the rank-indexed deposits into the reusable pointer/entry
  /// scratch (zero-copy: epoch engines consume the rank vectors in place).
  void gather_epoch_inputs(std::span<const EpochIn* const> ins);

  machine::CostModel cost_;
  CoopScheduler sched_;
  void trace_event(int rank, TraceEvent::Kind kind, double start_ns,
                   double end_ns, std::uint64_t transfers,
                   std::uint64_t bytes);

  std::vector<CategoryClock> clocks_;
  PhaseHook phase_hook_;
  std::vector<PhaseLog> phase_logs_;
  std::vector<TraceLog> trace_logs_;
  bool tracing_ = false;
  std::vector<const void*> deposits_;
  std::shared_ptr<const void> result_;
  double pending_quiescence_ns_ = 0;

  // Epoch-completion scratch, reused across rounds. Only the last arriver
  // touches these, and rounds are totally ordered by the barrier.
  std::vector<const std::vector<Transfer>*> scratch_transfers_;
  std::vector<const std::vector<ScatteredTraffic>*> scratch_traffic_;
  std::vector<double> scratch_entries_;
  std::vector<double> scratch_overlaps_;
};

/// Rank-indexed blocks as a collective's reducer sees them.
template <typename T>
using Blocks = std::span<const std::span<const T>>;

/// Adapt `reduce`, a pure function of equal-size rank-indexed blocks, to a
/// reconcile_shared function over span deposits. `what` names the
/// collective in the size-mismatch error.
template <typename T, typename Reduce>
auto over_equal_blocks(Reduce reduce, const char* what) {
  return [reduce, what](std::span<const std::span<const T>* const> deps) {
    std::vector<std::span<const T>> blocks;
    blocks.reserve(deps.size());
    for (const std::span<const T>* d : deps) {
      DSM_REQUIRE(d->size() == deps[0]->size(),
                  std::string(what) + " blocks must have equal size");
      blocks.push_back(*d);
    }
    return reduce(Blocks<T>(blocks));
  };
}

/// The gather reducer: every block, concatenated in rank order.
template <typename T>
std::vector<T> concat_blocks(Blocks<T> blocks) {
  std::size_t total = 0;
  for (const auto& b : blocks) total += b.size();
  std::vector<T> out;
  out.reserve(total);
  for (const auto& b : blocks) out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// The sum reducer: element-wise sum of equal-size blocks.
template <typename T>
std::vector<T> sum_blocks(Blocks<T> blocks) {
  std::vector<T> total(blocks[0].size(), T{});
  for (const auto& b : blocks) {
    for (std::size_t i = 0; i < b.size(); ++i) total[i] += b[i];
  }
  return total;
}

}  // namespace dsm::sim
