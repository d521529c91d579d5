// The local sorts' charges, and a log that records them as counts.
//
// Every local sort (seq_radix.hpp, msd_radix.hpp, merge_sort.hpp) charges
// only from counts measured while it sorts: per LSD pass the active
// buckets and digit runs, per MSD node the counting sweep's runs and the
// insertion shifts, per merge round its ways and run-switch segments. A
// ChargeLog keeps those count-level calls in order; replay() makes
// exactly the charges — the same doubles, through the same ProcContext
// calls, in the same order — the sort would have made on a live context.
// That is what lets the sample-sort record (sample_parallel.hpp, DESIGN.md
// §5.3) run every rank's local sorts once and hand each model's charge
// program a log to replay. The log holds no keys: an op byte and a few
// LEB128 varints per call, a few bytes per MSD leaf.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "sim/proc.hpp"

namespace dsm::sort {

/// Charges of one counting pass over `n` keys into 2^r = `buckets`
/// counters: per-key BUSY updates, the key sweep, the resident counters.
/// One function for every caller, so the charges cannot drift between the
/// local sorts and the parallel radix charge programs.
void charge_histogram_pass(sim::ProcContext& ctx, std::uint64_t n,
                           std::size_t buckets);

/// Charges of one stable permutation of `n` keys into an `out_size`-key
/// destination, parameterised by the measured run structure (`runs`
/// digit runs in input order, `active` nonzero buckets) — pure functions
/// of the key order, hence identical under every backend.
void charge_permute_pass(sim::ProcContext& ctx, std::uint64_t n,
                         std::uint64_t runs, std::uint64_t active,
                         std::uint64_t out_size);

class ChargeLog {
 public:
  /// charge_histogram_pass(n, buckets).
  void histogram_pass(std::uint64_t n, std::uint64_t buckets) {
    put(Op::kHistogramPass, {n, buckets});
  }
  /// One prefix scan over `buckets` counters.
  void scan(std::uint64_t buckets) { put(Op::kScan, {buckets}); }
  /// charge_permute_pass(n, runs, active, out_size).
  void permute_pass(std::uint64_t n, std::uint64_t runs, std::uint64_t active,
                    std::uint64_t out_size) {
    put(Op::kPermutePass, {n, runs, active, out_size});
  }
  /// The copy of `n` keys from the toggle buffer back into the input.
  void copy_back(std::uint64_t n) { put(Op::kCopyBack, {n}); }
  /// MSD: one counting sweep over `n` keys plus its 256-entry scan.
  void count_sweep(std::uint64_t n) { put(Op::kCountSweep, {n}); }
  /// MSD: one American-flag permutation of `n` keys.
  void flag_permute(std::uint64_t n, std::uint64_t runs,
                    std::uint64_t active) {
    put(Op::kFlagPermute, {n, runs, active});
  }
  /// MSD: the insertion-sort base case over `n` keys.
  void insertion(std::uint64_t n, std::uint64_t shifts) {
    put(Op::kInsertion, {n, shifts});
  }
  /// Merge: the backbone/stray split sweep over `n` keys.
  void split_sweep(std::uint64_t n, std::uint64_t probes) {
    put(Op::kSplitSweep, {n, probes});
  }
  /// Merge: one `ways`-way merge producing `n` keys.
  void merge_round(std::uint64_t n, std::uint64_t ways,
                   std::uint64_t segments) {
    put(Op::kMergeRound, {n, ways, segments});
  }

  /// Make every logged charge on `ctx`, in order.
  void replay(sim::ProcContext& ctx) const;

 private:
  enum class Op : std::uint8_t {
    kHistogramPass,
    kScan,
    kPermutePass,
    kCopyBack,
    kCountSweep,
    kFlagPermute,
    kInsertion,
    kSplitSweep,
    kMergeRound,
  };
  void put(Op op, std::initializer_list<std::uint64_t> args);

  std::vector<std::uint8_t> bytes_;  // op byte, then its arguments
};

}  // namespace dsm::sort
