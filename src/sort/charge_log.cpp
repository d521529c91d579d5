#include "sort/charge_log.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "sort/msd_radix.hpp"

namespace dsm::sort {
namespace {

/// MSD: one counting sweep over n keys — per-key BUSY updates, the key
/// sweep, the resident byte counters, and the 256-entry prefix scan that
/// turns counts into bucket starts.
void charge_count_sweep(sim::ProcContext& ctx, std::uint64_t n) {
  const auto& cpu = ctx.params().cpu;
  ctx.busy_cycles(static_cast<double>(n) * cpu.hist_update_cycles);
  ctx.stream(n * sizeof(Key), n * sizeof(Key));  // key sweep
  ctx.stream(kMsdBuckets * sizeof(std::uint64_t),
             kMsdBuckets * sizeof(std::uint64_t));
  ctx.busy_cycles(static_cast<double>(kMsdBuckets) * cpu.scan_cycles);
}

/// MSD: one American-flag permutation. Unlike the LSD scatter (sequential
/// read stream + scattered writes into a toggle pair), the in-place cycle
/// chase performs a dependent random read *and* a random write per
/// placement — 2n accesses — but over a single-array footprint, half of
/// LSD's.
void charge_flag_permute(sim::ProcContext& ctx, std::uint64_t n,
                         std::uint64_t runs, std::uint64_t active) {
  if (n == 0) return;
  const auto& cpu = ctx.params().cpu;
  ctx.busy_cycles(static_cast<double>(n) * cpu.permute_cycles);
  machine::AccessPattern p;
  p.accesses = 2 * n;
  p.elem_bytes = sizeof(Key);
  p.runs = runs;
  p.active_regions = std::max<std::uint64_t>(1, active);
  p.footprint_bytes = n * sizeof(Key);
  ctx.scattered(p);
}

/// MSD: the insertion-sort base case — the placement scan plus the
/// measured shifts, and one sweep through the (cache-resident) span.
void charge_insertion(sim::ProcContext& ctx, std::uint64_t n,
                      std::uint64_t shifts) {
  const auto& cpu = ctx.params().cpu;
  ctx.busy_cycles(static_cast<double>(n + shifts) * cpu.compare_cycles);
  ctx.stream(n * sizeof(Key), n * sizeof(Key));
}

/// Merge: the backbone/stray split — the measured tail-array probes (one
/// fast-path compare per key on sorted-ish input, plus a binary search per
/// stray), the membership sweep, and the partition sweep (read keys,
/// write tmp — twice through the data).
void charge_split_sweep(sim::ProcContext& ctx, std::uint64_t n,
                        std::uint64_t probes) {
  const auto& cpu = ctx.params().cpu;
  ctx.busy_cycles(static_cast<double>(probes) * cpu.binary_search_cycles +
                  static_cast<double>(n) * cpu.compare_cycles);
  ctx.stream(2 * n * sizeof(Key), 2 * n * sizeof(Key));
}

/// Merge: one k-way merge producing `n` keys — the tournament
/// (ceil(log2 k) compares per element), the sequential read/write
/// streams, and the run-interleaving read pattern priced by the measured
/// segment count: few segments behave like a stream, ~n segments like a
/// gather over both buffers.
void charge_merge_round(sim::ProcContext& ctx, std::uint64_t n,
                        std::uint64_t ways, std::uint64_t segments) {
  if (n == 0) return;
  const auto& cpu = ctx.params().cpu;
  const int levels = ways > 1 ? bit_width_u64(ways - 1) : 0;
  ctx.busy_cycles(static_cast<double>(n) * levels * cpu.compare_cycles);
  ctx.stream(n * sizeof(Key), n * sizeof(Key));
  machine::AccessPattern p;
  p.accesses = n;
  p.elem_bytes = sizeof(Key);
  p.runs = std::max<std::uint64_t>(1, segments);
  p.active_regions = std::max<std::uint64_t>(1, ways);
  p.footprint_bytes = 2 * n * sizeof(Key);
  ctx.scattered(p);
}

}  // namespace

void charge_histogram_pass(sim::ProcContext& ctx, std::uint64_t n,
                           std::size_t buckets) {
  const auto& cpu = ctx.params().cpu;
  ctx.busy_cycles(static_cast<double>(n) * cpu.hist_update_cycles);
  ctx.stream(n * sizeof(Key), n * sizeof(Key));  // key sweep
  ctx.stream(buckets * sizeof(std::uint64_t),
             buckets * sizeof(std::uint64_t));
}

void charge_permute_pass(sim::ProcContext& ctx, std::uint64_t n,
                         std::uint64_t runs, std::uint64_t active,
                         std::uint64_t out_size) {
  if (n == 0) return;
  const auto& cpu = ctx.params().cpu;
  ctx.busy_cycles(static_cast<double>(n) * cpu.permute_cycles);
  ctx.stream(n * sizeof(Key), n * sizeof(Key));  // read the source keys
  machine::AccessPattern p;
  p.accesses = n;
  p.elem_bytes = sizeof(Key);
  p.runs = runs;
  p.active_regions = std::max<std::uint64_t>(1, active);
  // Both toggle arrays compete for the cache during a pass.
  p.footprint_bytes = 2 * out_size * sizeof(Key);
  ctx.scattered(p);
}

void ChargeLog::put(Op op, std::initializer_list<std::uint64_t> args) {
  bytes_.push_back(static_cast<std::uint8_t>(op));
  for (std::uint64_t v : args) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<std::uint8_t>(v | 0x80));
      v >>= 7;
    }
    bytes_.push_back(static_cast<std::uint8_t>(v));
  }
}

void ChargeLog::replay(sim::ProcContext& ctx) const {
  const std::uint8_t* at = bytes_.data();
  const std::uint8_t* const end = at + bytes_.size();
  const auto next = [&]() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      DSM_CHECK(at != end, "truncated charge log");
      const std::uint8_t b = *at++;
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (b < 0x80) return v;
    }
  };
  while (at != end) {
    switch (static_cast<Op>(*at++)) {
      case Op::kHistogramPass: {
        const std::uint64_t n = next();
        charge_histogram_pass(ctx, n, next());
        break;
      }
      case Op::kScan:
        ctx.busy_cycles(static_cast<double>(next()) *
                        ctx.params().cpu.scan_cycles);
        break;
      case Op::kPermutePass: {
        const std::uint64_t n = next();
        const std::uint64_t runs = next();
        const std::uint64_t active = next();
        charge_permute_pass(ctx, n, runs, active, next());
        break;
      }
      case Op::kCopyBack: {
        const std::uint64_t bytes = 2 * next() * sizeof(Key);
        ctx.stream(bytes, bytes);
        break;
      }
      case Op::kCountSweep:
        charge_count_sweep(ctx, next());
        break;
      case Op::kFlagPermute: {
        const std::uint64_t n = next();
        const std::uint64_t runs = next();
        charge_flag_permute(ctx, n, runs, next());
        break;
      }
      case Op::kInsertion: {
        const std::uint64_t n = next();
        charge_insertion(ctx, n, next());
        break;
      }
      case Op::kSplitSweep: {
        const std::uint64_t n = next();
        charge_split_sweep(ctx, n, next());
        break;
      }
      case Op::kMergeRound: {
        const std::uint64_t n = next();
        const std::uint64_t ways = next();
        charge_merge_round(ctx, n, ways, next());
        break;
      }
      default:
        DSM_CHECK(false, "unknown charge log op");
    }
  }
}

}  // namespace dsm::sort
