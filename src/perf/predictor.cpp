#include "perf/predictor.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "machine/cost.hpp"
#include "sort/seq_radix.hpp"

namespace dsm::perf {
namespace {

using machine::CostModel;
using machine::MachineParams;
using sim::Breakdown;
using sort::Algo;
using sort::Model;
using sort::SortSpec;

/// Accumulates the prediction in the same four categories the simulator
/// charges.
struct Acc {
  Breakdown b;

  void busy(double ns) { b.busy_ns += ns; }
  void lmem(double ns) { b.lmem_ns += ns; }
  void rmem(double ns) { b.rmem_ns += ns; }
  void sync(double ns) { b.sync_ns += ns; }
};

struct Ctx {
  const SortSpec& spec;
  MachineParams mp;
  CostModel cost;
  double n_l;      // keys per process
  double buckets;  // 2^radix
  int passes;
  double lat_avg;  // average remote latency

  explicit Ctx(const SortSpec& s)
      : spec(s),
        mp(s.resolved_machine()),
        cost(mp, s.nprocs),
        n_l(static_cast<double>(s.n) / s.nprocs),
        buckets(static_cast<double>(std::uint64_t{1} << s.radix_bits)),
        passes(sort::radix_passes(s.radix_bits)),
        lat_avg(cost.topology().average_latency_ns()) {}

  double cycles(double c) const { return cost.busy_ns(c); }
  double wire_avg(double bytes) const {
    return lat_avg + bytes / mp.mem.bulk_copy_bytes_per_ns;
  }
  int rounds() const {
    return bit_width_u64(static_cast<std::uint64_t>(spec.nprocs) - 1);
  }
};

/// Expected maximal bucket runs in one pass over n keys: pre-clustered
/// streams (`remote`/`local` in passes >= 2, via the stable permutation)
/// degenerate to roughly one run per active bucket.
double expected_runs(const Ctx& c, double n, bool clustered) {
  if (clustered) return std::min(n, 4 * c.buckets);
  return std::max(1.0, n * (1.0 - 1.0 / c.buckets));
}

double expected_active(const Ctx& c, double n) {
  // Occupancy of B buckets by n uniform keys.
  return c.buckets * (1.0 - std::exp(-n / c.buckets));
}

bool dist_clusters_late_passes(keys::Dist d) {
  return d == keys::Dist::kLocal || d == keys::Dist::kRemote;
}

/// Distribution features the MSD and mergesort backends exploit
/// (DESIGN.md §13). `distinct` bounds MSD's recursion depth (buckets go
/// all-equal once they hold one value); `stray_frac` is the expected
/// fraction of keys outside the longest non-decreasing backbone
/// (mergesort's nearly-sorted path triggers below 1/2); `low_byte_only`
/// marks streams whose keys share their top three bytes, which MSD
/// descends without permuting.
struct DistFeatures {
  double distinct = 0;
  double stray_frac = 1.0;
  bool low_byte_only = false;
};

DistFeatures dist_features(keys::Dist d, double n) {
  const double full = 4294967296.0;
  switch (d) {
    case keys::Dist::kDup:
      // 64 values; the non-decreasing backbone of an iid stream over V
      // values holds ~1/V of the keys.
      return {64.0, 1.0 - 1.0 / 64.0, false};
    case keys::Dist::kZipf:
      return {1024.0, 1.0 - 1.0 / 1024.0, false};
    case keys::Dist::kAlmostSorted:
      // An ascending ramp with ~1/64 random replacements.
      return {std::min(n, full), 1.0 / 64.0, false};
    case keys::Dist::kAdversarial:
      // ~15/16 of the stream is one hot value (a huge constant backbone);
      // the rest differ from it only in the low byte.
      return {257.0, 1.0 / 16.0, true};
    default:
      // Uniform-ish streams: essentially all-distinct 32-bit keys, and a
      // backbone of only ~2*sqrt(n).
      return {std::min(n, full), 1.0, false};
  }
}

/// One charged histogram pass (matches charge_histogram_pass).
void add_histogram(const Ctx& c, double n, Acc& a) {
  a.busy(c.cycles(n * c.mp.cpu.hist_update_cycles));
  const auto bytes = static_cast<std::uint64_t>(n * 4);
  a.lmem(c.cost.stream_ns(bytes, bytes));
  const auto hist_bytes = static_cast<std::uint64_t>(c.buckets * 8);
  a.lmem(c.cost.stream_ns(hist_bytes, hist_bytes));
}

/// One charged local permutation (matches charge_permute_pass) over n
/// keys into a region of n keys (footprint doubled for the toggle pair).
void add_permute(const Ctx& c, double n, bool clustered, Acc& a) {
  a.busy(c.cycles(n * c.mp.cpu.permute_cycles));
  const auto bytes = static_cast<std::uint64_t>(n * 4);
  a.lmem(c.cost.stream_ns(bytes, bytes));
  machine::AccessPattern p;
  p.accesses = static_cast<std::uint64_t>(std::max(1.0, n));
  p.elem_bytes = 4;
  p.runs = static_cast<std::uint64_t>(
      std::clamp(expected_runs(c, n, clustered), 1.0, std::max(1.0, n)));
  p.active_regions =
      static_cast<std::uint64_t>(std::max(1.0, expected_active(c, n)));
  p.footprint_bytes = 2 * bytes;
  if (p.accesses > 0 && p.footprint_bytes > 0) a.lmem(c.cost.scattered_ns(p));
}

/// Instrumented local radix sort (matches local_radix_sort).
void add_local_sort(const Ctx& c, double n, bool clustered, Acc& a) {
  for (int pass = 0; pass < c.passes; ++pass) {
    add_histogram(c, n, a);
    a.busy(c.cycles(c.buckets * c.mp.cpu.scan_cycles));
    add_permute(c, n, clustered && pass >= 2, a);
  }
  if (c.passes % 2 != 0) {
    const auto bytes = static_cast<std::uint64_t>(2 * n * 4);
    a.lmem(c.cost.stream_ns(bytes, bytes));
  }
}

/// One MSD count sweep over n keys (matches charge_count_sweep): the
/// histogram update, the key read stream, and the 256-counter table.
void add_msd_count(const Ctx& c, double n, Acc& a) {
  constexpr double kMsdB = 256.0;
  a.busy(c.cycles(n * c.mp.cpu.hist_update_cycles));
  const auto bytes = static_cast<std::uint64_t>(n * 4);
  a.lmem(c.cost.stream_ns(bytes, bytes));
  const auto tab = static_cast<std::uint64_t>(kMsdB * 8);
  a.lmem(c.cost.stream_ns(tab, tab));
  a.busy(c.cycles(kMsdB * c.mp.cpu.scan_cycles));
}

/// One MSD in-place flag permute over n keys (matches
/// charge_flag_permute): the cycle chase reads and writes each slot once
/// (2n accesses) inside the node's own footprint — never a scratch
/// buffer — scattered over the active buckets.
void add_msd_permute(const Ctx& c, double n, double active, Acc& a) {
  a.busy(c.cycles(n * c.mp.cpu.permute_cycles));
  machine::AccessPattern p;
  p.accesses = static_cast<std::uint64_t>(std::max(1.0, 2 * n));
  p.elem_bytes = 4;
  p.runs = static_cast<std::uint64_t>(std::clamp(
      n * (1.0 - 1.0 / std::max(2.0, active)), 1.0, std::max(1.0, 2 * n)));
  p.active_regions = static_cast<std::uint64_t>(std::max(1.0, active));
  p.footprint_bytes = static_cast<std::uint64_t>(std::max(4.0, n * 4));
  a.lmem(c.cost.scattered_ns(p));
}

/// The insertion-sort base cases over an aggregate of n keys in buckets
/// of average size b (matches charge_insertion; expected shifts per key
/// ~ b/4 for an unsorted bucket).
void add_msd_insertion(const Ctx& c, double n, double b, Acc& a) {
  a.busy(c.cycles((n + n * b / 4.0) * c.mp.cpu.compare_cycles));
  const auto bytes = static_cast<std::uint64_t>(std::max(4.0, n * 4));
  a.lmem(c.cost.stream_ns(bytes, bytes));
}

/// Expected cost of one MSD in-place local sort of n keys (DESIGN.md
/// §13): recursion depth is the smaller of the size-driven bound
/// (buckets reach the insertion cutoff) and the value-driven bound
/// (buckets go all-equal once they hold a single value) — the latter is
/// where duplicate-heavy streams win.
void add_msd_local_sort(const Ctx& c, double n, Acc& a) {
  if (n < 1) return;
  const DistFeatures f = dist_features(c.spec.dist, n);
  const double v = std::clamp(f.distinct, 1.0, n);
  if (n <= 32) {
    add_msd_insertion(c, n, n, a);
    return;
  }
  if (v <= 1.0) {
    add_msd_count(c, n, a);  // one sweep discovers all-equal
    return;
  }
  const double log256 = std::log(256.0);
  const double lv = std::log(v) / log256;
  const double ls = std::log(std::max(1.0, n / 16.0)) / log256;
  const bool value_limited = f.low_byte_only || lv < ls;
  // Shared-prefix streams descend without permuting until the byte that
  // differs; permuting levels otherwise follow the tighter depth bound.
  const int descend = f.low_byte_only ? 3 : 0;
  const int perm =
      f.low_byte_only
          ? 1
          : static_cast<int>(std::max(1.0, std::ceil(std::min(lv, ls))));
  const int counts =
      descend + perm + (value_limited && !f.low_byte_only ? 1 : 0);
  for (int i = 0; i < counts; ++i) add_msd_count(c, n, a);
  const double active = std::min({256.0, v, n});
  for (int i = 0; i < perm; ++i) add_msd_permute(c, n, active, a);
  if (!value_limited) {
    const double b =
        std::clamp(n / std::pow(256.0, static_cast<double>(perm)), 1.0, 32.0);
    add_msd_insertion(c, n, b, a);
  }
}

/// Expected cost of one mergesort local sort of n keys (DESIGN.md §13):
/// the patience backbone/stray split, then either the nearly-sorted
/// repair (LSD over the strays + one 2-way merge) or full run generation
/// plus fanout-64 merge rounds.
void add_merge_local_sort(const Ctx& c, double n, Acc& a) {
  if (n <= 1) return;
  const DistFeatures f = dist_features(c.spec.dist, n);
  const double strays = std::clamp(f.stray_frac, 0.0, 1.0) * n;
  const double backbone =
      std::max(n - strays, 2.0 * std::sqrt(std::max(1.0, n)));
  // Split sweep: the chain-extension fast path is one probe per key;
  // each stray pays a binary search over the ~backbone-long tail array.
  const double probes =
      n + strays * std::log2(std::max(2.0, backbone));
  a.busy(c.cycles(probes * c.mp.cpu.binary_search_cycles +
                  n * c.mp.cpu.compare_cycles));
  const auto sweep = static_cast<std::uint64_t>(2 * n * 4);
  a.lmem(c.cost.stream_ns(sweep, sweep));
  if (strays < 1.0) return;  // already sorted

  const bool clustered = dist_clusters_late_passes(c.spec.dist);
  auto merge_round = [&](double ways, double segments) {
    const double levels =
        ways > 1 ? static_cast<double>(bit_width_u64(
                       static_cast<std::uint64_t>(ways) - 1))
                 : 0.0;
    a.busy(c.cycles(n * levels * c.mp.cpu.compare_cycles));
    const auto bytes = static_cast<std::uint64_t>(n * 4);
    a.lmem(c.cost.stream_ns(bytes, bytes));
    machine::AccessPattern p;
    p.accesses = static_cast<std::uint64_t>(std::max(1.0, n));
    p.elem_bytes = 4;
    p.runs = static_cast<std::uint64_t>(
        std::clamp(segments, 1.0, std::max(1.0, n)));
    p.active_regions = static_cast<std::uint64_t>(std::max(1.0, ways));
    p.footprint_bytes = static_cast<std::uint64_t>(2 * n * 4);
    a.lmem(c.cost.scattered_ns(p));
  };
  if (n - strays >= n / 2) {
    // Nearly-sorted: LSD over the strays, one 2-way merge back.
    add_local_sort(c, strays, clustered, a);
    merge_round(2.0, std::min(n, 2 * strays + 1));
    return;
  }
  // General path: full run generation + ceil(log_64(runs)) merge rounds.
  add_local_sort(c, n, clustered, a);
  double runs = std::max(1.0, std::ceil(n / 16384.0));
  while (runs > 1.0) {
    const double ways = std::min(64.0, runs);
    merge_round(ways, n * (1.0 - 1.0 / std::max(2.0, ways)));
    runs = std::ceil(runs / 64.0);
  }
}

/// The local-sort kernel the sample skeleton runs for this spec's
/// algorithm (mirrors charged_local_sort in sample_parallel.cpp).
void add_skeleton_local_sort(const Ctx& c, double n, bool clustered,
                             Acc& a) {
  switch (c.spec.algo) {
    case Algo::kMsdRadix:
      add_msd_local_sort(c, n, a);
      return;
    case Algo::kMergesort:
      add_merge_local_sort(c, n, a);
      return;
    default:
      add_local_sort(c, n, clustered, a);
      return;
  }
}

void add_ccsas_barrier(const Ctx& c, Acc& a) {
  a.rmem(c.mp.sw.barrier_hop_ns * c.rounds());
}

/// BucketScan.scan (the CC-SAS parallel prefix).
void add_bucket_scan(const Ctx& c, Acc& a) {
  const double row_bytes = c.buckets * 8;
  a.lmem(c.cost.stream_ns(static_cast<std::uint64_t>(row_bytes),
                          static_cast<std::uint64_t>(row_bytes)));
  add_ccsas_barrier(c, a);
  for (int d = 1; d < c.spec.nprocs; d <<= 1) {
    a.rmem(c.wire_avg(row_bytes));
    a.busy(c.cycles(c.buckets * c.mp.cpu.scan_cycles));
    a.lmem(c.cost.stream_ns(static_cast<std::uint64_t>(2 * row_bytes),
                            static_cast<std::uint64_t>(2 * row_bytes)));
    add_ccsas_barrier(c, a);
  }
  a.busy(c.cycles(c.buckets * c.mp.cpu.scan_cycles));
  if (c.spec.nprocs > 1) a.rmem(c.wire_avg(row_bytes));
  add_ccsas_barrier(c, a);
}

/// Recursive-doubling collective (matches charge_allgather /
/// charge_fcollect): block doubles every round.
void add_allgather(const Ctx& c, double block_bytes, double send_ov,
                   double recv_ov, double copy_per_byte, Acc& a) {
  double have = block_bytes;
  for (int k = 0; k < c.rounds(); ++k) {
    a.rmem(send_ov + recv_ov + c.wire_avg(have) + copy_per_byte * have);
    have = std::min(2 * have, block_bytes * c.spec.nprocs);
  }
}

/// Per-rank prefix scan over the gathered p x B histograms (the charge of
/// radix_parallel.cpp charge_prefix_scan).
void add_prefix_scan(const Ctx& c, Acc& a) {
  const double cells = c.spec.nprocs * c.buckets;
  a.busy(c.cycles(cells * c.mp.cpu.scan_cycles));
  a.lmem(c.cost.stream_ns(static_cast<std::uint64_t>(cells * 8),
                          static_cast<std::uint64_t>(cells * 8)));
}

/// Expected chunk pieces a process exchanges per radix pass: its ~B
/// per-bucket chunks gain at most p-1 extra splits at partition
/// boundaries; a 1/p share stays local.
double expected_pieces(const Ctx& c) {
  const double chunks = std::min(expected_active(c, c.n_l), c.n_l);
  return chunks + std::min<double>(c.spec.nprocs - 1, chunks);
}

void predict_radix(const Ctx& c, Acc& a) {
  const int p = c.spec.nprocs;
  const double remote_frac = p > 1 ? static_cast<double>(p - 1) / p : 0.0;
  const double out_bytes = c.n_l * 4 * remote_frac;
  const bool clustered_late = dist_clusters_late_passes(c.spec.dist);

  for (int pass = 0; pass < c.passes; ++pass) {
    const bool clustered = clustered_late && pass >= 2;
    add_histogram(c, c.n_l, a);

    switch (c.spec.model) {
      case Model::kCcSas:
      case Model::kCcSasNew: {
        add_bucket_scan(c, a);
        a.busy(c.cycles(2 * c.buckets * c.mp.cpu.scan_cycles));
        if (c.spec.model == Model::kCcSas) {
          // Direct scattered writes: full busy + source stream, local
          // 1/p share of the scatter as LMEM, remote share priced by the
          // profile with home-occupancy inflation.
          const double busy_ns = c.cycles(c.n_l * c.mp.cpu.permute_cycles);
          a.busy(busy_ns);
          const auto bytes = static_cast<std::uint64_t>(c.n_l * 4);
          a.lmem(c.cost.stream_ns(bytes, bytes));
          machine::AccessPattern ap;
          ap.accesses =
              static_cast<std::uint64_t>(std::max(1.0, c.n_l / p));
          ap.elem_bytes = 4;
          ap.runs = static_cast<std::uint64_t>(std::clamp(
              expected_runs(c, c.n_l, clustered) / p, 1.0,
              static_cast<double>(ap.accesses)));
          ap.active_regions = static_cast<std::uint64_t>(
              std::max(1.0, expected_active(c, c.n_l)));
          ap.footprint_bytes = bytes;
          a.lmem(c.cost.scattered_ns(ap));
          const auto prof = c.cost.scattered_write_profile(
              static_cast<std::uint64_t>(out_bytes));
          const double runs = expected_runs(c, c.n_l, clustered) * remote_frac;
          const double lines = std::max(runs, out_bytes / 128.0);
          const double raw = lines * prof.per_line_ns;
          const double occ = lines * prof.transactions_per_line *
                             c.mp.mem.dir_occupancy_ns;
          const double span = busy_ns + raw;
          a.rmem(raw * std::max(1.0, span > 0 ? occ / span : 1.0));
        } else {
          // Buffered: full local permute + buffer append + block copies.
          add_permute(c, c.n_l, clustered, a);
          a.busy(c.cycles(c.n_l * c.mp.cpu.buffer_copy_cycles));
          const auto local_bytes =
              static_cast<std::uint64_t>(c.n_l * 4 / p);
          a.lmem(c.cost.stream_ns(2 * local_bytes,
                                  static_cast<std::uint64_t>(c.n_l * 4)));
          const double lines = out_bytes / 128.0;
          a.lmem(c.cost.stream_ns(static_cast<std::uint64_t>(out_bytes),
                                  static_cast<std::uint64_t>(2 * c.n_l * 4)));
          a.rmem(lines * c.mp.mem.ccsas_block_line_ns);
        }
        add_ccsas_barrier(c, a);
        break;
      }
      case Model::kMpi: {
        const bool staged = c.spec.ablations.mpi_impl == msg::Impl::kStaged;
        const double send_ov = staged ? c.mp.sw.mpi_staged_send_overhead_ns
                                      : c.mp.sw.mpi_send_overhead_ns;
        const double recv_ov = staged ? c.mp.sw.mpi_staged_recv_overhead_ns
                                      : c.mp.sw.mpi_recv_overhead_ns;
        const double copy = staged ? 1.0 / c.mp.sw.copy_bytes_per_ns +
                                         1.0 / c.mp.mem.bulk_copy_bytes_per_ns
                                   : 1.0 / c.mp.mem.bulk_copy_bytes_per_ns;
        add_allgather(c, c.buckets * 8, send_ov, recv_ov,
                      staged ? 2.0 / c.mp.sw.copy_bytes_per_ns : 0.0, a);
        add_prefix_scan(c, a);
        add_permute(c, c.n_l, clustered, a);
        a.busy(c.cycles(c.n_l * c.mp.cpu.buffer_copy_cycles));
        const double msgs = expected_pieces(c) * remote_frac;
        a.rmem(msgs * (send_ov + recv_ov) + out_bytes * copy);
        a.sync(c.lat_avg + recv_ov);  // last-arrival drain residue
        const auto local_bytes = static_cast<std::uint64_t>(c.n_l * 4 / p);
        a.lmem(c.cost.stream_ns(2 * local_bytes,
                                static_cast<std::uint64_t>(c.n_l * 4)));
        break;
      }
      case Model::kShmem: {
        add_allgather(c, c.buckets * 8, c.mp.sw.shmem_put_overhead_ns, 0.0,
                      0.0, a);
        add_prefix_scan(c, a);
        add_permute(c, c.n_l, clustered, a);
        a.busy(c.cycles(c.n_l * c.mp.cpu.buffer_copy_cycles));
        // Staging barrier + enumeration + batch gets + closing barrier.
        a.rmem(2 * c.mp.sw.shmem_put_overhead_ns * c.rounds());
        a.busy(c.cycles(p * c.buckets * c.mp.cpu.scan_cycles));
        const double gets = expected_pieces(c) * remote_frac;
        a.rmem(gets * (c.mp.sw.shmem_get_overhead_ns +
                       c.mp.mem.dir_occupancy_ns) +
               out_bytes / c.mp.mem.bulk_copy_bytes_per_ns + c.lat_avg);
        const auto local_bytes = static_cast<std::uint64_t>(c.n_l * 4 / p);
        a.lmem(c.cost.stream_ns(2 * local_bytes,
                                static_cast<std::uint64_t>(c.n_l * 4)));
        break;
      }
    }
  }
  if (c.spec.model != Model::kCcSas && c.spec.model != Model::kCcSasNew &&
      c.passes % 2 != 0) {
    const auto bytes = static_cast<std::uint64_t>(2 * c.n_l * 4);
    a.lmem(c.cost.stream_ns(bytes, bytes));
  }
}

void predict_sample(const Ctx& c, Acc& a) {
  const int p = c.spec.nprocs;
  const double s = c.spec.ablations.sample_count;
  const double remote_frac = p > 1 ? static_cast<double>(p - 1) / p : 0.0;
  const bool clustered = dist_clusters_late_passes(c.spec.dist);

  // Phase 1 + phase 5: two local sorts of ~n_l keys each, using the
  // spec's local-sort kernel (LSD for kSample, MSD or mergesort for the
  // backends riding the skeleton).
  add_skeleton_local_sort(c, c.n_l, clustered, a);
  add_skeleton_local_sort(c, c.n_l, clustered, a);

  // Sampling.
  a.busy(c.cycles(s * c.mp.cpu.scan_cycles));

  // Splitters.
  const double all_samples = s * p;
  if (c.spec.model == Model::kCcSas) {
    // Critical path: the group collector sorts and merges; everyone waits.
    const double m = s * std::min(32, p);
    a.sync(c.cycles(m * std::log2(std::max(2.0, m)) *
                    c.mp.cpu.compare_cycles) +
           c.cycles(all_samples * c.mp.cpu.compare_cycles));
    a.rmem(3 * c.mp.sw.barrier_hop_ns * c.rounds() + c.wire_avg(s * 4));
  } else {
    const double put_ov = c.spec.model == Model::kShmem
                              ? c.mp.sw.shmem_put_overhead_ns
                              : c.mp.sw.mpi_send_overhead_ns;
    add_allgather(c, s * 4, put_ov,
                  c.spec.model == Model::kShmem
                      ? 0.0
                      : c.mp.sw.mpi_recv_overhead_ns,
                  0.0, a);
    a.busy(c.cycles(all_samples * std::log2(std::max(2.0, all_samples)) *
                    c.mp.cpu.compare_cycles));
  }

  // Partition boundaries.
  if (p > 1) {
    a.busy(c.cycles((p - 1) * std::log2(std::max(2.0, c.n_l)) *
                    c.mp.cpu.binary_search_cycles));
  }

  // Redistribution: one contiguous block per pair.
  const double out_bytes = c.n_l * 4 * remote_frac;
  switch (c.spec.model) {
    case Model::kCcSas:
      a.rmem((p - 1) * c.lat_avg +
             out_bytes / c.mp.mem.bulk_copy_bytes_per_ns);
      break;
    case Model::kMpi: {
      const bool staged = c.spec.ablations.mpi_impl == msg::Impl::kStaged;
      const double send_ov = staged ? c.mp.sw.mpi_staged_send_overhead_ns
                                    : c.mp.sw.mpi_send_overhead_ns;
      const double recv_ov = staged ? c.mp.sw.mpi_staged_recv_overhead_ns
                                    : c.mp.sw.mpi_recv_overhead_ns;
      const double copy = staged ? 1.0 / c.mp.sw.copy_bytes_per_ns +
                                       1.0 / c.mp.mem.bulk_copy_bytes_per_ns
                                 : 1.0 / c.mp.mem.bulk_copy_bytes_per_ns;
      a.rmem((p - 1) * (send_ov + recv_ov) + out_bytes * copy);
      break;
    }
    case Model::kShmem:
      a.rmem((p - 1) * (c.mp.sw.shmem_get_overhead_ns +
                        c.mp.mem.dir_occupancy_ns) +
             out_bytes / c.mp.mem.bulk_copy_bytes_per_ns + c.lat_avg);
      break;
    case Model::kCcSasNew:
      throw Error("CC-SAS-NEW is radix-only");
  }

  // Closing barrier/imbalance allowance (received run sizes vary).
  a.sync(0.02 * a.b.total_ns());
}

}  // namespace

Prediction predict(const SortSpec& spec) {
  const Status valid = spec.validate_status();
  if (!valid.ok()) throw Error(valid);
  const Ctx c(spec);
  Acc a;
  if (spec.algo == Algo::kRadix) {
    predict_radix(c, a);
  } else {
    predict_sample(c, a);
  }
  Prediction out;
  out.breakdown = a.b;
  out.total_ns = a.b.total_ns();
  return out;
}

PredictedBest predict_best(Index n, int nprocs,
                           const std::vector<int>& radixes, keys::Dist dist,
                           const std::vector<sort::Algo>& menu) {
  return predict_ranked(n, nprocs, radixes, dist, menu).front();
}

std::vector<PredictedBest> predict_ranked(Index n, int nprocs,
                                          const std::vector<int>& radixes,
                                          keys::Dist dist,
                                          const std::vector<sort::Algo>& menu) {
  DSM_REQUIRE(!radixes.empty(), "need at least one radix candidate");
  std::vector<PredictedBest> ranked;
  for (const auto& ae : sort::kAlgoNames) {
    const Algo a = ae.value;
    if (!menu.empty() &&
        std::find(menu.begin(), menu.end(), a) == menu.end()) {
      continue;
    }
    for (const auto& me : sort::kModelNames) {
      const Model m = me.value;
      if (!sort::algo_supports_model(a, m)) continue;
      // Algorithms that ignore the radix knob get one candidate, not one
      // per radix (MSD's byte recursion is fixed at 8 bits).
      const std::vector<int> rset =
          sort::algo_uses_radix_bits(a) ? radixes : std::vector<int>{8};
      for (const int r : rset) {
        SortSpec spec;
        spec.algo = a;
        spec.model = m;
        spec.nprocs = nprocs;
        spec.n = n;
        spec.radix_bits = r;
        spec.dist = dist;
        ranked.push_back(PredictedBest{a, m, r, predict(spec).total_ns});
      }
    }
  }
  // Stable: equal predictions keep enumeration order, so the ranking is
  // deterministic.
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const PredictedBest& x, const PredictedBest& y) {
                     return x.total_ns < y.total_ns;
                   });
  return ranked;
}

}  // namespace dsm::perf
