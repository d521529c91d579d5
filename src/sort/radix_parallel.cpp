#include "sort/radix_parallel.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "sort/seq_radix.hpp"

namespace dsm::sort {
namespace {

constexpr std::uint64_t kLine = 128;  // Origin L2 line (bytes)

/// Charge of one exclusive prefix over `buckets` counters.
void charge_scan(sim::ProcContext& ctx, std::size_t buckets) {
  ctx.busy_cycles(static_cast<double>(buckets) * ctx.params().cpu.scan_cycles);
}

/// Exclusive prefix of `counts` into `starts` (same size), charged.
void exclusive_prefix(sim::ProcContext& ctx,
                      std::span<const std::uint64_t> counts,
                      std::span<std::uint64_t> starts) {
  std::uint64_t acc = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    starts[b] = acc;
    acc += counts[b];
  }
  charge_scan(ctx, counts.size());
}

/// Charge one rank's derivation of its prefixes from the p x B gathered
/// histograms: every modelled process scans all cells (the host builds the
/// shared HistTable once instead).
void charge_prefix_scan(sim::ProcContext& ctx, std::size_t buckets) {
  const std::uint64_t cells =
      static_cast<std::uint64_t>(ctx.nprocs()) * buckets;
  ctx.busy_cycles(static_cast<double>(cells) * ctx.params().cpu.scan_cycles);
  ctx.stream(cells * sizeof(std::uint64_t), cells * sizeof(std::uint64_t));
}

/// Charge the buffered local permutation of CC-SAS-NEW / MPI / SHMEM: the
/// local prefix, the stable scatter of the rank's `n` keys into a staging
/// buffer of the same size with the recorded run structure, and the
/// buffer copy.
void charge_buffered_permute(sim::ProcContext& ctx, std::uint64_t n,
                             const LsdRecord::RankPass& mine,
                             std::size_t buckets) {
  charge_scan(ctx, buckets);
  charge_permute_pass(ctx, n, mine.runs, mine.active, n);
  ctx.busy_cycles(static_cast<double>(n) *
                  ctx.params().cpu.buffer_copy_cycles);
}

/// Charge of the local maximum sweep over `n` keys (detect_max_key).
void charge_local_max(sim::ProcContext& ctx, std::uint64_t n) {
  ctx.busy_cycles(static_cast<double>(n) * ctx.params().cpu.scan_cycles);
  ctx.stream(n * sizeof(Key), n * sizeof(Key));
}

/// Rank r's recorded input maximum, the value its max collective reduces.
Key recorded_max(const LsdRecord& rec, int r) {
  DSM_REQUIRE(static_cast<std::size_t>(r) < rec.max_of.size(),
              "the record holds no input maxima (detect_max_key was off)");
  return rec.max_of[static_cast<std::size_t>(r)];
}

/// The pass count a charge program derived through its model's
/// collectives must be the one the record executed.
void check_passes(const LsdRecord& rec, int passes) {
  DSM_CHECK(passes == rec.passes,
            "charge program and record disagree on the pass count");
}

/// Split the contiguous destination range [gpos, gpos+count) by owner
/// partition; fn(dst, len) per piece.
template <typename Fn>
void for_each_piece(const sas::HomeMap& homes, std::uint64_t gpos,
                    std::uint64_t count, Fn&& fn) {
  while (count > 0) {
    const int dst = homes.owner_of(gpos);
    const std::uint64_t len = std::min(count, homes.end_of(dst) - gpos);
    fn(dst, len);
    gpos += len;
    count -= len;
  }
}

/// The calling thread's tally_scratch state (all-zero slots between
/// calls), so concurrent record tasks never share one.
TallyScratch& tls_tally_scratch() {
  thread_local TallyScratch scratch;
  return scratch;
}

}  // namespace

HistTable build_hist_table(sim::Blocks<std::uint64_t> hists) {
  const int p = static_cast<int>(hists.size());
  const std::size_t buckets = hists[0].size();
  // Column totals, then their exclusive scan: the global bucket starts.
  std::vector<std::uint64_t> run(buckets, 0);
  for (const std::span<const std::uint64_t> h : hists) {
    for (std::size_t b = 0; b < buckets; ++b) run[b] += h[b];
  }
  std::uint64_t n = 0;
  for (std::uint64_t& r : run) {
    const std::uint64_t c = r;
    r = n;
    n += c;
  }
  HistTable t;
  t.homes = sas::HomeMap(n, p);
  t.buckets = buckets;
  t.starts.resize(static_cast<std::size_t>(p + 1) * buckets);
  const auto stride = static_cast<std::size_t>(p + 1);
  t.before.assign(static_cast<std::size_t>(p) * stride, 0);
  for (int j = 0; j < p; ++j) {
    const auto jj = static_cast<std::size_t>(j);
    std::copy(run.begin(), run.end(), t.starts.data() + jj * buckets);
    // run[b] is now start(j, b): split j's pieces by destination.
    std::uint64_t* before = t.before.data() + jj * stride;
    const std::span<const std::uint64_t> h = hists[jj];
    for (std::size_t b = 0; b < buckets; ++b) {
      if (h[b] != 0) {
        for_each_piece(t.homes, run[b], h[b],
                       [&](int d, std::uint64_t len) {
                         before[d + 1] += len;
                       });
      }
      run[b] += h[b];
    }
    for (int d = 0; d < p; ++d) before[d + 1] += before[d];
  }
  std::copy(run.begin(), run.end(),  // row p: the bucket ends
            t.starts.data() + static_cast<std::size_t>(p) * buckets);
  return t;
}

void tally_scatter(std::span<const Key> keys, int pass, int radix_bits,
                   const sas::HomeMap& homes, int r,
                   std::span<const std::uint64_t> first,
                   std::span<const std::uint64_t> hist,
                   std::span<const std::uint64_t> run_starts,
                   ScatterTally& tally, TallyScratch& scratch) {
  const std::size_t buckets = std::size_t{1} << radix_bits;
  DSM_REQUIRE(first.size() == buckets && hist.size() == buckets &&
                  run_starts.size() == buckets,
              "tally inputs must hold one entry per bucket");
  tally.bytes_to.assign(static_cast<std::size_t>(homes.nprocs()), 0);
  tally.runs_to.assign(static_cast<std::size_t>(homes.nprocs()), 0);
  tally.local_accesses = 0;
  tally.local_runs = 0;
  const auto add_runs = [&](int home, std::uint64_t runs) {
    if (home == r) {
      tally.local_runs += runs;
    } else {
      tally.runs_to[static_cast<std::size_t>(home)] += runs;
    }
  };
  if (scratch.slot.size() < buckets) scratch.slot.resize(buckets, 0);
  scratch.straddling.clear();
  // The slices ascend with the bucket, so the home of each slice's first
  // key only moves forward.
  int home = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::uint64_t count = hist[b];
    if (count == 0) continue;
    while (first[b] >= homes.end_of(home)) ++home;
    for_each_piece(homes, first[b], count,
                   [&](int dst, std::uint64_t len) {
                     if (dst == r) {
                       tally.local_accesses += len;
                     } else {
                       tally.bytes_to[static_cast<std::size_t>(dst)] +=
                           len * sizeof(Key);
                     }
                   });
    if (first[b] + count <= homes.end_of(home)) {
      add_runs(home, run_starts[b]);
    } else {
      scratch.straddling.push_back(TallyScratch::Straddle{
          first[b], homes.end_of(home), b, home});
      scratch.slot[b] = static_cast<std::uint32_t>(scratch.straddling.size());
    }
  }
  if (scratch.straddling.empty()) return;
  // One walk places the run starts of the straddling slices: each such
  // key lands at its slice's next position, whose home only moves forward.
  std::uint32_t prev_digit = ~0u;
  for (const Key k : keys) {
    const std::uint32_t d = radix_digit(k, pass, radix_bits);
    const std::uint32_t slot = scratch.slot[d];
    if (slot != 0) {
      TallyScratch::Straddle& s = scratch.straddling[slot - 1];
      const std::uint64_t pos = s.next_pos++;
      if (d != prev_digit) {
        while (pos >= s.home_end) s.home_end = homes.end_of(++s.home);
        add_runs(s.home, 1);
      }
    }
    prev_digit = d;
  }
  for (const TallyScratch::Straddle& s : scratch.straddling) {
    scratch.slot[s.bucket] = 0;
  }
}

LsdRecord record_lsd(const SortSpec& spec, std::vector<Key> keys,
                     std::vector<keys::Payload> payloads) {
  const int p = spec.nprocs;
  const auto pp = static_cast<std::size_t>(p);
  const int bits = spec.radix_bits;
  const KernelBackend be = spec.kernel_backend;
  const std::size_t buckets = std::size_t{1} << bits;
  const std::size_t n = keys.size();
  const bool paired = !payloads.empty();
  DSM_REQUIRE(n == spec.n, "record input must hold n keys");
  DSM_REQUIRE(!paired || payloads.size() == n,
              "payload lane must mirror the keys");
  LsdRecord rec;
  rec.homes = sas::HomeMap(n, p);
  const sas::HomeMap& homes = rec.homes;
  // Ranks [r0, r1) of `v`.
  const auto ranks = [&](const auto& v, int r0, int r1) {
    return std::span(v).subspan(homes.begin_of(r0),
                                homes.begin_of(r1) - homes.begin_of(r0));
  };
  rec.passes = radix_passes(bits);
  if (spec.ablations.detect_max_key) {
    Key global_max = 0;
    for (int r = 0; r < p; ++r) {
      const std::span<const Key> mine = ranks(keys, r, r + 1);
      rec.max_of.push_back(*std::max_element(mine.begin(), mine.end()));
      global_max = std::max(global_max, rec.max_of.back());
    }
    rec.passes = radix_passes_for_max(bits, global_max);
  }
  // The permute runs in rank-aligned groups of at least a DRAM-bound
  // footprint each, so every group takes the same kernel path the whole
  // array would; smaller groups cost more than they overlap.
  const int groups = static_cast<int>(std::clamp<std::size_t>(
      n / (kWcMinFootprintBytes / sizeof(Key)), 1, pp));

  // Per-rank counts of the pass, [rank * buckets + b].
  const std::size_t cells = pp * buckets;
  std::vector<std::uint64_t> hists(cells), run_starts(cells);
  std::vector<std::span<const std::uint64_t>> blocks;
  for (int r = 0; r < p; ++r) {
    blocks.emplace_back(hists.data() + static_cast<std::size_t>(r) * buckets,
                        buckets);
  }
  std::vector<Key> tmp(n);
  std::vector<keys::Payload> pay_tmp(payloads.size());
  rec.pass.resize(static_cast<std::size_t>(rec.passes));
  for (int pass = 0; pass < rec.passes; ++pass) {
    if (spec.hooks.cancel != nullptr && spec.hooks.cancel->cancelled()) {
      throw Error(Status::cancelled("sort cancelled while recording pass " +
                                    std::to_string(pass)));
    }
    LsdRecord::Pass& rp = rec.pass[static_cast<std::size_t>(pass)];
    rp.ranks.resize(pp);
    record_tasks(pp, [&](std::size_t r) {
      const std::size_t off = r * buckets;
      LsdRecord::RankPass& mine = rp.ranks[r];
      const std::span<std::uint64_t> starts(run_starts.data() + off, buckets);
      const ThreadWorkspace ws(spec.kernel_jobs);
      mine.active = histogram_runs_kernel(
          be, ranks(keys, static_cast<int>(r), static_cast<int>(r) + 1), pass,
          bits, std::span<std::uint64_t>(hists.data() + off, buckets), starts,
          ws.get());
      for (const std::uint64_t st : starts) mine.runs += st;
    });
    rp.table = build_hist_table(sim::Blocks<std::uint64_t>(blocks));
    record_tasks(pp, [&](std::size_t r) {
      const std::size_t off = r * buckets;
      const int rank = static_cast<int>(r);
      tally_scatter(ranks(keys, rank, rank + 1), pass, bits, homes, rank,
                    std::span<const std::uint64_t>(rp.table.starts)
                        .subspan(off, buckets),
                    blocks[r],
                    std::span<const std::uint64_t>(run_starts)
                        .subspan(off, buckets),
                    rp.ranks[r].tally, tls_tally_scratch());
    });
    // Within a bucket the ranks' keys land in rank order, so a stable
    // scatter of ranks [r0, r1) from their first row, start(r0, .),
    // fills exactly [start(r0, b), start(r1, b)) of every bucket b: the
    // groups write disjoint ranges, and together they place every rank's
    // keys where its model's route does.
    record_tasks(static_cast<std::size_t>(groups), [&](std::size_t g) {
      const int r0 = static_cast<int>(g * pp / static_cast<std::size_t>(groups));
      const int r1 =
          static_cast<int>((g + 1) * pp / static_cast<std::size_t>(groups));
      const ThreadWorkspace tw(spec.kernel_jobs);
      RadixWorkspace& ws = tw.get();
      ws.prepare(bits);
      const std::span<std::uint64_t> cursor(ws.hist.data(), buckets);
      std::uint64_t active = 0;
      for (std::size_t b = 0; b < buckets; ++b) {
        cursor[b] = rp.table.start(r0, b);
        if (rp.table.start(r1, b) != cursor[b]) ++active;
      }
      if (paired) ws.pay_cursor.assign(cursor.begin(), cursor.end());
      const std::span<const Key> in = ranks(keys, r0, r1);
      (void)permute_kernel(be, in, tmp, pass, bits, cursor, active, ws);
      if (paired) {
        payload_mirror_scatter(in, ranks(payloads, r0, r1), pay_tmp, pass,
                               bits, ws.pay_cursor);
      }
    });
    keys.swap(tmp);
    if (paired) payloads.swap(pay_tmp);
  }
  rec.keys = std::move(keys);
  rec.payloads = std::move(payloads);
  return rec;
}

void radix_ccsas(sim::ProcContext& ctx, const CcSasRadixWorld& w) {
  DSM_REQUIRE(w.scan != nullptr, "CC-SAS radix world is incomplete");
  const LsdRecord& rec = w.rec;
  const int p = ctx.nprocs();
  const int r = ctx.rank();
  const int bits = w.spec.radix_bits;
  const bool buffered = w.spec.model == Model::kCcSasNew;
  const std::size_t buckets = std::size_t{1} << bits;
  DSM_REQUIRE(w.scan->buckets() == buckets, "BucketScan bucket mismatch");
  const sas::HomeMap& homes = rec.homes;
  const std::uint64_t n_local = homes.count_of(r);
  int passes = radix_passes(bits);
  if (w.spec.ablations.detect_max_key) {
    charge_local_max(ctx, n_local);
    const auto global_max = static_cast<Key>(
        sas::ccsas_max_reduce(ctx, recorded_max(rec, r)));
    passes = radix_passes_for_max(bits, global_max);
  }
  check_passes(rec, passes);
  const std::uint64_t part_bytes = n_local * sizeof(Key);

  // All per-pass scratch is hoisted here, so a pass allocates nothing.
  std::vector<std::uint64_t> hist(buckets), rank_prefix(buckets),
      global_cnt(buckets), global_start(buckets);
  std::vector<std::uint64_t> lines_to(static_cast<std::size_t>(p));
  std::vector<sim::ScatteredTraffic> traffic;
  traffic.reserve(static_cast<std::size_t>(p));

  for (int pass = 0; pass < passes; ++pass) {
    const LsdRecord::Pass& rp = rec.pass[static_cast<std::size_t>(pass)];
    const LsdRecord::RankPass& mine = rp.ranks[static_cast<std::size_t>(r)];
    ctx.phase("local histogram");
    rp.table.counts_of(r, hist);
    charge_histogram_pass(ctx, n_local, buckets);
    ctx.phase("global histogram");
    w.scan->scan(ctx, hist, rank_prefix, global_cnt);
    exclusive_prefix(ctx, global_cnt, global_start);
    ctx.phase("permutation");

    if (!buffered) {
      // Original SPLASH-2 style: write each key straight to its global
      // position — temporally scattered remote writes, charged from the
      // recorded per-home tallies. The scan derives the write cursors.
      charge_scan(ctx, buckets);
      const double permute_start_ns = ctx.clock().now_ns();
      const ScatterTally& tally = mine.tally;
      ctx.busy_cycles(static_cast<double>(n_local) *
                      ctx.params().cpu.permute_cycles);
      ctx.stream(n_local * sizeof(Key), part_bytes);
      if (tally.local_accesses > 0) {
        machine::AccessPattern ap;
        ap.accesses = tally.local_accesses;
        ap.elem_bytes = sizeof(Key);
        ap.runs = std::max<std::uint64_t>(1, tally.local_runs);
        ap.active_regions = std::max<std::uint64_t>(1, mine.active);
        ap.footprint_bytes = part_bytes;
        ctx.scattered(ap);
      }
      std::uint64_t remote_bytes = 0;
      for (int h = 0; h < p; ++h) {
        remote_bytes += tally.bytes_to[static_cast<std::size_t>(h)];
      }
      const auto profile = ctx.cost().scattered_write_profile(remote_bytes);
      traffic.clear();
      for (int h = 0; h < p; ++h) {
        const auto hh = static_cast<std::size_t>(h);
        const std::uint64_t bytes = tally.bytes_to[hh];
        if (bytes == 0) continue;
        sim::ScatteredTraffic t;
        t.writer = r;
        t.home = h;
        // Fine-grained interleaving re-fetches a line on almost every run
        // switch; contiguous tails within a run transfer at line grain.
        t.lines = std::max<std::uint64_t>(
            std::max<std::uint64_t>(1, tally.runs_to[hh]),
            ceil_div(bytes, kLine));
        t.per_line_ns = profile.per_line_ns;
        t.transactions =
            static_cast<double>(t.lines) * profile.transactions_per_line;
        traffic.push_back(t);
      }
      // The stores overlap the permutation computation charged above.
      const double overlap = ctx.clock().now_ns() - permute_start_ns;
      ctx.team().scattered_write_epoch(ctx, traffic, overlap);
    } else {
      // CC-SAS-NEW (§4.2.1): buffer locally, then copy contiguous chunks.
      const double permute_start_ns = ctx.clock().now_ns();
      charge_buffered_permute(ctx, n_local, mine, buckets);
      std::fill(lines_to.begin(), lines_to.end(), 0);
      std::uint64_t local_bytes = 0;
      for (std::size_t b = 0; b < buckets; ++b) {
        if (hist[b] == 0) continue;
        for_each_piece(homes, global_start[b] + rank_prefix[b], hist[b],
                       [&](int dst, std::uint64_t len) {
                         if (dst == r) {
                           local_bytes += len * sizeof(Key);
                         } else {
                           lines_to[static_cast<std::size_t>(dst)] +=
                               ceil_div(len * sizeof(Key), kLine);
                         }
                       });
      }
      if (local_bytes > 0) ctx.stream(2 * local_bytes, part_bytes);
      // The copy-out re-reads the staging buffer for the remote chunks.
      std::uint64_t remote_lines = 0;
      for (const std::uint64_t l : lines_to) remote_lines += l;
      if (remote_lines > 0) ctx.stream(remote_lines * kLine, 2 * part_bytes);
      traffic.clear();
      for (int h = 0; h < p; ++h) {
        const auto hh = static_cast<std::size_t>(h);
        if (lines_to[hh] == 0) continue;
        sim::ScatteredTraffic t;
        t.writer = r;
        t.home = h;
        t.lines = lines_to[hh];
        t.per_line_ns = ctx.params().mem.ccsas_block_line_ns;
        // One pipelined RdEx per line.
        t.transactions = static_cast<double>(lines_to[hh]);
        traffic.push_back(t);
      }
      const double overlap = ctx.clock().now_ns() - permute_start_ns;
      ctx.team().scattered_write_epoch(ctx, traffic, overlap);
    }

    ctx.phase("barrier");
    sas::ccsas_barrier(ctx);
  }
}

void radix_mpi(sim::ProcContext& ctx, const MpiRadixWorld& w) {
  DSM_REQUIRE(w.comm != nullptr, "MPI radix world is incomplete");
  const LsdRecord& rec = w.rec;
  const int p = ctx.nprocs();
  const int r = ctx.rank();
  const int bits = w.spec.radix_bits;
  const bool chunk_messages = w.spec.ablations.mpi_chunk_messages;
  const std::size_t buckets = std::size_t{1} << bits;
  const sas::HomeMap& homes = rec.homes;
  const std::uint64_t n_local = homes.count_of(r);
  const std::uint64_t part_bytes = n_local * sizeof(Key);
  int passes = radix_passes(bits);
  if (w.spec.ablations.detect_max_key) {
    charge_local_max(ctx, n_local);
    const Key global_max =
        w.comm->allreduce_max<Key>(ctx, recorded_max(rec, r));
    passes = radix_passes_for_max(bits, global_max);
  }
  check_passes(rec, passes);

  std::vector<std::uint64_t> hist(buckets);
  std::vector<msg::Communicator::Send> sends;
  for (int pass = 0; pass < passes; ++pass) {
    const LsdRecord::Pass& rp = rec.pass[static_cast<std::size_t>(pass)];
    ctx.phase("local histogram");
    rp.table.counts_of(r, hist);
    charge_histogram_pass(ctx, n_local, buckets);
    ctx.phase("global histogram");
    const HistTable& table =
        **w.comm->allgather_reduce<std::uint64_t, const HistTable*>(
            ctx, hist,
            [&rp](sim::Blocks<std::uint64_t>) { return &rp.table; });
    charge_prefix_scan(ctx, buckets);
    ctx.phase("permutation");
    charge_buffered_permute(ctx, n_local,
                            rp.ranks[static_cast<std::size_t>(r)], buckets);
    ctx.phase("redistribution");

    sends.clear();
    if (chunk_messages) {
      // One message per contiguously-destined chunk piece (the paper's
      // preferred implementation) — placed directly at its final offset.
      for (std::size_t b = 0; b < buckets; ++b) {
        if (hist[b] == 0) continue;
        for_each_piece(homes, table.start(r, b), hist[b],
                       [&](int dst, std::uint64_t len) {
                         if (dst == r) {
                           ctx.stream(2 * len * sizeof(Key), part_bytes);
                         } else {
                           sends.push_back(msg::Communicator::Send{
                               dst, 0, nullptr, len * sizeof(Key)});
                         }
                       });
      }
      w.comm->charge_exchange(ctx, sends);
    } else {
      // NAS-IS style ablation: one coalesced message per destination; the
      // receiver reorganises pieces into place afterwards. A destination's
      // pieces are contiguous in the bucket-major staging buffer (global
      // positions ascend with the bucket), so the sender needs no extra
      // copy — the cost moves to the receiver-side scatter.
      //
      // The modelled process builds M[i][dst] (keys process i contributes
      // to dst's partition) in O(p * buckets) from the gathered counts;
      // the shared table holds it as keys_to(i, dst).
      ctx.busy_cycles(static_cast<double>(static_cast<std::size_t>(p) *
                                          buckets) *
                      ctx.params().cpu.scan_cycles);
      for (int dst = 0; dst < p; ++dst) {
        const std::uint64_t len = table.keys_to(r, dst);
        if (len == 0) continue;
        if (dst != r) {
          sends.push_back(
              msg::Communicator::Send{dst, 0, nullptr, len * sizeof(Key)});
        } else {
          ctx.stream(2 * len * sizeof(Key), part_bytes);
        }
      }
      w.comm->charge_exchange(ctx, sends);

      // Receiver-side reorganisation: scatter pieces from the (by-source,
      // by-bucket ordered) staging area to their final positions.
      std::uint64_t pieces = 0;
      for_each_inbound_piece(
          table, r,
          [&](int, std::size_t, std::uint64_t, std::uint64_t) { ++pieces; });
      ctx.busy_cycles(static_cast<double>(n_local) *
                      ctx.params().cpu.buffer_copy_cycles);
      ctx.stream(n_local * sizeof(Key), part_bytes);  // staging read
      if (n_local > 0) {
        machine::AccessPattern ap;
        ap.accesses = n_local;
        ap.elem_bytes = sizeof(Key);
        ap.runs = std::max<std::uint64_t>(1, pieces);
        ap.active_regions = std::max<std::uint64_t>(1, pieces);
        ap.footprint_bytes = part_bytes;
        ctx.scattered(ap);
      }
    }
  }
  // An odd pass count copies the partition back into the input array.
  if (passes % 2 != 0) ctx.stream(2 * part_bytes, 2 * part_bytes);
}

void radix_shmem(sim::ProcContext& ctx, const ShmemRadixWorld& w) {
  DSM_REQUIRE(w.sh != nullptr, "SHMEM radix world is incomplete");
  const LsdRecord& rec = w.rec;
  const int p = ctx.nprocs();
  const int r = ctx.rank();
  const int bits = w.spec.radix_bits;
  const std::size_t buckets = std::size_t{1} << bits;
  const sas::HomeMap& homes = rec.homes;
  const std::uint64_t n_local = homes.count_of(r);
  const std::uint64_t part_bytes = n_local * sizeof(Key);
  int passes = radix_passes(bits);
  if (w.spec.ablations.detect_max_key) {
    charge_local_max(ctx, n_local);
    const Key global_max = w.sh->max_to_all<Key>(ctx, recorded_max(rec, r));
    passes = radix_passes_for_max(bits, global_max);
  }
  check_passes(rec, passes);

  std::vector<std::uint64_t> hist(buckets);
  std::vector<shmem::GetOp> gets;
  std::vector<shmem::PutOp> puts;
  bool cold_input = false;
  for (int pass = 0; pass < passes; ++pass) {
    const LsdRecord::Pass& rp = rec.pass[static_cast<std::size_t>(pass)];
    if (cold_input) {
      // Put-based delivery (ablation) leaves the keys in memory, not in
      // this PE's cache: charge the cold re-fetch a get would have hidden.
      const double extra =
          ctx.cost().stream_ns(part_bytes, ctx.params().l2.bytes * 2) -
          ctx.cost().stream_ns(part_bytes, part_bytes);
      if (extra > 0) ctx.clock().charge(sim::Cat::kLMem, extra);
      cold_input = false;
    }
    ctx.phase("local histogram");
    rp.table.counts_of(r, hist);
    charge_histogram_pass(ctx, n_local, buckets);
    ctx.phase("global histogram");
    const HistTable& table =
        **w.sh->fcollect_reduce<std::uint64_t, const HistTable*>(
            ctx, hist,
            [&rp](sim::Blocks<std::uint64_t>) { return &rp.table; });
    charge_prefix_scan(ctx, buckets);

    ctx.phase("permutation");
    charge_buffered_permute(ctx, n_local,
                            rp.ranks[static_cast<std::size_t>(r)], buckets);
    ctx.phase("redistribution");
    w.sh->barrier_all(ctx);  // staging buffers are now globally readable

    if (!w.spec.ablations.shmem_use_put) {
      // Receiver-initiated: fetch every chunk piece that lands in my
      // partition from its source PE's staging buffer.
      gets.clear();
      for_each_inbound_piece(
          table, r,
          [&](int j, std::size_t, std::uint64_t lo, std::uint64_t hi) {
            if (j == r) {
              ctx.stream(2 * (hi - lo) * sizeof(Key), part_bytes);
            } else {
              gets.push_back(
                  shmem::GetOp{nullptr, j, 0, (hi - lo) * sizeof(Key)});
            }
          });
      // The modelled PE computes the get parameters in one sweep over the
      // p x B histogram matrix.
      ctx.busy_cycles(static_cast<double>(static_cast<std::size_t>(p) *
                                          buckets) *
                      ctx.params().cpu.scan_cycles);
      w.sh->charge_get_phase(ctx, gets);
    } else {
      // Sender-initiated ablation: push my chunks into their destinations.
      puts.clear();
      for (std::size_t b = 0; b < buckets; ++b) {
        if (hist[b] == 0) continue;
        for_each_piece(homes, table.start(r, b), hist[b],
                       [&](int dst, std::uint64_t len) {
                         if (dst == r) {
                           ctx.stream(2 * len * sizeof(Key), part_bytes);
                         } else {
                           puts.push_back(shmem::PutOp{nullptr, dst, 0,
                                                       len * sizeof(Key)});
                         }
                       });
      }
      w.sh->charge_put_phase(ctx, puts);
      cold_input = true;
    }
    w.sh->barrier_all(ctx);
  }
  // An odd pass count copies the partition back into the input array.
  if (passes % 2 != 0) ctx.stream(2 * part_bytes, 2 * part_bytes);
}

}  // namespace dsm::sort
