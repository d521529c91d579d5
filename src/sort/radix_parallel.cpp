#include "sort/radix_parallel.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "sort/seq_radix.hpp"

namespace dsm::sort {
namespace {

constexpr std::uint64_t kLine = 128;  // Origin L2 line (bytes)

/// Exclusive prefix of `counts` into `starts` (same size), charged.
void exclusive_prefix(sim::ProcContext& ctx,
                      std::span<const std::uint64_t> counts,
                      std::span<std::uint64_t> starts) {
  std::uint64_t acc = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    starts[b] = acc;
    acc += counts[b];
  }
  ctx.busy_cycles(static_cast<double>(counts.size()) *
                  ctx.params().cpu.scan_cycles);
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

/// Buffered local permutation: scatter `keys` into `buf` in bucket-major
/// order (the local staging step of CC-SAS-NEW / MPI / SHMEM). On return
/// `local_prefix[b]` is the start of bucket b's chunk within buf. Charged
/// with the measured run structure; the backend only changes how the host
/// executes the scatter.
void buffered_permute(sim::ProcContext& ctx, std::span<const Key> keys,
                      std::span<Key> buf, int pass, int radix_bits,
                      std::span<const std::uint64_t> local_hist,
                      std::span<std::uint64_t> local_prefix,
                      std::span<std::uint64_t> cursor, std::uint64_t active,
                      KernelBackend be, RadixWorkspace& ws) {
  exclusive_prefix(ctx, local_hist, local_prefix);
  std::copy(local_prefix.begin(), local_prefix.end(), cursor.begin());
  charged_local_permute(ctx, keys, buf, pass, radix_bits, cursor, active, be,
                        ws);
  ctx.busy_cycles(static_cast<double>(keys.size()) *
                  ctx.params().cpu.buffer_copy_cycles);
}

/// Split the contiguous destination range [gpos, gpos+count) by owner
/// partition; fn(dst, gpos_piece, offset_within_chunk, len).
template <typename Fn>
void for_each_piece(const sas::HomeMap& homes, std::uint64_t gpos,
                    std::uint64_t count, Fn&& fn) {
  std::uint64_t off = 0;
  while (count > 0) {
    const int dst = homes.owner_of(gpos);
    const std::uint64_t len = std::min(count, homes.end_of(dst) - gpos);
    fn(dst, gpos, off, len);
    gpos += len;
    off += len;
    count -= len;
  }
}

/// The kv32 payload step of one radix pass, the same under every model
/// (DESIGN.md §11). Whatever route the keys take — direct remote writes,
/// staged block copies, chunked or coalesced messages, gets or puts — rank
/// r's k-th bucket-b key lands at global position first(b) + k. So one
/// uncharged stable scatter of r's range of the global input lane onto the
/// global output lane replays it. `cursor` holds one slot per bucket (empty
/// for u32, whose lanes are empty).
template <typename First>
void move_payloads(std::span<const Key> keys,
                   std::span<const keys::Payload> pay_in,
                   std::span<keys::Payload> pay_out, std::uint64_t begin,
                   int pass, int radix_bits, std::span<std::uint64_t> cursor,
                   First&& first) {
  if (pay_in.empty()) return;
  for (std::size_t b = 0; b < cursor.size(); ++b) cursor[b] = first(b);
  payload_mirror_scatter(keys, pay_in.subspan(begin, keys.size()), pay_out,
                         pass, radix_bits, cursor);
}

/// The payload half of an odd pass count's copy-back: rank r's range of
/// the last-written lane `from` back into `to`.
void copy_back_payloads(std::span<const keys::Payload> from,
                        std::span<keys::Payload> to, const sas::HomeMap& homes,
                        int r) {
  if (from.empty()) return;
  std::copy_n(from.begin() + static_cast<std::ptrdiff_t>(homes.begin_of(r)),
              homes.count_of(r),
              to.begin() + static_cast<std::ptrdiff_t>(homes.begin_of(r)));
}

/// Local max of a key span, charged as one sweep.
Key charged_local_max(sim::ProcContext& ctx, std::span<const Key> keys) {
  Key mx = 0;
  for (const Key k : keys) mx = std::max(mx, k);
  ctx.busy_cycles(static_cast<double>(keys.size()) *
                  ctx.params().cpu.scan_cycles);
  ctx.stream(keys.size() * sizeof(Key), keys.size() * sizeof(Key));
  return mx;
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
                       [&](int d, std::uint64_t, std::uint64_t,
                           std::uint64_t len) { before[d + 1] += len; });
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
                   ScatterTally& tally) {
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
  if (tally.slot.size() < buckets) tally.slot.resize(buckets, 0);
  tally.straddling.clear();
  // The slices ascend with the bucket, so the home of each slice's first
  // key only moves forward.
  int home = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::uint64_t count = hist[b];
    if (count == 0) continue;
    while (first[b] >= homes.end_of(home)) ++home;
    for_each_piece(homes, first[b], count,
                   [&](int dst, std::uint64_t, std::uint64_t,
                       std::uint64_t len) {
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
      tally.straddling.push_back(ScatterTally::Straddle{
          first[b], homes.end_of(home), b, home});
      tally.slot[b] = static_cast<std::uint32_t>(tally.straddling.size());
    }
  }
  if (tally.straddling.empty()) return;
  // One walk places the run starts of the straddling slices: each such
  // key lands at its slice's next position, whose home only moves forward.
  std::uint32_t prev_digit = ~0u;
  for (const Key k : keys) {
    const std::uint32_t d = radix_digit(k, pass, radix_bits);
    const std::uint32_t slot = tally.slot[d];
    if (slot != 0) {
      ScatterTally::Straddle& s = tally.straddling[slot - 1];
      const std::uint64_t pos = s.next_pos++;
      if (d != prev_digit) {
        while (pos >= s.home_end) s.home_end = homes.end_of(++s.home);
        add_runs(s.home, 1);
      }
    }
    prev_digit = d;
  }
  for (const ScatterTally::Straddle& s : tally.straddling) {
    tally.slot[s.bucket] = 0;
  }
}

void radix_ccsas(sim::ProcContext& ctx, CcSasRadixWorld& w) {
  DSM_REQUIRE(w.a != nullptr && w.b != nullptr && w.scan != nullptr,
              "CC-SAS radix world is incomplete");
  DSM_REQUIRE(w.a->size() == w.b->size(), "toggle arrays must match");
  const bool paired = !w.pay_a.empty();
  DSM_REQUIRE(!paired || (w.pay_a.size() == w.a->size() &&
                          w.pay_b.size() == w.b->size()),
              "payload lanes must mirror both toggle arrays");
  const int p = ctx.nprocs();
  const int r = ctx.rank();
  const int bits = w.spec.radix_bits;
  const KernelBackend be = w.spec.kernel_backend;
  const bool buffered = w.spec.model == Model::kCcSasNew;
  const std::size_t buckets = std::size_t{1} << bits;
  DSM_REQUIRE(w.scan->buckets() == buckets, "BucketScan bucket mismatch");
  const sas::HomeMap& homes = w.a->homes();
  int passes = radix_passes(bits);
  if (w.spec.ablations.detect_max_key) {
    const Key local_max = charged_local_max(ctx, w.a->partition(r));
    const auto global_max =
        static_cast<Key>(sas::ccsas_max_reduce(ctx, local_max));
    passes = radix_passes_for_max(bits, global_max);
  }
  w.passes_used.store(passes, std::memory_order_relaxed);
  const std::uint64_t part_bytes = homes.count_of(r) * sizeof(Key);

  // All per-pass scratch is hoisted here and re-zeroed in the loop, so a
  // pass allocates nothing.
  std::vector<std::uint64_t> hist(buckets), rank_prefix(buckets),
      global_cnt(buckets), global_start(buckets), cursor(buckets),
      local_prefix(buckets);
  std::vector<std::uint64_t> run_starts(buffered ? 0 : buckets);
  ScatterTally tally;
  std::vector<std::uint64_t> lines_to(static_cast<std::size_t>(p));
  std::vector<sim::ScatteredTraffic> traffic;
  traffic.reserve(static_cast<std::size_t>(p));
  std::vector<Key> buf(buffered ? homes.count_of(r) : 0);
  RadixWorkspace ws;  // hoisted kernel scratch, reused across passes
  ws.jobs = w.spec.kernel_jobs;
  std::vector<std::uint64_t> mirror(paired ? buckets : 0);  // payload cursor

  sas::SharedArray<Key>* in = w.a;
  sas::SharedArray<Key>* out = w.b;
  std::span<keys::Payload> pay_in = w.pay_a;
  std::span<keys::Payload> pay_out = w.pay_b;
  for (int pass = 0; pass < passes; ++pass) {
    const std::span<const Key> my_keys = in->partition(r);
    ctx.phase("local histogram");
    const std::uint64_t active = charged_histogram(
        ctx, my_keys, pass, bits, hist, be, ws,
        buffered ? std::span<std::uint64_t>{} : std::span(run_starts));
    ctx.phase("global histogram");
    w.scan->scan(ctx, hist, rank_prefix, global_cnt);
    exclusive_prefix(ctx, global_cnt, global_start);
    ctx.phase("permutation");
    // The pass-closing barrier orders these lane writes before every
    // rank's next-pass reads.
    move_payloads(my_keys, pay_in, pay_out, homes.begin_of(r), pass, bits,
                  mirror, [&](std::size_t b) {
                    return global_start[b] + rank_prefix[b];
                  });

    if (!buffered) {
      // Original SPLASH-2 style: write each key straight to its global
      // position — temporally scattered remote writes. The keys move
      // through the shared stable permute; the per-home tallies the stores
      // are charged from come from the histogram sweep (tally_scatter).
      for (std::size_t b = 0; b < buckets; ++b) {
        cursor[b] = global_start[b] + rank_prefix[b];
      }
      ctx.busy_cycles(static_cast<double>(buckets) *
                      ctx.params().cpu.scan_cycles);
      const double permute_start_ns = ctx.clock().now_ns();
      tally_scatter(my_keys, pass, bits, homes, r, cursor, hist, run_starts,
                    tally);
      (void)permute_kernel(be, my_keys, out->all(), pass, bits, cursor,
                           active, ws);
      ctx.busy_cycles(static_cast<double>(my_keys.size()) *
                      ctx.params().cpu.permute_cycles);
      ctx.stream(my_keys.size() * sizeof(Key), part_bytes);
      if (tally.local_accesses > 0) {
        machine::AccessPattern ap;
        ap.accesses = tally.local_accesses;
        ap.elem_bytes = sizeof(Key);
        ap.runs = std::max<std::uint64_t>(1, tally.local_runs);
        ap.active_regions = std::max<std::uint64_t>(1, active);
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
      buffered_permute(ctx, my_keys, buf, pass, bits, hist, local_prefix,
                       cursor, active, be, ws);
      Key* const out_data = out->data();
      std::fill(lines_to.begin(), lines_to.end(), 0);
      std::uint64_t local_bytes = 0;
      for (std::size_t b = 0; b < buckets; ++b) {
        if (hist[b] == 0) continue;
        const std::uint64_t gpos = global_start[b] + rank_prefix[b];
        for_each_piece(homes, gpos, hist[b],
                       [&](int dst, std::uint64_t gp, std::uint64_t off,
                           std::uint64_t len) {
                         exchange_copy(be, out_data + gp,
                                       buf.data() + local_prefix[b] + off,
                                       len, part_bytes);
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
    std::swap(in, out);
    std::swap(pay_in, pay_out);
  }
}

void radix_mpi(sim::ProcContext& ctx, MpiRadixWorld& w) {
  DSM_REQUIRE(w.comm != nullptr && w.parts_a != nullptr && w.parts_b != nullptr,
              "MPI radix world is incomplete");
  const int p = ctx.nprocs();
  const int r = ctx.rank();
  const int bits = w.spec.radix_bits;
  const KernelBackend be = w.spec.kernel_backend;
  const bool chunk_messages = w.spec.ablations.mpi_chunk_messages;
  const std::size_t buckets = std::size_t{1} << bits;
  const sas::HomeMap homes(w.spec.n, p);
  const auto rr = static_cast<std::size_t>(r);
  DSM_REQUIRE((*w.parts_a)[rr].size() == homes.count_of(r) &&
                  (*w.parts_b)[rr].size() == homes.count_of(r),
              "partition sizes must follow the block HomeMap");
  const Index n_local = homes.count_of(r);
  const std::uint64_t part_bytes = n_local * sizeof(Key);

  std::vector<std::uint64_t> hist(buckets), local_prefix(buckets),
      cursor(buckets);
  std::vector<msg::Communicator::Send> sends;
  std::vector<Key> buf(n_local);
  RadixWorkspace ws;  // hoisted kernel scratch, reused across passes
  ws.jobs = w.spec.kernel_jobs;
  std::vector<Key> stage;  // coalesced-mode receive staging
  if (!chunk_messages) stage.resize(n_local);
  std::vector<std::uint64_t> mirror(w.pay_a.empty() ? 0 : buckets);
  std::span<keys::Payload> pay_in = w.pay_a;
  std::span<keys::Payload> pay_out = w.pay_b;

  std::vector<Key>* in = &(*w.parts_a)[rr];
  std::vector<Key>* out = &(*w.parts_b)[rr];
  int passes = radix_passes(bits);
  if (w.spec.ablations.detect_max_key) {
    const Key local_max = charged_local_max(ctx, *in);
    const Key global_max = w.comm->allreduce_max<Key>(ctx, local_max);
    passes = radix_passes_for_max(bits, global_max);
  }
  w.passes_used.store(passes, std::memory_order_relaxed);
  for (int pass = 0; pass < passes; ++pass) {
    ctx.phase("local histogram");
    const std::uint64_t active =
        charged_histogram(ctx, *in, pass, bits, hist, be, ws);
    ctx.phase("global histogram");
    const auto table = w.comm->allgather_reduce<std::uint64_t, HistTable>(
        ctx, hist, build_hist_table);
    charge_prefix_scan(ctx, buckets);
    ctx.phase("permutation");
    buffered_permute(ctx, *in, buf, pass, bits, hist, local_prefix, cursor,
                     active, be, ws);
    // The exchange below is collective: it orders these lane writes before
    // every rank's next-pass reads.
    move_payloads(*in, pay_in, pay_out, homes.begin_of(r), pass, bits, mirror,
                  [&](std::size_t b) { return table->start(r, b); });
    ctx.phase("redistribution");

    sends.clear();
    if (chunk_messages) {
      // One message per contiguously-destined chunk piece (the paper's
      // preferred implementation) — placed directly at its final offset.
      for (std::size_t b = 0; b < buckets; ++b) {
        if (hist[b] == 0) continue;
        for_each_piece(
            homes, table->start(r, b), hist[b],
            [&](int dst, std::uint64_t gp, std::uint64_t off,
                std::uint64_t len) {
              const Key* src = buf.data() + local_prefix[b] + off;
              if (dst == r) {
                exchange_copy(be, out->data() + (gp - homes.begin_of(r)),
                              src, len, part_bytes);
                ctx.stream(2 * len * sizeof(Key), part_bytes);
                return;
              }
              sends.push_back(msg::Communicator::Send{
                  dst, (gp - homes.begin_of(dst)) * sizeof(Key),
                  reinterpret_cast<const std::byte*>(src), len * sizeof(Key)});
            });
      }
      w.comm->exchange(ctx, sends,
                       std::as_writable_bytes(std::span<Key>(*out)));
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

      // My blob for dst starts where my pieces to lower dsts end.
      std::uint64_t my_buf_off = 0;
      for (int dst = 0; dst < p; ++dst) {
        const std::uint64_t len = table->keys_to(r, dst);
        if (len == 0) continue;
        std::uint64_t stage_off = 0;  // dst's staging offset for my blob
        for (int i = 0; i < r; ++i) stage_off += table->keys_to(i, dst);
        if (dst != r) {
          sends.push_back(msg::Communicator::Send{
              dst, stage_off * sizeof(Key),
              reinterpret_cast<const std::byte*>(buf.data() + my_buf_off),
              len * sizeof(Key)});
        } else {
          exchange_copy(be, stage.data() + stage_off,
                        buf.data() + my_buf_off, len, part_bytes);
          ctx.stream(2 * len * sizeof(Key), part_bytes);
        }
        my_buf_off += len;
      }
      w.comm->exchange(ctx, sends,
                       std::as_writable_bytes(std::span<Key>(stage)));

      // Receiver-side reorganisation: scatter pieces from the (by-source,
      // by-bucket ordered) staging area to their final positions.
      const std::uint64_t my_begin = homes.begin_of(r);
      std::uint64_t stage_pos = 0;
      std::uint64_t pieces = 0;
      for_each_inbound_piece(
          *table, r,
          [&](int, std::size_t, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t) {
            exchange_copy(be, out->data() + (lo - my_begin),
                          stage.data() + stage_pos, hi - lo, part_bytes);
            stage_pos += hi - lo;
            ++pieces;
          });
      DSM_CHECK(stage_pos == n_local, "coalesced staging must refill the partition");
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

    std::swap(in, out);
    std::swap(pay_in, pay_out);
  }
  if (passes % 2 != 0) {
    exchange_copy(be, out->data(), in->data(), n_local, part_bytes);
    copy_back_payloads(pay_in, pay_out, homes, r);
    std::swap(in, out);
    ctx.stream(2 * part_bytes, 2 * part_bytes);
  }
}

void radix_shmem(sim::ProcContext& ctx, ShmemRadixWorld& w) {
  DSM_REQUIRE(w.sh != nullptr, "SHMEM radix world is incomplete");
  const int p = ctx.nprocs();
  const int r = ctx.rank();
  const int bits = w.spec.radix_bits;
  const KernelBackend be = w.spec.kernel_backend;
  const std::size_t buckets = std::size_t{1} << bits;
  const sas::HomeMap homes(w.spec.n, p);
  const Index n_local = homes.count_of(r);
  DSM_REQUIRE(n_local <= w.part_capacity, "partition exceeds capacity");
  const std::uint64_t part_bytes = n_local * sizeof(Key);
  shmem::SymmetricHeap& heap = w.sh->heap();

  std::vector<std::uint64_t> hist(buckets), local_prefix(buckets),
      cursor(buckets);
  std::vector<shmem::GetOp> gets;
  std::vector<shmem::PutOp> puts;
  RadixWorkspace ws;  // hoisted kernel scratch, reused across passes
  ws.jobs = w.spec.kernel_jobs;
  std::vector<std::uint64_t> mirror(w.pay_a.empty() ? 0 : buckets);
  std::span<keys::Payload> pay_in = w.pay_a;
  std::span<keys::Payload> pay_out = w.pay_b;

  std::uint64_t in_off = w.off_a;
  std::uint64_t out_off = w.off_b;
  int passes = radix_passes(bits);
  if (w.spec.ablations.detect_max_key) {
    const Key local_max = charged_local_max(
        ctx, std::span<const Key>(heap.at<Key>(r, in_off), n_local));
    const Key global_max = w.sh->max_to_all<Key>(ctx, local_max);
    passes = radix_passes_for_max(bits, global_max);
  }
  w.passes_used.store(passes, std::memory_order_relaxed);
  bool cold_input = false;
  for (int pass = 0; pass < passes; ++pass) {
    Key* const in = heap.at<Key>(r, in_off);
    const std::span<const Key> my_keys(in, n_local);
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
    const std::uint64_t active =
        charged_histogram(ctx, my_keys, pass, bits, hist, be, ws);
    ctx.phase("global histogram");
    const auto table = w.sh->fcollect_reduce<std::uint64_t, HistTable>(
        ctx, hist, build_hist_table);
    charge_prefix_scan(ctx, buckets);

    ctx.phase("permutation");
    Key* const stage = heap.at<Key>(r, w.off_stage);
    buffered_permute(ctx, my_keys, std::span<Key>(stage, n_local), pass,
                     bits, hist, local_prefix, cursor, active, be, ws);
    // The pass-closing barrier orders these lane writes before every PE's
    // next-pass reads.
    move_payloads(my_keys, pay_in, pay_out, homes.begin_of(r), pass, bits,
                  mirror, [&](std::size_t b) { return table->start(r, b); });
    ctx.phase("redistribution");
    w.sh->barrier_all(ctx);  // staging buffers are now globally readable

    if (!w.spec.ablations.shmem_use_put) {
      // Receiver-initiated: fetch every chunk piece that lands in my
      // partition from its source PE's staging buffer.
      Key* const out = heap.at<Key>(r, out_off);
      const std::uint64_t my_begin = homes.begin_of(r);
      gets.clear();
      for_each_inbound_piece(
          *table, r,
          [&](int j, std::size_t, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t src) {
            if (j == r) {
              exchange_copy(be, out + (lo - my_begin), stage + src,
                            hi - lo, part_bytes);
              ctx.stream(2 * (hi - lo) * sizeof(Key), part_bytes);
            } else {
              gets.push_back(shmem::GetOp{
                  reinterpret_cast<std::byte*>(out + (lo - my_begin)), j,
                  w.off_stage + src * sizeof(Key), (hi - lo) * sizeof(Key)});
            }
          });
      // The modelled PE computes the get parameters in one sweep over the
      // p x B histogram matrix.
      ctx.busy_cycles(static_cast<double>(static_cast<std::size_t>(p) *
                                          buckets) *
                      ctx.params().cpu.scan_cycles);
      w.sh->get_phase(ctx, gets);
    } else {
      // Sender-initiated ablation: push my chunks into their destinations.
      puts.clear();
      for (std::size_t b = 0; b < buckets; ++b) {
        if (hist[b] == 0) continue;
        for_each_piece(
            homes, table->start(r, b), hist[b],
            [&](int dst, std::uint64_t gp, std::uint64_t off,
                std::uint64_t len) {
              const Key* src = stage + local_prefix[b] + off;
              const std::uint64_t dst_off =
                  out_off + (gp - homes.begin_of(dst)) * sizeof(Key);
              if (dst == r) {
                exchange_copy(be,
                              heap.at<Key>(r, out_off) + (gp - homes.begin_of(r)),
                              src, len, part_bytes);
                ctx.stream(2 * len * sizeof(Key), part_bytes);
                return;
              }
              puts.push_back(shmem::PutOp{
                  reinterpret_cast<const std::byte*>(src), dst, dst_off,
                  len * sizeof(Key)});
            });
      }
      w.sh->put_phase(ctx, puts);
      cold_input = true;
    }
    w.sh->barrier_all(ctx);
    std::swap(in_off, out_off);
    std::swap(pay_in, pay_out);
  }
  if (passes % 2 != 0) {
    exchange_copy(be, heap.at<Key>(r, w.off_a), heap.at<Key>(r, w.off_b),
                  n_local, part_bytes);
    copy_back_payloads(pay_in, pay_out, homes, r);
    ctx.stream(2 * part_bytes, 2 * part_bytes);
  }
}

}  // namespace dsm::sort
