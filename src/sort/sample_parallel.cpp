#include "sort/sample_parallel.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "sas/prefix_tree.hpp"
#include "sort/merge_sort.hpp"
#include "sort/msd_radix.hpp"
#include "sort/seq_radix.hpp"

namespace dsm::sort {
namespace {

using Splitter = SampleRecord::Splitter;

/// Local-sort dispatch for the skeleton's two sorting phases: the only
/// point where Algo::kSample / kMsdRadix / kMergesort differ. Every
/// backend honors the same contracts (sorted result in `keys`, charges a
/// pure function of the key sequence, a non-empty payload lane sorted
/// with the keys and charged nothing), so the surrounding phases are
/// untouched. The sort runs on the calling thread's workspace, whose
/// toggle buffers grow here and are never zero-filled: every local sort
/// writes them before reading them.
void local_sort(ChargeLog& log, const SortSpec& spec, std::span<Key> keys,
                std::span<keys::Payload> pays) {
  const ThreadWorkspace tw(spec.kernel_jobs);
  RadixWorkspace& ws = tw.get();
  const std::span<Key> tmp = scratch_span(ws.sort_tmp, keys.size());
  const PayloadLanes lanes{pays, scratch_span(ws.sort_pay_tmp, pays.size())};
  const KernelBackend be = spec.kernel_backend;
  switch (spec.algo) {
    case Algo::kMsdRadix:
      local_msd_sort(log, keys, be, ws, lanes);
      return;
    case Algo::kMergesort:
      local_merge_sort(log, keys, tmp, spec.radix_bits, be, ws, lanes);
      return;
    case Algo::kRadix:
    case Algo::kSample:
      local_radix_sort(log, keys, tmp, spec.radix_bits, be, ws, lanes);
      return;
  }
  DSM_REQUIRE(false, "unknown local sort");
}

/// Evenly select out.size() samples from a sorted span (repeats allowed
/// when the span is shorter).
void select_samples(std::span<const Key> sorted, std::span<Key> out) {
  DSM_REQUIRE(!sorted.empty(), "cannot sample an empty partition");
  const std::uint64_t n = sorted.size();
  const std::uint64_t s = out.size();
  for (std::uint64_t i = 0; i < s; ++i) {
    out[i] = sorted[static_cast<std::size_t>((i * n) / s)];
  }
}

/// Charge of selecting `s` samples: one strided sweep.
void charge_select_samples(sim::ProcContext& ctx, std::uint64_t s) {
  ctx.busy_cycles(static_cast<double>(s) * ctx.params().cpu.scan_cycles);
  ctx.stream(s * sizeof(Key), s * sizeof(Key));
}

/// Charge a comparison sort of `n` samples: n log n compares plus one
/// sweep. The splitter selection itself runs once on the host
/// (pick_splitters), so the sorted copy every modelled process would hold
/// is never materialised.
void charge_small_sort(sim::ProcContext& ctx, std::size_t n) {
  if (n > 1) {
    const auto d = static_cast<double>(n);
    ctx.busy_cycles(d * std::log2(d) * ctx.params().cpu.compare_cycles);
  }
  ctx.stream(n * sizeof(Key), n * sizeof(Key));
}

/// Sort the gathered sample set (one equal-size block per contributing
/// rank) as (value, src) tuples and pick every s-th as a splitter: p - 1
/// splitters for p blocks.
std::vector<Splitter> pick_splitters(sim::Blocks<Key> samples_by_rank) {
  const std::size_t p = samples_by_rank.size();
  const std::size_t s = samples_by_rank[0].size();
  std::vector<Splitter> tagged;
  tagged.reserve(p * s);
  for (std::size_t j = 0; j < p; ++j) {
    for (const Key k : samples_by_rank[j]) {
      tagged.push_back(Splitter{k, static_cast<int>(j)});
    }
  }
  std::sort(tagged.begin(), tagged.end(),
            [](const Splitter& a, const Splitter& b) {
              return std::tie(a.value, a.src) < std::tie(b.value, b.src);
            });
  std::vector<Splitter> splitters(p - 1);
  for (std::size_t k = 1; k < p; ++k) splitters[k - 1] = tagged[k * s];
  return splitters;
}

/// Partition boundaries of rank `r`'s sorted run by the splitters, with
/// ties broken by source rank: a key equal to splitter_k stays in the
/// lower destination iff r < splitter_k.src. bounds[0]=0, bounds[p]=n.
void cut_at_splitters(std::span<const Key> sorted,
                      std::span<const Splitter> splitters, int r,
                      std::span<std::uint64_t> bounds) {
  const std::size_t p = splitters.size() + 1;
  DSM_REQUIRE(bounds.size() == p + 1, "bounds must have p+1 entries");
  bounds[0] = 0;
  bounds[p] = sorted.size();
  for (std::size_t k = 1; k < p; ++k) {
    const Splitter& sp = splitters[k - 1];
    const auto it = r < sp.src
                        ? std::upper_bound(sorted.begin(), sorted.end(),
                                           sp.value)
                        : std::lower_bound(sorted.begin(), sorted.end(),
                                           sp.value);
    bounds[k] = static_cast<std::uint64_t>(it - sorted.begin());
  }
  // Monotonicity can break only on malformed splitter sets; clamp-check.
  for (std::size_t k = 1; k <= p; ++k) {
    DSM_CHECK(bounds[k] >= bounds[k - 1], "boundaries must be monotone");
  }
}

/// Charge of cutting `n_local` sorted keys at the p - 1 splitters: one
/// binary search per splitter.
void charge_cut(sim::ProcContext& ctx, std::uint64_t n_local) {
  const auto p = static_cast<std::size_t>(ctx.nprocs());
  if (p > 1 && n_local > 0) {
    ctx.busy_cycles(static_cast<double>(p - 1) *
                    std::log2(static_cast<double>(n_local)) *
                    ctx.params().cpu.binary_search_cycles);
  }
}

void poll_cancel(const SortSpec& spec, const char* what, int r) {
  if (spec.hooks.cancel != nullptr && spec.hooks.cancel->cancelled()) {
    throw Error(Status::cancelled("sort cancelled while recording " +
                                  std::string(what) + " of rank " +
                                  std::to_string(r)));
  }
}

/// The record must be the one this program's spec and team ask for.
void check_record(sim::ProcContext& ctx, const SortSpec& spec,
                  const SampleRecord& rec) {
  DSM_REQUIRE(rec.nprocs() == ctx.nprocs() &&
                  rec.sample_count == spec.ablations.sample_count,
              "sample record was made for another team or sample count");
}

}  // namespace

std::span<const Key> SampleRecord::samples_of(int r) const {
  const auto s = static_cast<std::size_t>(sample_count);
  return std::span<const Key>(samples).subspan(static_cast<std::size_t>(r) * s,
                                               s);
}

std::span<const std::uint64_t> SampleRecord::bounds_of(int j) const {
  const auto row = static_cast<std::size_t>(nprocs() + 1);
  return std::span<const std::uint64_t>(bounds).subspan(
      static_cast<std::size_t>(j) * row, row);
}

std::uint64_t SampleRecord::count(int src, int dst) const {
  const std::span<const std::uint64_t> b = bounds_of(src);
  const auto d = static_cast<std::size_t>(dst);
  return b[d + 1] - b[d];
}

std::span<const Key> SampleRecord::run(int r) const {
  const auto rr = static_cast<std::size_t>(r);
  return std::span<const Key>(keys).subspan(run_begin[rr],
                                             run_begin[rr + 1] - run_begin[rr]);
}

SampleRecord record_sample(const SortSpec& spec, std::vector<Key> keys,
                           std::vector<keys::Payload> payloads) {
  const int p = spec.nprocs;
  const auto pp = static_cast<std::size_t>(p);
  const auto s = static_cast<std::size_t>(spec.ablations.sample_count);
  const std::size_t n = keys.size();
  const bool paired = !payloads.empty();
  DSM_REQUIRE(n == spec.n, "record input must hold n keys");
  DSM_REQUIRE(s >= 1, "need at least one sample per process");
  DSM_REQUIRE(!paired || payloads.size() == n,
              "payload lane must mirror the keys");
  SampleRecord rec;
  rec.homes = sas::HomeMap(n, p);
  const sas::HomeMap& homes = rec.homes;
  rec.sample_count = static_cast<int>(s);
  // The range [begin, begin + count) of a payload lane; empty for u32.
  const auto lane = [](std::vector<keys::Payload>& v, std::uint64_t begin,
                       std::uint64_t count) {
    return v.empty() ? std::span<keys::Payload>()
                     : std::span<keys::Payload>(v).subspan(begin, count);
  };

  // Local sort 1 of every rank's block, and its samples.
  rec.sort1.resize(pp);
  rec.samples.resize(pp * s);
  record_tasks(pp, [&](std::size_t rr) {
    const int r = static_cast<int>(rr);
    poll_cancel(spec, "local sort 1", r);
    const std::span<Key> mine =
        std::span<Key>(keys).subspan(homes.begin_of(r), homes.count_of(r));
    local_sort(rec.sort1[rr], spec, mine,
               lane(payloads, homes.begin_of(r), homes.count_of(r)));
    select_samples(mine, std::span<Key>(rec.samples).subspan(rr * s, s));
  });

  // The splitters every model's collective hands back, and every rank's
  // sorted block cut at them.
  std::vector<std::span<const Key>> blocks;
  for (int r = 0; r < p; ++r) blocks.push_back(rec.samples_of(r));
  rec.splitters = pick_splitters(blocks);
  rec.bounds.resize(pp * (pp + 1));
  record_tasks(pp, [&](std::size_t rr) {
    const int r = static_cast<int>(rr);
    cut_at_splitters(
        std::span<const Key>(keys).subspan(homes.begin_of(r),
                                           homes.count_of(r)),
        rec.splitters, r,
        std::span<std::uint64_t>(rec.bounds).subspan(rr * (pp + 1), pp + 1));
  });

  // Every rank's received run, pulled in source-rank order.
  rec.run_begin.assign(pp + 1, 0);
  for (int r = 0; r < p; ++r) {
    std::uint64_t total = 0;
    for (int j = 0; j < p; ++j) total += rec.count(j, r);
    rec.run_begin[static_cast<std::size_t>(r) + 1] =
        rec.run_begin[static_cast<std::size_t>(r)] + total;
  }
  std::vector<Key> out(n);
  std::vector<keys::Payload> pay_out(paired ? n : 0);
  record_tasks(pp, [&](std::size_t rr) {
    const int r = static_cast<int>(rr);
    const std::uint64_t begin = rec.run_begin[rr];
    const std::uint64_t total = rec.run_begin[rr + 1] - begin;
    std::uint64_t pos = begin;
    for (int j = 0; j < p; ++j) {
      const std::uint64_t cnt = rec.count(j, r);
      if (cnt == 0) continue;
      const std::uint64_t src = homes.begin_of(j) + rec.bounds_of(j)[rr];
      exchange_copy(spec.kernel_backend, out.data() + pos, keys.data() + src,
                    cnt, total * sizeof(Key));
      if (paired) {
        std::copy_n(payloads.begin() + static_cast<std::ptrdiff_t>(src), cnt,
                    pay_out.begin() + static_cast<std::ptrdiff_t>(pos));
      }
      pos += cnt;
    }
  });
  // The input is spent: free it before local sort 2.
  std::vector<Key>().swap(keys);
  std::vector<keys::Payload>().swap(payloads);

  // Local sort 2 of every received run.
  rec.sort2.resize(pp);
  record_tasks(pp, [&](std::size_t rr) {
    poll_cancel(spec, "local sort 2", static_cast<int>(rr));
    const std::uint64_t begin = rec.run_begin[rr];
    const std::uint64_t count = rec.run_begin[rr + 1] - begin;
    local_sort(rec.sort2[rr], spec,
               std::span<Key>(out).subspan(begin, count),
               lane(pay_out, begin, count));
  });
  rec.keys = std::move(out);
  rec.payloads = std::move(pay_out);
  return rec;
}

void sample_ccsas(sim::ProcContext& ctx, const CcSasSampleWorld& w) {
  const SampleRecord& rec = w.rec;
  check_record(ctx, w.spec, rec);
  const int p = ctx.nprocs();
  const int r = ctx.rank();
  const auto rr = static_cast<std::size_t>(r);
  const auto s = static_cast<std::size_t>(rec.sample_count);
  const std::size_t splitters = static_cast<std::size_t>(p - 1);

  // Phase 1: local sort of my partition.
  ctx.phase("local sort 1");
  rec.sort1[rr].replay(ctx);

  // Phase 2: publish my samples (my slot of the shared sample array).
  ctx.phase("sampling");
  charge_select_samples(ctx, s);
  sas::ccsas_barrier(ctx);

  // Phase 3: group collectors gather/sort, then merge across groups.
  // Only the charges of the group sorts and the merge are needed: the
  // record picked the splitters once from the rank-ordered samples.
  ctx.phase("splitters");
  const int gsize = std::min(w.spec.ablations.sample_group_size, p);
  const bool collector = r % gsize == 0;
  if (collector) {
    const int members = std::min(gsize, p - r);
    for (int m = 1; m < members; ++m) {
      // Remote fine-grained reads of each member's sample slot.
      ctx.rmem_ns(ctx.cost().block_transfer_ns(r, r + m, s * sizeof(Key)));
    }
    charge_small_sort(ctx, static_cast<std::size_t>(members) * s);
  }
  sas::ccsas_barrier(ctx);

  if (collector) {
    // Merge every group's sorted slot (reading remote collectors' slots);
    // the merge cost is charged here, while the splitter values come from
    // the rank-ordered samples so ties keep their contributing rank
    // (duplicate handling).
    for (int g = 0; g * gsize < p; ++g) {
      if (g * gsize != r && g * gsize < p) {
        const int members = std::min(gsize, p - g * gsize);
        ctx.rmem_ns(ctx.cost().block_transfer_ns(
            r, g * gsize, static_cast<std::uint64_t>(members) * s * sizeof(Key)));
      }
    }
    ctx.busy_cycles(static_cast<double>(s * static_cast<std::size_t>(p)) *
                    std::max(1.0, std::log2(static_cast<double>(
                                      ceil_div(static_cast<std::uint64_t>(p),
                                               static_cast<std::uint64_t>(gsize))))) *
                    ctx.params().cpu.compare_cycles);
    if (r == 0) {  // rank 0 publishes the splitters
      ctx.stream(splitters * sizeof(Key), splitters * sizeof(Key));
    }
  }
  sas::ccsas_barrier(ctx);
  if (r != 0 && p > 1) {
    ctx.rmem_ns(ctx.cost().block_transfer_ns(
        r, 0, splitters * (sizeof(Key) + sizeof(int))));
  }

  // Phase 4a: publish my partition boundaries.
  ctx.phase("partition");
  charge_cut(ctx, rec.homes.count_of(r));
  sas::ccsas_barrier(ctx);

  // Phase 4b: pull my incoming ranges from every process (remote reads of
  // every boundaries row, then of the ranges).
  ctx.phase("redistribution");
  for (int j = 0; j < p; ++j) {
    if (j != r) ctx.rmem_ns(ctx.cost().line_rtt_ns(r, j));  // read bj row
  }
  std::vector<sim::Transfer> reads;
  for (int j = 0; j < p; ++j) {
    const std::uint64_t cnt = rec.count(j, r);
    if (cnt == 0) continue;
    if (j == r) {
      ctx.stream(2 * cnt * sizeof(Key), 2 * cnt * sizeof(Key));
    } else {
      reads.push_back(sim::Transfer{j, r, cnt * sizeof(Key)});
    }
  }
  // Hardware remote loads: no software overhead per chunk beyond the
  // first-line latency the wire model already includes.
  ctx.team().get_epoch(ctx, reads, sim::OneSidedConfig{0.0});

  // Phase 5: local sort of the received run.
  ctx.phase("local sort 2");
  rec.sort2[rr].replay(ctx);
  ctx.phase("barrier");
  sas::ccsas_barrier(ctx);
}

void sample_mpi(sim::ProcContext& ctx, const MpiSampleWorld& w) {
  DSM_REQUIRE(w.comm != nullptr, "MPI sample world is incomplete");
  const SampleRecord& rec = w.rec;
  check_record(ctx, w.spec, rec);
  const int p = ctx.nprocs();
  const int r = ctx.rank();
  const auto rr = static_cast<std::size_t>(r);
  const auto s = static_cast<std::size_t>(rec.sample_count);
  const auto recorded = [&rec](auto) { return &rec; };

  // Phase 1: local sort.
  ctx.phase("local sort 1");
  rec.sort1[rr].replay(ctx);

  // Phases 2+3: allgather samples; every modelled process sorts the full
  // sample set and picks splitters (charged per rank; the record holds
  // the result).
  ctx.phase("sampling");
  charge_select_samples(ctx, s);
  ctx.phase("splitters");
  w.comm->allgather_reduce<Key, const SampleRecord*>(ctx, rec.samples_of(r),
                                                     recorded);
  charge_small_sort(ctx, s * static_cast<std::size_t>(p));

  // Phase 4: boundaries, allgathered so everyone can size windows and
  // compute send offsets.
  ctx.phase("partition");
  charge_cut(ctx, rec.homes.count_of(r));
  w.comm->allgather_reduce<std::uint64_t, const SampleRecord*>(
      ctx, rec.bounds_of(r), recorded);

  // One contiguous message per destination (the sample-sort property the
  // paper highlights).
  ctx.phase("redistribution");
  std::vector<msg::Communicator::Send> sends;
  for (int dst = 0; dst < p; ++dst) {
    const std::uint64_t cnt = rec.count(r, dst);
    if (cnt == 0) continue;
    if (dst == r) {
      ctx.stream(2 * cnt * sizeof(Key), 2 * cnt * sizeof(Key));
      continue;
    }
    sends.push_back(
        msg::Communicator::Send{dst, 0, nullptr, cnt * sizeof(Key)});
  }
  ctx.busy_cycles(static_cast<double>(p) * ctx.params().cpu.scan_cycles);
  w.comm->charge_exchange(ctx, sends);

  // Phase 5: local sort of the received run.
  ctx.phase("local sort 2");
  rec.sort2[rr].replay(ctx);
  ctx.phase("barrier");
  w.comm->barrier(ctx);
}

void sample_shmem(sim::ProcContext& ctx, const ShmemSampleWorld& w) {
  DSM_REQUIRE(w.sh != nullptr, "SHMEM sample world is incomplete");
  const SampleRecord& rec = w.rec;
  check_record(ctx, w.spec, rec);
  const int p = ctx.nprocs();
  const int r = ctx.rank();
  const auto rr = static_cast<std::size_t>(r);
  const auto s = static_cast<std::size_t>(rec.sample_count);
  const auto recorded = [&rec](auto) { return &rec; };

  // Phase 1: local sort (in the symmetric segment, so phase 4 can get()).
  ctx.phase("local sort 1");
  rec.sort1[rr].replay(ctx);

  // Phases 2+3: fcollect samples; every modelled PE sorts them and picks
  // splitters (charged per PE; the record holds the result).
  ctx.phase("sampling");
  charge_select_samples(ctx, s);
  ctx.phase("splitters");
  w.sh->fcollect_reduce<Key, const SampleRecord*>(ctx, rec.samples_of(r),
                                                  recorded);
  charge_small_sort(ctx, s * static_cast<std::size_t>(p));

  // Phase 4: boundaries; fcollect them; pull my ranges with get().
  ctx.phase("partition");
  charge_cut(ctx, rec.homes.count_of(r));
  w.sh->fcollect_reduce<std::uint64_t, const SampleRecord*>(
      ctx, rec.bounds_of(r), recorded);

  ctx.phase("redistribution");
  std::vector<shmem::GetOp> gets;
  for (int j = 0; j < p; ++j) {
    const std::uint64_t cnt = rec.count(j, r);
    if (cnt == 0) continue;
    if (j == r) {
      ctx.stream(2 * cnt * sizeof(Key), 2 * cnt * sizeof(Key));
    } else {
      gets.push_back(shmem::GetOp{nullptr, j, 0, cnt * sizeof(Key)});
    }
  }
  ctx.busy_cycles(static_cast<double>(p) * ctx.params().cpu.scan_cycles);
  w.sh->charge_get_phase(ctx, gets);

  // Phase 5: local sort of the received run.
  ctx.phase("local sort 2");
  rec.sort2[rr].replay(ctx);
  ctx.phase("barrier");
  w.sh->barrier_all(ctx);
}

}  // namespace dsm::sort
