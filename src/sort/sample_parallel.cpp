#include "sort/sample_parallel.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "sas/prefix_tree.hpp"
#include "sort/merge_sort.hpp"
#include "sort/msd_radix.hpp"
#include "sort/seq_radix.hpp"

namespace dsm::sort {
namespace {

/// Local-sort dispatch for the skeleton's two sorting phases: the only
/// point where Algo::kSample / kMsdRadix / kMergesort differ. Every
/// backend honors the same contracts (sorted result in `keys`, charges a
/// pure function of the key sequence, a non-empty payload lane sorted
/// with the keys and charged nothing), so the surrounding phases are
/// untouched. `tmp` and `pay_tmp` are scratch, grown here and never
/// zero-filled: every local sort writes its toggle buffers before reading
/// them.
void charged_local_sort(sim::ProcContext& ctx, const SortSpec& spec,
                        std::span<Key> keys, ScratchVector<Key>& tmp_store,
                        std::span<keys::Payload> pays,
                        ScratchVector<keys::Payload>& pay_tmp_store,
                        RadixWorkspace& ws) {
  const std::span<Key> tmp = scratch_span(tmp_store, keys.size());
  const PayloadLanes lanes{pays, scratch_span(pay_tmp_store, pays.size())};
  const KernelBackend be = spec.kernel_backend;
  switch (spec.algo) {
    case Algo::kMsdRadix:
      local_msd_sort(ctx, keys, be, ws, lanes);
      return;
    case Algo::kMergesort:
      local_merge_sort(ctx, keys, tmp, spec.radix_bits, be, ws, lanes);
      return;
    case Algo::kRadix:
    case Algo::kSample:
      local_radix_sort(ctx, keys, tmp, spec.radix_bits, be, ws, lanes);
      return;
  }
  DSM_REQUIRE(false, "unknown local sort");
}

/// Rank r's range of a global payload lane (empty for u32).
std::span<keys::Payload> rank_lane(std::span<keys::Payload> pay,
                                   const sas::HomeMap& homes, int r) {
  if (pay.empty()) return {};
  return pay.subspan(homes.begin_of(r), homes.count_of(r));
}

/// The kv32 payload step of the redistribution, the same under every model
/// (DESIGN.md §11). Rank r receives source j's range [bounds_j[r],
/// bounds_j[r + 1]) of j's sorted partition, in source-rank order; j's
/// partition starts at homes.begin_of(j) of the global lane. Every lane is
/// final once the boundaries are published. `bounds` holds p rows of
/// p + 1. Uncharged. Returns r's received run: empty for u32.
std::span<keys::Payload> pull_payloads(
    std::span<const keys::Payload> pay, const sas::HomeMap& homes,
    const std::uint64_t* bounds, int r,
    std::vector<std::vector<keys::Payload>>* result) {
  if (pay.empty()) return {};
  const int p = homes.nprocs();
  std::vector<keys::Payload>& out = (*result)[static_cast<std::size_t>(r)];
  out.clear();
  for (int j = 0; j < p; ++j) {
    const std::uint64_t* bj =
        bounds + static_cast<std::size_t>(j) * static_cast<std::size_t>(p + 1);
    const auto first = pay.begin() + static_cast<std::ptrdiff_t>(
                                          homes.begin_of(j) + bj[r]);
    out.insert(out.end(), first,
               first + static_cast<std::ptrdiff_t>(bj[r + 1] - bj[r]));
  }
  return out;
}

/// Evenly select `s` samples from a sorted span (repeats allowed when the
/// span is shorter than s).
void select_samples(sim::ProcContext& ctx, std::span<const Key> sorted,
                    std::span<Key> out) {
  DSM_REQUIRE(!sorted.empty(), "cannot sample an empty partition");
  const std::uint64_t n = sorted.size();
  const std::uint64_t s = out.size();
  for (std::uint64_t i = 0; i < s; ++i) {
    out[i] = sorted[static_cast<std::size_t>((i * n) / s)];
  }
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

/// A splitter carries its value and the rank that contributed the sample
/// — ties on the value are broken by source rank (the regular-sampling
/// duplicate-handling of Li et al. [13]), which keeps duplicate-heavy
/// inputs (the paper's `zero` distribution) load balanced.
struct Splitter {
  Key value = 0;
  int src = 0;
};

/// Sort the gathered sample set (one equal-size block per contributing
/// rank) as (value, src) tuples and pick every s-th as a splitter: p - 1
/// splitters for p blocks. The allgather_reduce/fcollect_reduce reducer.
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
/// lower destination iff r < splitter_k.src.
/// bounds[0]=0, bounds[p]=n.
void charged_boundaries(sim::ProcContext& ctx, std::span<const Key> sorted,
                        std::span<const Splitter> splitters,
                        std::span<std::uint64_t> bounds) {
  const std::size_t p = splitters.size() + 1;
  const int r = ctx.rank();
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
  if (p > 1 && !sorted.empty()) {
    ctx.busy_cycles(static_cast<double>(p - 1) *
                    std::log2(static_cast<double>(sorted.size())) *
                    ctx.params().cpu.binary_search_cycles);
  }
}

}  // namespace

void sample_ccsas(sim::ProcContext& ctx, CcSasSampleWorld& w) {
  DSM_REQUIRE(w.keys && w.result && w.samples && w.splitters &&
                  w.boundaries,
              "CC-SAS sample world is incomplete");
  const int p = ctx.nprocs();
  const int r = ctx.rank();
  const auto rr = static_cast<std::size_t>(r);
  const auto s = static_cast<std::size_t>(w.spec.ablations.sample_count);
  DSM_REQUIRE(s >= 1, "need at least one sample per process");
  DSM_REQUIRE(w.samples->size() == s * static_cast<std::size_t>(p) &&
                  w.splitters->size() == static_cast<std::size_t>(p - 1) &&
                  w.boundaries->size() ==
                      static_cast<std::size_t>(p) *
                          static_cast<std::size_t>(p + 1),
              "shared scratch sized incorrectly");

  DSM_REQUIRE(w.pay.empty() || (w.pay_result != nullptr &&
                                 w.pay.size() == w.keys->size()),
              "payload lanes must mirror the key array and the result");
  const sas::HomeMap& homes = w.keys->homes();

  // Phase 1: local radix sort of my partition.
  ctx.phase("local sort 1");
  std::span<Key> mine = w.keys->partition(r);
  ScratchVector<Key> tmp;
  ScratchVector<keys::Payload> pay_tmp;
  RadixWorkspace ws;  // kernel scratch shared by both local sort phases
  ws.jobs = w.spec.kernel_jobs;
  charged_local_sort(ctx, w.spec, mine, tmp, rank_lane(w.pay, homes, r),
                     pay_tmp, ws);

  // Phase 2: publish my samples (my slot of the shared sample array).
  ctx.phase("sampling");
  select_samples(ctx, mine, std::span<Key>(*w.samples).subspan(rr * s, s));
  sas::ccsas_barrier(ctx);

  // Phase 3: group collectors gather/sort, then merge across groups.
  // Only the charges of the group sorts and the merge are needed: rank 0
  // picks the splitters once from the rank-ordered sample array.
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
    // the merge cost is charged here, while the splitter values themselves
    // are computed from the rank-ordered sample array so ties keep their
    // contributing rank (duplicate handling).
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
    if (r == 0) {
      std::vector<std::span<const Key>> blocks;
      for (std::size_t j = 0; j < static_cast<std::size_t>(p); ++j) {
        blocks.emplace_back(w.samples->data() + j * s, s);
      }
      const std::vector<Splitter> splitters = pick_splitters(blocks);
      for (std::size_t k = 0; k + 1 < static_cast<std::size_t>(p); ++k) {
        (*w.splitters)[k] = splitters[k].value;
        (*w.splitter_srcs)[k] = splitters[k].src;
      }
      ctx.stream(w.splitters->size() * sizeof(Key),
                 w.splitters->size() * sizeof(Key));
    }
  }
  sas::ccsas_barrier(ctx);
  if (r != 0 && p > 1) {
    ctx.rmem_ns(ctx.cost().block_transfer_ns(
        r, 0, w.splitters->size() * (sizeof(Key) + sizeof(int))));
  }
  std::vector<Splitter> splitters(static_cast<std::size_t>(p - 1));
  for (std::size_t k = 0; k + 1 < static_cast<std::size_t>(p); ++k) {
    splitters[k] = Splitter{(*w.splitters)[k], (*w.splitter_srcs)[k]};
  }

  // Phase 4a: publish my partition boundaries.
  ctx.phase("partition");
  std::span<std::uint64_t> my_bounds(
      w.boundaries->data() + rr * static_cast<std::size_t>(p + 1),
      static_cast<std::size_t>(p + 1));
  charged_boundaries(ctx, mine, splitters, my_bounds);
  sas::ccsas_barrier(ctx);

  // Phase 4b: pull my incoming ranges from every process (remote reads).
  ctx.phase("redistribution");
  std::uint64_t total = 0;
  for (int j = 0; j < p; ++j) {
    const std::uint64_t* bj =
        w.boundaries->data() +
        static_cast<std::size_t>(j) * static_cast<std::size_t>(p + 1);
    total += bj[r + 1] - bj[r];
    if (j != r) ctx.rmem_ns(ctx.cost().line_rtt_ns(r, j));  // read bj row
  }
  std::vector<Key>& out = (*w.result)[rr];
  out.resize(total);
  const std::span<keys::Payload> pay_out =
      pull_payloads(w.pay, homes, w.boundaries->data(), r, w.pay_result);
  std::vector<sim::Transfer> reads;
  std::uint64_t pos = 0;
  for (int j = 0; j < p; ++j) {
    const std::uint64_t* bj =
        w.boundaries->data() +
        static_cast<std::size_t>(j) * static_cast<std::size_t>(p + 1);
    const std::uint64_t cnt = bj[r + 1] - bj[r];
    if (cnt == 0) continue;
    const Key* src = w.keys->partition(j).data() + bj[r];
    exchange_copy(w.spec.kernel_backend, out.data() + pos, src, cnt,
                  total * sizeof(Key));
    if (j == r) {
      ctx.stream(2 * cnt * sizeof(Key), 2 * cnt * sizeof(Key));
    } else {
      reads.push_back(sim::Transfer{j, r, cnt * sizeof(Key)});
    }
    pos += cnt;
  }
  // Hardware remote loads: no software overhead per chunk beyond the
  // first-line latency the wire model already includes.
  ctx.team().get_epoch(ctx, reads, sim::OneSidedConfig{0.0});

  // Phase 5: local sort of the received run.
  ctx.phase("local sort 2");
  charged_local_sort(ctx, w.spec, out, tmp, pay_out, pay_tmp, ws);
  ctx.phase("barrier");
  sas::ccsas_barrier(ctx);
}

void sample_mpi(sim::ProcContext& ctx, MpiSampleWorld& w) {
  DSM_REQUIRE(w.comm && w.parts && w.result, "MPI sample world is incomplete");
  const int p = ctx.nprocs();
  const int r = ctx.rank();
  const auto rr = static_cast<std::size_t>(r);
  const auto s = static_cast<std::size_t>(w.spec.ablations.sample_count);
  DSM_REQUIRE(s >= 1, "need at least one sample per process");
  DSM_REQUIRE(w.pay.empty() || w.pay_result != nullptr,
              "payload lanes must mirror parts and result");
  const sas::HomeMap homes(w.spec.n, p);

  // Phase 1: local sort.
  ctx.phase("local sort 1");
  std::vector<Key>& mine = (*w.parts)[rr];
  ScratchVector<Key> tmp;
  ScratchVector<keys::Payload> pay_tmp;
  RadixWorkspace ws;  // kernel scratch shared by both local sort phases
  ws.jobs = w.spec.kernel_jobs;
  charged_local_sort(ctx, w.spec, mine, tmp, rank_lane(w.pay, homes, r),
                     pay_tmp, ws);

  // Phases 2+3: allgather samples; every modelled process sorts the full
  // sample set and picks splitters (charged per rank, computed once).
  ctx.phase("sampling");
  std::vector<Key> my_samples(s);
  select_samples(ctx, mine, my_samples);
  ctx.phase("splitters");
  const auto splitters =
      w.comm->allgather_reduce<Key, std::vector<Splitter>>(
          ctx, my_samples, pick_splitters);
  charge_small_sort(ctx, s * static_cast<std::size_t>(p));

  // Phase 4: boundaries, allgathered so everyone can size windows and
  // compute send offsets.
  ctx.phase("partition");
  std::vector<std::uint64_t> my_bounds(static_cast<std::size_t>(p + 1));
  charged_boundaries(ctx, mine, *splitters, my_bounds);
  std::vector<std::uint64_t> all_bounds(static_cast<std::size_t>(p) *
                                        static_cast<std::size_t>(p + 1));
  w.comm->allgather<std::uint64_t>(ctx, my_bounds, all_bounds);

  auto cnt_from_to = [&](int src, int dst) {
    const std::uint64_t* bs =
        all_bounds.data() +
        static_cast<std::size_t>(src) * static_cast<std::size_t>(p + 1);
    return bs[dst + 1] - bs[dst];
  };
  std::uint64_t total = 0;
  for (int j = 0; j < p; ++j) total += cnt_from_to(j, r);
  std::vector<Key>& out = (*w.result)[rr];
  out.resize(total);
  const std::span<keys::Payload> pay_out =
      pull_payloads(w.pay, homes, all_bounds.data(), r, w.pay_result);

  // One contiguous message per destination (the sample-sort property the
  // paper highlights).
  ctx.phase("redistribution");
  std::vector<msg::Communicator::Send> sends;
  for (int dst = 0; dst < p; ++dst) {
    const std::uint64_t cnt = cnt_from_to(r, dst);
    if (cnt == 0) continue;
    const Key* src = mine.data() + my_bounds[static_cast<std::size_t>(dst)];
    std::uint64_t dst_off = 0;
    for (int j = 0; j < r; ++j) dst_off += cnt_from_to(j, dst);
    if (dst == r) {
      exchange_copy(w.spec.kernel_backend, out.data() + dst_off, src, cnt,
                    total * sizeof(Key));
      ctx.stream(2 * cnt * sizeof(Key), 2 * cnt * sizeof(Key));
      continue;
    }
    sends.push_back(msg::Communicator::Send{
        dst, dst_off * sizeof(Key), reinterpret_cast<const std::byte*>(src),
        cnt * sizeof(Key)});
  }
  ctx.busy_cycles(static_cast<double>(p) * ctx.params().cpu.scan_cycles);
  w.comm->exchange(ctx, sends, std::as_writable_bytes(std::span<Key>(out)));

  // Phase 5: local sort of the received run.
  ctx.phase("local sort 2");
  charged_local_sort(ctx, w.spec, out, tmp, pay_out, pay_tmp, ws);
  ctx.phase("barrier");
  w.comm->barrier(ctx);
}

void sample_shmem(sim::ProcContext& ctx, ShmemSampleWorld& w) {
  DSM_REQUIRE(w.sh && w.result, "SHMEM sample world is incomplete");
  const int p = ctx.nprocs();
  const int r = ctx.rank();
  const auto rr = static_cast<std::size_t>(r);
  const auto s = static_cast<std::size_t>(w.spec.ablations.sample_count);
  DSM_REQUIRE(s >= 1, "need at least one sample per process");
  DSM_REQUIRE(w.pay.empty() || w.pay_result != nullptr,
              "payload lanes must mirror the partitions and the result");
  const sas::HomeMap homes(w.spec.n, p);
  const Index n_local = homes.count_of(r);
  DSM_REQUIRE(n_local <= w.part_capacity, "partition exceeds capacity");
  shmem::SymmetricHeap& heap = w.sh->heap();

  // Phase 1: local sort (in the symmetric segment, so phase 4 can get()).
  ctx.phase("local sort 1");
  std::span<Key> mine(heap.at<Key>(r, w.off_keys), n_local);
  ScratchVector<Key> tmp;
  ScratchVector<keys::Payload> pay_tmp;
  RadixWorkspace ws;  // kernel scratch shared by both local sort phases
  ws.jobs = w.spec.kernel_jobs;
  charged_local_sort(ctx, w.spec, mine, tmp, rank_lane(w.pay, homes, r),
                     pay_tmp, ws);

  // Phases 2+3: fcollect samples; every modelled PE sorts them and picks
  // splitters (charged per PE, computed once).
  ctx.phase("sampling");
  std::vector<Key> my_samples(s);
  select_samples(ctx, mine, my_samples);
  ctx.phase("splitters");
  const auto splitters = w.sh->fcollect_reduce<Key, std::vector<Splitter>>(
      ctx, my_samples, pick_splitters);
  charge_small_sort(ctx, s * static_cast<std::size_t>(p));

  // Phase 4: boundaries; fcollect them; pull my ranges with get().
  ctx.phase("partition");
  std::vector<std::uint64_t> my_bounds(static_cast<std::size_t>(p + 1));
  charged_boundaries(ctx, mine, *splitters, my_bounds);
  std::vector<std::uint64_t> all_bounds(static_cast<std::size_t>(p) *
                                        static_cast<std::size_t>(p + 1));
  w.sh->fcollect<std::uint64_t>(ctx, my_bounds, all_bounds);

  auto bounds_of = [&](int src) {
    return all_bounds.data() +
           static_cast<std::size_t>(src) * static_cast<std::size_t>(p + 1);
  };
  std::uint64_t total = 0;
  for (int j = 0; j < p; ++j) {
    total += bounds_of(j)[r + 1] - bounds_of(j)[r];
  }
  std::vector<Key>& out = (*w.result)[rr];
  out.resize(total);
  const std::span<keys::Payload> pay_out =
      pull_payloads(w.pay, homes, all_bounds.data(), r, w.pay_result);

  ctx.phase("redistribution");
  std::vector<shmem::GetOp> gets;
  std::uint64_t pos = 0;
  for (int j = 0; j < p; ++j) {
    const std::uint64_t* bj = bounds_of(j);
    const std::uint64_t cnt = bj[r + 1] - bj[r];
    if (cnt == 0) continue;
    if (j == r) {
      exchange_copy(w.spec.kernel_backend, out.data() + pos,
                    mine.data() + bj[r], cnt, total * sizeof(Key));
      ctx.stream(2 * cnt * sizeof(Key), 2 * cnt * sizeof(Key));
    } else {
      gets.push_back(shmem::GetOp{
          reinterpret_cast<std::byte*>(out.data() + pos), j,
          w.off_keys + bj[r] * sizeof(Key), cnt * sizeof(Key)});
    }
    pos += cnt;
  }
  ctx.busy_cycles(static_cast<double>(p) * ctx.params().cpu.scan_cycles);
  w.sh->get_phase(ctx, gets);

  // Phase 5: local sort of the received run.
  ctx.phase("local sort 2");
  charged_local_sort(ctx, w.spec, out, tmp, pay_out, pay_tmp, ws);
  ctx.phase("barrier");
  w.sh->barrier_all(ctx);
}

}  // namespace dsm::sort
