#include "sort/sort_api.hpp"

#include <algorithm>
#include <exception>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "sas/prefix_tree.hpp"
#include "sas/shared_array.hpp"
#include "shmem/shmem.hpp"
#include "sim/team.hpp"
#include "sort/input_cache.hpp"
#include "sort/radix_parallel.hpp"
#include "sort/sample_parallel.hpp"
#include "sort/seq_radix.hpp"
#include "sort/verify.hpp"

#include <fstream>

namespace dsm::sort {
namespace {

/// Poll cancellation and fire the observation hook at a named site.
/// Throwing here (cancellation, an injected fault) aborts the sort; when
/// the site is a phase mark inside team.run, the team poison machinery
/// unwinds every rank cleanly.
void checkpoint(const SortSpec& spec, const char* site, double virtual_ns) {
  if (spec.hooks.cancel != nullptr && spec.hooks.cancel->cancelled()) {
    throw Error(Status::cancelled(
        std::string("sort cancelled at checkpoint '") + site + "'"));
  }
  if (spec.hooks.on_site) spec.hooks.on_site(site, virtual_ns);
}

/// Arm tracing and the per-phase hook on a freshly built team. The hook
/// fires on rank 0's phase marks only: one deterministic stream of sites
/// regardless of engine or host schedule.
void arm_team(const SortSpec& spec, sim::SimTeam& team) {
  if (!spec.trace_json_path.empty()) team.enable_tracing();
  if (spec.hooks.on_site || spec.hooks.cancel != nullptr) {
    team.set_phase_hook(
        [&spec](int rank, const char* name, double virtual_ns) {
          if (rank == 0) checkpoint(spec, name, virtual_ns);
        });
  }
}

/// Generate every rank's partition (host-side, uncharged — the paper times
/// sorting, not initialisation) and return the input multiset checksum.
Checksum generate_partitions(const SortSpec& spec,
                             const sas::HomeMap& homes,
                             const std::function<std::span<Key>(int)>& part) {
  checkpoint(spec, "keygen", 0.0);
  return generate_partitions_cached(spec.dist, spec.n, spec.nprocs,
                                    spec.radix_bits, spec.seed, homes, part);
}

using PayloadRuns = std::vector<std::span<const keys::Payload>>;

bool paired_records(const SortSpec& spec) {
  return keys::record_info(spec.record).has_payload;
}

/// Fill a payload partition lane with the records' global input indices —
/// the canonical kv32 payload: after the sort, ascending payloads within
/// every equal-key run prove stability (DESIGN.md §11).
void iota_payload(std::span<keys::Payload> pay, Index global_begin) {
  for (std::size_t i = 0; i < pay.size(); ++i) {
    pay[i] = static_cast<keys::Payload>(global_begin + static_cast<Index>(i));
  }
}

void perf_write_trace(const std::string& path, const sim::SimTeam& team) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw Error(Status::io_error("cannot open trace file: " + path));
  }
  out << team.trace_json();
}

void maybe_write_trace(const SortSpec& spec, const sim::SimTeam& team) {
  if (spec.trace_json_path.empty()) return;
  perf_write_trace(spec.trace_json_path, team);
}

SortResult finish(const SortSpec& spec, sim::SimTeam& team,
                  const Checksum& input,
                  const std::vector<std::span<const Key>>& runs,
                  int passes_used = -1, const PayloadRuns* pay_runs = nullptr,
                  std::uint64_t input_pairs = 0) {
  checkpoint(spec, "verify", team.elapsed_ns());
  SortResult res;
  res.n = spec.n;
  res.record = spec.record;
  res.passes = passes_used >= 0 ? passes_used : radix_passes(spec.radix_bits);
  res.elapsed_ns = team.elapsed_ns();
  res.per_proc.reserve(static_cast<std::size_t>(spec.nprocs));
  for (int r = 0; r < spec.nprocs; ++r) {
    res.per_proc.push_back(team.breakdown_of(r));
  }
  res.phases = team.mean_phase_report();
  res.run_sizes.reserve(runs.size());
  for (const auto& run : runs) res.run_sizes.push_back(run.size());
  if (spec.keep_output) {
    res.output.reserve(spec.n);
    for (const auto& run : runs) {
      res.output.insert(res.output.end(), run.begin(), run.end());
    }
    if (pay_runs != nullptr) {
      res.payload_output.reserve(spec.n);
      for (const auto& run : *pay_runs) {
        res.payload_output.insert(res.payload_output.end(), run.begin(),
                                  run.end());
      }
    }
  }
  // One sweep over the output verifies it and computes its order hash.
  const std::span<const std::span<const Key>> key_runs(runs);
  RunsVerdict verdict;
  if (!spec.verify) {
    verdict = RunsVerdict{true, run_order_hash(key_runs)};
  } else if (pay_runs != nullptr) {
    // Paired verification: key order, exact (key, payload) multiset
    // preservation, and stability — every algorithm here is stable (LSD
    // radix by construction; the sample-sort skeleton — and the MSD and
    // mergesort backends riding on it — because the splitter tie-break
    // routes equal keys by source rank, partitions ascend by rank, and
    // every local payload mirror is a stable record sort).
    verdict = verify_sorted_runs_paired(
        input, input_pairs, key_runs,
        std::span<const std::span<const keys::Payload>>(*pay_runs),
        /*require_stable=*/true);
  } else {
    verdict = verify_and_hash_runs(input, key_runs);
  }
  res.verified = verdict.ok;
  DSM_CHECK(res.verified, "sort produced an incorrect result");
  res.input_checksum = input;
  res.run_hash = verdict.order_hash;
  maybe_write_trace(spec, team);
  return res;
}

SortResult run_radix_ccsas(const SortSpec& spec,
                           const machine::MachineParams& mp) {
  sim::SimTeam team(spec.nprocs, mp, spec.engine);
  arm_team(spec, team);
  sas::SharedArray<Key> a(spec.n, spec.nprocs), b(spec.n, spec.nprocs);
  sas::BucketScan scan(spec.nprocs, std::size_t{1} << spec.radix_bits);
  const Checksum input = generate_partitions(
      spec, a.homes(), [&](int r) { return a.partition(r); });

  const bool paired = paired_records(spec);
  std::vector<keys::Payload> pay_a(paired ? spec.n : 0);
  std::vector<keys::Payload> pay_b(paired ? spec.n : 0);
  std::uint64_t input_pairs = 0;
  if (paired) {
    iota_payload(pay_a, 0);
    input_pairs = pair_fingerprint(a.all(), pay_a);
  }

  CcSasRadixWorld w;
  w.a = &a;
  w.b = &b;
  if (paired) {
    w.pay_a = &pay_a;
    w.pay_b = &pay_b;
  }
  w.scan = &scan;
  w.radix_bits = spec.radix_bits;
  w.buffered = spec.model == Model::kCcSasNew;
  w.detect_max_key = spec.ablations.detect_max_key;
  w.kernels = spec.kernel_backend;
  w.kernel_jobs = spec.kernel_jobs;
  team.run([&](sim::ProcContext& ctx) { radix_ccsas(ctx, w); });

  const int passes = w.passes_used.load(std::memory_order_relaxed);
  sas::SharedArray<Key>& out = passes % 2 == 0 ? a : b;
  const std::vector<std::span<const Key>> runs{out.all()};
  const PayloadRuns pay_runs{
      std::span<const keys::Payload>(passes % 2 == 0 ? pay_a : pay_b)};
  return finish(spec, team, input, runs, passes, paired ? &pay_runs : nullptr,
                input_pairs);
}

SortResult run_radix_mpi(const SortSpec& spec,
                         const machine::MachineParams& mp) {
  sim::SimTeam team(spec.nprocs, mp, spec.engine);
  arm_team(spec, team);
  msg::Communicator comm(team, spec.ablations.mpi_impl);
  const sas::HomeMap homes(spec.n, spec.nprocs);
  std::vector<std::vector<Key>> parts_a(static_cast<std::size_t>(spec.nprocs));
  std::vector<std::vector<Key>> parts_b(static_cast<std::size_t>(spec.nprocs));
  for (int r = 0; r < spec.nprocs; ++r) {
    parts_a[static_cast<std::size_t>(r)].resize(homes.count_of(r));
    parts_b[static_cast<std::size_t>(r)].resize(homes.count_of(r));
  }
  const Checksum input = generate_partitions(spec, homes, [&](int r) {
    return std::span<Key>(parts_a[static_cast<std::size_t>(r)]);
  });

  const bool paired = paired_records(spec);
  std::vector<std::vector<keys::Payload>> pay_a, pay_b;
  std::uint64_t input_pairs = 0;
  if (paired) {
    pay_a.resize(static_cast<std::size_t>(spec.nprocs));
    pay_b.resize(static_cast<std::size_t>(spec.nprocs));
    for (int r = 0; r < spec.nprocs; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      pay_a[rr].resize(homes.count_of(r));
      pay_b[rr].resize(homes.count_of(r));
      iota_payload(pay_a[rr], homes.begin_of(r));
      input_pairs += pair_fingerprint(parts_a[rr], pay_a[rr]);
    }
  }

  MpiRadixWorld w;
  w.comm = &comm;
  w.parts_a = &parts_a;
  w.parts_b = &parts_b;
  if (paired) {
    w.pay_a = &pay_a;
    w.pay_b = &pay_b;
  }
  w.radix_bits = spec.radix_bits;
  w.chunk_messages = spec.ablations.mpi_chunk_messages;
  w.detect_max_key = spec.ablations.detect_max_key;
  w.kernels = spec.kernel_backend;
  w.kernel_jobs = spec.kernel_jobs;
  team.run([&](sim::ProcContext& ctx) { radix_mpi(ctx, w); });

  std::vector<std::span<const Key>> runs;
  for (const auto& part : parts_a) runs.emplace_back(part);
  PayloadRuns pay_runs;
  for (const auto& lane : pay_a) pay_runs.emplace_back(lane);
  return finish(spec, team, input, runs,
                w.passes_used.load(std::memory_order_relaxed),
                paired ? &pay_runs : nullptr, input_pairs);
}

SortResult run_radix_shmem(const SortSpec& spec,
                           const machine::MachineParams& mp) {
  sim::SimTeam team(spec.nprocs, mp, spec.engine);
  arm_team(spec, team);
  const sas::HomeMap homes(spec.n, spec.nprocs);
  const Index cap = homes.count_of(0);  // leading partitions are largest
  const std::uint64_t seg = 3 * (cap * sizeof(Key) + 64) + 4096;
  shmem::SymmetricHeap heap(spec.nprocs, seg);
  shmem::Shmem sh(team, heap);
  ShmemRadixWorld w;
  w.sh = &sh;
  w.off_a = heap.alloc<Key>(cap);
  w.off_b = heap.alloc<Key>(cap);
  w.off_stage = heap.alloc<Key>(cap);
  w.part_capacity = cap;
  w.n_total = spec.n;
  w.radix_bits = spec.radix_bits;
  w.use_put = spec.ablations.shmem_use_put;
  w.detect_max_key = spec.ablations.detect_max_key;
  w.kernels = spec.kernel_backend;
  w.kernel_jobs = spec.kernel_jobs;

  const Checksum input = generate_partitions(spec, homes, [&](int r) {
    return std::span<Key>(heap.at<Key>(r, w.off_a), homes.count_of(r));
  });

  const bool paired = paired_records(spec);
  std::vector<std::vector<keys::Payload>> pay_a, pay_b, pay_stage;
  std::uint64_t input_pairs = 0;
  if (paired) {
    const auto p = static_cast<std::size_t>(spec.nprocs);
    pay_a.resize(p);
    pay_b.resize(p);
    pay_stage.resize(p);
    for (int r = 0; r < spec.nprocs; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      pay_a[rr].resize(homes.count_of(r));
      pay_b[rr].resize(homes.count_of(r));
      pay_stage[rr].resize(homes.count_of(r));
      iota_payload(pay_a[rr], homes.begin_of(r));
      input_pairs += pair_fingerprint(
          std::span<const Key>(heap.at<Key>(r, w.off_a), homes.count_of(r)),
          pay_a[rr]);
    }
    w.pay_a = &pay_a;
    w.pay_b = &pay_b;
    w.pay_stage = &pay_stage;
  }
  team.run([&](sim::ProcContext& ctx) { radix_shmem(ctx, w); });

  std::vector<std::span<const Key>> runs;
  for (int r = 0; r < spec.nprocs; ++r) {
    runs.emplace_back(heap.at<Key>(r, w.off_a), homes.count_of(r));
  }
  PayloadRuns pay_runs;
  for (const auto& lane : pay_a) pay_runs.emplace_back(lane);
  return finish(spec, team, input, runs,
                w.passes_used.load(std::memory_order_relaxed),
                paired ? &pay_runs : nullptr, input_pairs);
}

/// Which charged local sort the sample skeleton runs for this algorithm.
/// kSample keeps the paper's LSD local sorts; kMsdRadix and kMergesort
/// reuse the identical skeleton (sampling, splitters, redistribution)
/// with their own local-sort kernels.
LocalSort local_sort_of(Algo a) {
  switch (a) {
    case Algo::kMsdRadix: return LocalSort::kMsd;
    case Algo::kMergesort: return LocalSort::kMerge;
    case Algo::kRadix:
    case Algo::kSample: break;
  }
  return LocalSort::kLsd;
}

SortResult run_sample_ccsas(const SortSpec& spec,
                            const machine::MachineParams& mp) {
  sim::SimTeam team(spec.nprocs, mp, spec.engine);
  arm_team(spec, team);
  sas::SharedArray<Key> keys(spec.n, spec.nprocs);
  const Checksum input = generate_partitions(
      spec, keys.homes(), [&](int r) { return keys.partition(r); });

  const auto p = static_cast<std::size_t>(spec.nprocs);
  const auto s = static_cast<std::size_t>(spec.ablations.sample_count);
  std::vector<std::vector<Key>> result(p);
  const bool paired = paired_records(spec);
  std::vector<keys::Payload> pay(paired ? spec.n : 0);
  std::vector<std::vector<keys::Payload>> pay_result(paired ? p : 0);
  std::uint64_t input_pairs = 0;
  if (paired) {
    iota_payload(pay, 0);
    input_pairs = pair_fingerprint(keys.all(), pay);
  }
  std::vector<Key> samples(s * p);
  std::vector<Key> splitters(p - 1);
  std::vector<int> splitter_srcs(p - 1);
  std::vector<std::uint64_t> boundaries(p * (p + 1));

  CcSasSampleWorld w;
  w.keys = &keys;
  w.result = &result;
  if (paired) {
    w.pay = &pay;
    w.pay_result = &pay_result;
  }
  w.samples = &samples;
  w.splitters = &splitters;
  w.splitter_srcs = &splitter_srcs;
  w.boundaries = &boundaries;
  w.radix_bits = spec.radix_bits;
  w.sample_count = spec.ablations.sample_count;
  w.group_size = spec.ablations.sample_group_size;
  w.local_sort = local_sort_of(spec.algo);
  w.kernels = spec.kernel_backend;
  w.kernel_jobs = spec.kernel_jobs;
  team.run([&](sim::ProcContext& ctx) { sample_ccsas(ctx, w); });

  std::vector<std::span<const Key>> runs;
  for (const auto& run : result) runs.emplace_back(run);
  PayloadRuns pay_runs;
  for (const auto& lane : pay_result) pay_runs.emplace_back(lane);
  return finish(spec, team, input, runs, -1, paired ? &pay_runs : nullptr,
                input_pairs);
}

SortResult run_sample_mpi(const SortSpec& spec,
                          const machine::MachineParams& mp) {
  sim::SimTeam team(spec.nprocs, mp, spec.engine);
  arm_team(spec, team);
  msg::Communicator comm(team, spec.ablations.mpi_impl);
  const sas::HomeMap homes(spec.n, spec.nprocs);
  const auto p = static_cast<std::size_t>(spec.nprocs);
  std::vector<std::vector<Key>> parts(p), result(p);
  for (int r = 0; r < spec.nprocs; ++r) {
    parts[static_cast<std::size_t>(r)].resize(homes.count_of(r));
  }
  const Checksum input = generate_partitions(spec, homes, [&](int r) {
    return std::span<Key>(parts[static_cast<std::size_t>(r)]);
  });

  const bool paired = paired_records(spec);
  std::vector<std::vector<keys::Payload>> pay_parts(paired ? p : 0);
  std::vector<std::vector<keys::Payload>> pay_result(paired ? p : 0);
  std::uint64_t input_pairs = 0;
  if (paired) {
    for (int r = 0; r < spec.nprocs; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      pay_parts[rr].resize(homes.count_of(r));
      iota_payload(pay_parts[rr], homes.begin_of(r));
      input_pairs += pair_fingerprint(parts[rr], pay_parts[rr]);
    }
  }

  MpiSampleWorld w;
  w.comm = &comm;
  w.parts = &parts;
  w.result = &result;
  if (paired) {
    w.pay_parts = &pay_parts;
    w.pay_result = &pay_result;
  }
  w.radix_bits = spec.radix_bits;
  w.sample_count = spec.ablations.sample_count;
  w.local_sort = local_sort_of(spec.algo);
  w.kernels = spec.kernel_backend;
  w.kernel_jobs = spec.kernel_jobs;
  team.run([&](sim::ProcContext& ctx) { sample_mpi(ctx, w); });

  std::vector<std::span<const Key>> runs;
  for (const auto& run : result) runs.emplace_back(run);
  PayloadRuns pay_runs;
  for (const auto& lane : pay_result) pay_runs.emplace_back(lane);
  return finish(spec, team, input, runs, -1, paired ? &pay_runs : nullptr,
                input_pairs);
}

SortResult run_sample_shmem(const SortSpec& spec,
                            const machine::MachineParams& mp) {
  sim::SimTeam team(spec.nprocs, mp, spec.engine);
  arm_team(spec, team);
  const sas::HomeMap homes(spec.n, spec.nprocs);
  const Index cap = homes.count_of(0);
  const std::uint64_t seg = cap * sizeof(Key) + 4096;
  shmem::SymmetricHeap heap(spec.nprocs, seg);
  shmem::Shmem sh(team, heap);
  const auto p = static_cast<std::size_t>(spec.nprocs);
  std::vector<std::vector<Key>> result(p);

  ShmemSampleWorld w;
  w.sh = &sh;
  w.off_keys = heap.alloc<Key>(cap);
  w.part_capacity = cap;
  w.n_total = spec.n;
  w.result = &result;
  w.radix_bits = spec.radix_bits;
  w.sample_count = spec.ablations.sample_count;
  w.local_sort = local_sort_of(spec.algo);
  w.kernels = spec.kernel_backend;
  w.kernel_jobs = spec.kernel_jobs;

  const Checksum input = generate_partitions(spec, homes, [&](int r) {
    return std::span<Key>(heap.at<Key>(r, w.off_keys), homes.count_of(r));
  });

  const bool paired = paired_records(spec);
  std::vector<std::vector<keys::Payload>> pay_parts(paired ? p : 0);
  std::vector<std::vector<keys::Payload>> pay_result(paired ? p : 0);
  std::uint64_t input_pairs = 0;
  if (paired) {
    for (int r = 0; r < spec.nprocs; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      pay_parts[rr].resize(homes.count_of(r));
      iota_payload(pay_parts[rr], homes.begin_of(r));
      input_pairs += pair_fingerprint(
          std::span<const Key>(heap.at<Key>(r, w.off_keys),
                               homes.count_of(r)),
          pay_parts[rr]);
    }
    w.pay_parts = &pay_parts;
    w.pay_result = &pay_result;
  }
  team.run([&](sim::ProcContext& ctx) { sample_shmem(ctx, w); });

  std::vector<std::span<const Key>> runs;
  for (const auto& run : result) runs.emplace_back(run);
  PayloadRuns pay_runs;
  for (const auto& lane : pay_result) pay_runs.emplace_back(lane);
  return finish(spec, team, input, runs, -1, paired ? &pay_runs : nullptr,
                input_pairs);
}

SortResult run_sort_impl(const SortSpec& spec,
                         const machine::MachineParams& mp) {
  if (spec.algo == Algo::kRadix) {
    switch (spec.model) {
      case Model::kCcSas:
      case Model::kCcSasNew: return run_radix_ccsas(spec, mp);
      case Model::kMpi: return run_radix_mpi(spec, mp);
      case Model::kShmem: return run_radix_shmem(spec, mp);
    }
  } else {
    // kSample, kMsdRadix and kMergesort all run the sample-sort skeleton;
    // run_sample_* pick the local-sort kernel via local_sort_of.
    switch (spec.model) {
      case Model::kCcSas: return run_sample_ccsas(spec, mp);
      case Model::kCcSasNew: break;  // rejected by validate_status()
      case Model::kMpi: return run_sample_mpi(spec, mp);
      case Model::kShmem: return run_sample_shmem(spec, mp);
    }
  }
  throw Error("unhandled spec");
}

}  // namespace

const char* algo_name(Algo a) { return enum_name<Algo>(kAlgoNames, a); }

const char* model_name(Model m) { return enum_name<Model>(kModelNames, m); }

Result<Algo> try_algo_from_name(const std::string& name) {
  return enum_from_name<Algo>(kAlgoNames, name, "algorithm");
}

Result<Model> try_model_from_name(const std::string& name) {
  return enum_from_name<Model>(kModelNames, name, "model");
}

machine::MachineParams SortSpec::resolved_machine() const {
  return machine.value_or(machine::MachineParams::origin2000_for_keys(n));
}

Status SortSpec::validate_status() const {
  std::string v;
  const auto violation = [&v](const std::string& msg) {
    if (!v.empty()) v += "; ";
    v += msg;
  };
  if (!(nprocs >= 1 && nprocs <= 1024)) {
    violation("nprocs must be in [1, 1024], got " + std::to_string(nprocs));
  } else if (n < static_cast<Index>(nprocs)) {
    // Only meaningful against a sane nprocs.
    violation("need at least one key per process (n=" + std::to_string(n) +
              ", nprocs=" + std::to_string(nprocs) + ")");
  }
  if (!(radix_bits >= 1 && radix_bits <= 16)) {
    violation("radix bits must be in [1, 16], got " +
              std::to_string(radix_bits));
  }
  if (kernel_jobs < 1) {
    violation("kernel jobs must be >= 1, got " + std::to_string(kernel_jobs));
  }
  if (ablations.sample_count < 1) {
    violation("sample count must be >= 1, got " +
              std::to_string(ablations.sample_count));
  }
  if (ablations.sample_group_size < 1) {
    violation("sample group size must be >= 1, got " +
              std::to_string(ablations.sample_group_size));
  }
  if (!algo_supports_model(algo, model)) {
    violation("CC-SAS-NEW is a radix-sort restructuring only");
  }
  if (keys::record_info(record).has_payload) {
    // Payload-carrying records (DESIGN.md §11). The payload is the key's
    // 32-bit global input index, and two message-layer ablations reorganise
    // keys receiver-side in ways the host payload mirror cannot replay.
    if (n > (Index{1} << 32)) {
      violation("record '" + std::string(keys::record_name(record)) +
                "' carries a 32-bit payload index; n must be <= 2^32, got " +
                std::to_string(n));
    }
    if (algo == Algo::kRadix && model == Model::kMpi &&
        !ablations.mpi_chunk_messages) {
      violation("record '" + std::string(keys::record_name(record)) +
                "' is not supported by the coalesced-message MPI radix "
                "ablation (payloads need chunked messages)");
    }
    if (algo == Algo::kRadix && model == Model::kShmem &&
        ablations.shmem_use_put) {
      violation("record '" + std::string(keys::record_name(record)) +
                "' is not supported by the SHMEM put-based radix ablation "
                "(payloads need the get path)");
    }
  }
  try {
    resolved_machine().validate();
  } catch (const Error& e) {
    violation(e.what());
  }
  if (v.empty()) return Status();
  return Status::invalid_argument("invalid SortSpec: " + v);
}

Result<SortResult> try_run_sort(const SortSpec& spec) {
  Status valid = spec.validate_status();
  if (!valid.ok()) return valid;
  try {
    return run_sort_impl(spec, spec.resolved_machine());
  } catch (const Error& e) {
    return e.status();
  } catch (const std::exception& e) {
    return Status::internal(e.what());
  }
}

double seq_baseline_ns(Index n, keys::Dist dist, int radix_bits,
                       const machine::MachineParams& machine,
                       std::uint64_t seed) {
  sim::SimTeam team(1, machine);
  std::vector<Key> keys(n), tmp(n);
  const sas::HomeMap homes(n, 1);
  generate_partitions_cached(dist, n, 1, radix_bits, seed, homes,
                             [&](int) { return std::span<Key>(keys); });
  team.run([&](sim::ProcContext& ctx) {
    local_radix_sort(ctx, keys, tmp, radix_bits);
  });
  DSM_CHECK(std::is_sorted(keys.begin(), keys.end()),
            "sequential baseline failed to sort");
  return team.elapsed_ns();
}

double SortResult::imbalance() const {
  if (run_sizes.empty() || n == 0) return 1.0;
  Index mx = 0;
  for (const Index s : run_sizes) mx = std::max(mx, s);
  const double mean =
      static_cast<double>(n) / static_cast<double>(run_sizes.size());
  return static_cast<double>(mx) / mean;
}

double speedup(double baseline_ns, double parallel_ns) {
  DSM_REQUIRE(parallel_ns > 0, "parallel time must be positive");
  return baseline_ns / parallel_ns;
}

}  // namespace dsm::sort
