#include "sort/sort_api.hpp"

#include <algorithm>
#include <exception>
#include <numeric>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "sas/prefix_tree.hpp"
#include "sas/shared_array.hpp"
#include "shmem/shmem.hpp"
#include "sim/team.hpp"
#include "sort/input_cache.hpp"
#include "sort/radix_parallel.hpp"
#include "sort/sample_parallel.hpp"
#include "sort/seq_radix.hpp"
#include "sort/verify.hpp"

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
/// regardless of the host schedule.
void arm_team(const SortSpec& spec, sim::SimTeam& team) {
  if (!spec.trace_json_path.empty()) team.enable_tracing();
  if (spec.hooks.on_site || spec.hooks.cancel != nullptr) {
    team.set_phase_hook(
        [&spec](int rank, const char* name, double virtual_ns) {
          if (rank == 0) checkpoint(spec, name, virtual_ns);
        });
  }
}

/// A sort's generated input (host-side, uncharged — the paper times
/// sorting, not initialisation), written into the n-key global array in
/// block-partition order: the key multiset checksum and, for a
/// payload-carrying record, the payload lane (DESIGN.md §11), indexed by
/// global position like the keys. `pays` holds each key's global input
/// index, the canonical payload: ascending payloads within every
/// equal-key run of the output prove stability. Empty for u32.
struct Input {
  Checksum keys;
  std::uint64_t pairs = 0;  // pair_fingerprint of the input records
  std::vector<keys::Payload> pays;
};

Input fill_input(const SortSpec& spec, std::span<Key> global) {
  const sas::HomeMap homes(spec.n, spec.nprocs);
  Input in;
  in.keys = generate_partitions_cached(
      spec.dist, spec.n, spec.nprocs, spec.radix_bits, spec.seed, homes,
      [&](int r) {
        return global.subspan(homes.begin_of(r), homes.count_of(r));
      });
  if (!keys::record_info(spec.record).has_payload) return in;
  in.pays.resize(spec.n);
  std::iota(in.pays.begin(), in.pays.end(), keys::Payload{0});
  in.pairs = pair_fingerprint(global, in.pays);
  return in;
}

/// Publish the run's event trace when the spec asks for one. The write is
/// atomic (temporary, fsync, rename), so a failed write, fsync or close
/// surfaces as kIoError instead of leaving a truncated trace behind.
void write_trace(const SortSpec& spec, const sim::SimTeam& team) {
  if (spec.trace_json_path.empty()) return;
  const Status s = try_write_file_atomic(spec.trace_json_path,
                                         team.trace_json());
  if (!s.ok()) {
    throw Error(Status::io_error("cannot write trace: " + s.message()));
  }
}

/// The verdict on a record's output, checked against its input
/// checksums: key order and key multiset, plus for a payload-carrying
/// record the exact (key, payload) multiset and stability. Every
/// algorithm here is stable (LSD radix by construction; the sample-sort
/// skeleton — and the MSD and mergesort backends riding on it — because
/// the splitter tie-break routes equal keys by source rank, partitions
/// ascend by rank, and every local payload mirror is a stable record
/// sort). One sweep over the output also computes its order hash.
RunsVerdict verdict_of(const RecordedOutput& rec) {
  const std::span<const Key> keys[] = {rec.keys};
  if (rec.payloads.empty()) return verify_and_hash_runs(rec.input, keys);
  const std::span<const keys::Payload> pays[] = {rec.payloads};
  return verify_sorted_runs_paired(rec.input, rec.input_pairs, keys, pays,
                                   /*require_stable=*/true);
}

/// The record `spec` asks for (DESIGN.md §5.3), shared with the sorts of
/// the same input that find it retained. Every caller passes the "keygen"
/// checkpoint; only the one that records generates the input, executes
/// the sort (`execute`: record_lsd or record_sample) and verifies the
/// output, once for every sort that shares the record.
template <typename Rec>
std::shared_ptr<const Rec> record_for(
    const SortSpec& spec,
    Rec (*execute)(const SortSpec&, std::vector<Key>,
                   std::vector<keys::Payload>)) {
  checkpoint(spec, "keygen", 0.0);
  return shared_record<Rec>(spec, [&spec, execute] {
    std::vector<Key> keys(spec.n);
    Input in = fill_input(spec, keys);
    Rec rec = execute(spec, std::move(keys), std::move(in.pays));
    rec.input = in.keys;
    rec.input_pairs = in.pairs;
    rec.verdict = verdict_of(rec);
    return rec;
  });
}

/// Fill the result from the team and the record, check the record's
/// verdict and publish the trace. The concatenation of the sort's runs,
/// `run_sizes` long each, is the record's output.
SortResult finish(const SortSpec& spec, sim::SimTeam& team,
                  const RecordedOutput& rec, int passes,
                  std::vector<Index> run_sizes) {
  checkpoint(spec, "verify", team.elapsed_ns());
  SortResult res;
  res.n = spec.n;
  res.record = spec.record;
  res.passes = passes;
  res.elapsed_ns = team.elapsed_ns();
  res.per_proc.reserve(static_cast<std::size_t>(spec.nprocs));
  for (int r = 0; r < spec.nprocs; ++r) {
    res.per_proc.push_back(team.breakdown_of(r));
  }
  res.phases = team.mean_phase_report();
  res.run_sizes = std::move(run_sizes);
  if (spec.keep_output) {
    res.output = rec.keys;
    res.payload_output = rec.payloads;
  }
  res.verified = !spec.verify || rec.verdict.ok;
  DSM_CHECK(res.verified, "sort produced an incorrect result");
  res.input_checksum = rec.input;
  res.run_hash = rec.verdict.order_hash;
  write_trace(spec, team);
  return res;
}

/// Radix sort under any model: one shared record, then the model's charge
/// program on a fresh team.
SortResult run_radix(const SortSpec& spec, const machine::MachineParams& mp) {
  sim::SimTeam team(spec.nprocs, mp);
  arm_team(spec, team);
  const std::shared_ptr<const LsdRecord> rec =
      record_for<LsdRecord>(spec, record_lsd);
  switch (spec.model) {
    case Model::kCcSas:
    case Model::kCcSasNew: {
      sas::BucketScan scan(spec.nprocs, std::size_t{1} << spec.radix_bits);
      const CcSasRadixWorld w{.spec = spec, .rec = *rec, .scan = &scan};
      team.run([&](sim::ProcContext& ctx) { radix_ccsas(ctx, w); });
      break;
    }
    case Model::kMpi: {
      msg::Communicator comm(team, spec.ablations.mpi_impl);
      const MpiRadixWorld w{.spec = spec, .rec = *rec, .comm = &comm};
      team.run([&](sim::ProcContext& ctx) { radix_mpi(ctx, w); });
      break;
    }
    case Model::kShmem: {
      shmem::SymmetricHeap heap(spec.nprocs, 64);  // the program stores nothing
      shmem::Shmem sh(team, heap);
      const ShmemRadixWorld w{.spec = spec, .rec = *rec, .sh = &sh};
      team.run([&](sim::ProcContext& ctx) { radix_shmem(ctx, w); });
      break;
    }
  }
  // CC-SAS sorts one shared array: one run. MPI and SHMEM sort private
  // partitions: one run per rank.
  std::vector<Index> run_sizes;
  if (spec.model == Model::kCcSas || spec.model == Model::kCcSasNew) {
    run_sizes.push_back(spec.n);
  } else {
    for (int r = 0; r < spec.nprocs; ++r) {
      run_sizes.push_back(rec->homes.count_of(r));
    }
  }
  return finish(spec, team, *rec, rec->passes, std::move(run_sizes));
}

/// kSample, kMsdRadix and kMergesort all run the sample-sort skeleton,
/// which picks the local-sort kernel from spec.algo: one shared record,
/// then the model's charge program on a fresh team. Every model reports
/// one run per rank.
SortResult run_sample(const SortSpec& spec, const machine::MachineParams& mp) {
  sim::SimTeam team(spec.nprocs, mp);
  arm_team(spec, team);
  const std::shared_ptr<const SampleRecord> rec =
      record_for<SampleRecord>(spec, record_sample);
  switch (spec.model) {
    case Model::kCcSas: {
      const CcSasSampleWorld w{.spec = spec, .rec = *rec};
      team.run([&](sim::ProcContext& ctx) { sample_ccsas(ctx, w); });
      break;
    }
    case Model::kCcSasNew:  // rejected by validate_status()
      throw Error("CC-SAS-NEW is a radix-sort restructuring only");
    case Model::kMpi: {
      msg::Communicator comm(team, spec.ablations.mpi_impl);
      const MpiSampleWorld w{.spec = spec, .rec = *rec, .comm = &comm};
      team.run([&](sim::ProcContext& ctx) { sample_mpi(ctx, w); });
      break;
    }
    case Model::kShmem: {
      shmem::SymmetricHeap heap(spec.nprocs, 64);  // the program stores nothing
      shmem::Shmem sh(team, heap);
      const ShmemSampleWorld w{.spec = spec, .rec = *rec, .sh = &sh};
      team.run([&](sim::ProcContext& ctx) { sample_shmem(ctx, w); });
      break;
    }
  }
  std::vector<Index> run_sizes;
  for (int r = 0; r < spec.nprocs; ++r) {
    run_sizes.push_back(rec->run(r).size());
  }
  return finish(spec, team, *rec, radix_passes(spec.radix_bits),
                std::move(run_sizes));
}

SortResult run_sort_impl(const SortSpec& spec,
                         const machine::MachineParams& mp) {
  return spec.algo == Algo::kRadix ? run_radix(spec, mp)
                                   : run_sample(spec, mp);
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
  // Payload-carrying records (DESIGN.md §11): the payload is the key's
  // 32-bit global input index.
  if (keys::record_info(record).has_payload && n > (Index{1} << 32)) {
    violation("record '" + std::string(keys::record_name(record)) +
              "' carries a 32-bit payload index; n must be <= 2^32, got " +
              std::to_string(n));
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
