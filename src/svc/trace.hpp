// Seeded request-trace generation and a plain-text trace format.
//
// A trace is the unit of reproducibility for the service: the load
// generator derives a job stream deterministically from (seed, count, mix)
// via SplitMix64, and the same trace file replayed through
// SortService::replay yields byte-identical results for any worker count.
//
// Text format, one job per line (whitespace-separated, '#' comments and
// blank lines skipped), always exactly 11 fields:
//
//   id n nprocs dist seed force_algo force_model force_radix
//     deadline_us priority record
//
// where the three force_* fields are '-' when the planner chooses,
// deadline_us is the virtual-time deadline in microseconds ('-' = none),
// and record is the record type's name (u32, kv32). Every integer is
// parsed whole into its field's own type (wire::parse_whole).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "svc/job.hpp"

namespace dsm::svc {

/// The job-mix a generated trace draws from (uniformly, per dimension).
struct LoadMix {
  std::vector<std::uint64_t> sizes{1u << 20, 4u << 20, 16u << 20};
  std::vector<int> procs{16, 32, 64};
  std::vector<keys::Dist> dists{std::begin(keys::kAllDists),
                                std::end(keys::kAllDists)};
  /// Virtual deadlines (us; 0 = none) and priorities drawn per job. The
  /// trivial defaults draw nothing, so the PRNG stream — and therefore
  /// every trace generated before deadlines existed — is unchanged.
  std::vector<std::uint64_t> deadlines_us{0};
  std::vector<int> priorities{0};
  /// Record types drawn per job; the trivial {u32} default draws nothing
  /// (same PRNG-preservation rule as deadlines/priorities).
  std::vector<keys::RecordType> records{keys::RecordType::kU32};
  /// Algorithms force-pinned per job (`JobSpec.force_algo`). The empty
  /// default draws nothing and leaves every job to the planner's menu —
  /// the PRNG-preservation rule again, so traces generated before the
  /// knob existed are byte-identical.
  std::vector<sort::Algo> algos{};
};

/// Generate `count` jobs deterministically from `seed` over `mix`.
/// Job ids are 0..count-1 in arrival order. Throws Error(kInvalidArgument)
/// when the mix yields an invalid job (e.g. fewer keys than processes).
std::vector<JobSpec> make_trace(std::uint64_t seed, std::size_t count,
                                const LoadMix& mix);

std::string trace_to_text(std::span<const JobSpec> jobs);
/// kInvalidArgument naming the first bad line; never throws.
Result<std::vector<JobSpec>> trace_from_text(const std::string& text);

/// Atomic publish; kIoError on failure.
Status write_trace(const std::string& path, std::span<const JobSpec> jobs);
/// kIoError when `path` cannot be read, else trace_from_text's result.
Result<std::vector<JobSpec>> read_trace(const std::string& path);

}  // namespace dsm::svc
