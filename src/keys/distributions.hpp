// The eight key-initialisation methods of §3.3 of the paper.
//
// All generators fill one process's partition deterministically from
// (seed, rank), so a p-process data set is reproducible and can be
// generated in parallel. `gauss` reproduces the exact NAS/SPLASH-2
// recurrence (x_{k+1} = 513 x_k mod 2^46) with jump-ahead so the global
// key stream is identical regardless of p.
//
// `remote` and `local` are parameterised by the radix size r and process
// count p, exactly as the paper defines them: they shape each r-bit digit
// so the radix permutation moves, respectively, all keys to other
// processes every pass, or no keys at all.
// Beyond the paper's eight, four skewed distributions open the workload
// axis the paper could not study (its finding 5 predicts distribution
// only matters past L2 capacity): Zipf-popular keys, duplicate-heavy
// small domains, nearly-sorted inputs, and an adversarial
// nearly-all-equal stream that starves every high radix digit and
// stresses sample sort's splitter tie-breaking. All four are stateless
// per global index — deterministic per rank and identical for every
// partitioning, like `random`.
#pragma once

#include <span>
#include <string>

#include "common/cli.hpp"
#include "common/types.hpp"

namespace dsm::keys {

enum class Dist {
  kGauss,    // NAS/SPLASH-2 default: average of 4 LCG draws
  kRandom,   // uniform in [0, 2^31)
  kZero,     // random, but every tenth key is 0
  kBucket,   // p^2 blocks cycling through the p value ranges
  kStagger,  // staggered block permutation of the value ranges
  kHalf,     // gauss restricted to even keys
  kRemote,   // maximal key movement every radix pass
  kLocal,    // no key movement in any radix pass
  // --- skewed workloads beyond the paper (finding-5 probes) ---
  kZipf,         // Zipf(1)-popular hot set of 1024 scattered values
  kDup,          // duplicate-heavy: 64 distinct values total
  kAlmostSorted, // ascending ramp with ~1/64 random displacements
  kAdversarial,  // ~94% one hot value; rest differ in the low byte only
};

/// The paper's §3.3 set. Figure sweeps, the service trace generator, and
/// the paper-facing tables iterate exactly these eight — the skewed
/// additions live in kSkewDists so historical outputs stay byte-identical.
inline constexpr Dist kAllDists[] = {Dist::kGauss,  Dist::kRandom,
                                     Dist::kZero,   Dist::kBucket,
                                     Dist::kStagger, Dist::kHalf,
                                     Dist::kRemote, Dist::kLocal};

/// The post-paper skew axis (ROADMAP item 2).
inline constexpr Dist kSkewDists[] = {Dist::kZipf, Dist::kDup,
                                      Dist::kAlmostSorted,
                                      Dist::kAdversarial};

/// Canonical registry table (see common/cli.hpp): every distribution,
/// paper and skewed. Wire names are part of the journal format.
inline constexpr EnumEntry<Dist> kDistNames[] = {
    {Dist::kGauss, "gauss"},       {Dist::kRandom, "random"},
    {Dist::kZero, "zero"},         {Dist::kBucket, "bucket"},
    {Dist::kStagger, "stagger"},   {Dist::kHalf, "half"},
    {Dist::kRemote, "remote"},     {Dist::kLocal, "local"},
    {Dist::kZipf, "zipf"},         {Dist::kDup, "dup"},
    {Dist::kAlmostSorted, "almost-sorted"},
    {Dist::kAdversarial, "adversarial"},
};

const char* dist_name(Dist d);

/// Parse "gauss", "random", ... (--dist flags, codecs, traces):
/// kInvalidArgument listing the accepted names on failure.
Result<Dist> try_dist_from_name(const std::string& name);

/// Parameters a generator needs beyond the output span.
struct GenSpec {
  Index n_total = 0;       // global key count
  Index global_begin = 0;  // global index of out[0]
  int rank = 0;            // owning process
  int nprocs = 1;
  int radix_bits = 8;      // r — used by kRemote / kLocal
  std::uint64_t seed = 1;  // base seed; gauss uses the NAS seed internally
};

/// Fill `out` (= the rank's partition) with keys of distribution `d`.
void generate(Dist d, std::span<Key> out, const GenSpec& spec);

}  // namespace dsm::keys
