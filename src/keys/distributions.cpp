#include "keys/distributions.hpp"

#include <cmath>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"

namespace dsm::keys {
namespace {

/// Stateless per-key uniform value in [0, 2^31): makes random/zero data
/// independent of how the key array is partitioned, so the sequential
/// baseline sorts exactly the same keys as any parallel run.
Key stateless_u31(std::uint64_t seed, Index global_index) {
  SplitMix64 g(seed ^ (global_index * 0x9e3779b97f4a7c15ull));
  return static_cast<Key>(g.next() >> 33);  // top 31 bits
}

void gen_gauss(std::span<Key> out, const GenSpec& spec, bool force_even) {
  // NAS IS / SPLASH-2: each key is the average of four consecutive draws
  // of x_{k+1} = 513 x_k mod 2^46. Jump-ahead keeps the global stream
  // independent of the partitioning. The four draws of a key advance as
  // four independent lanes (x_{k+4} = 513^4 x_k), so their multiplies
  // overlap instead of forming one dependent chain.
  NasLcg46 lcg(NasLcg46::kDefaultSeed ^ (spec.seed == 1 ? 0 : spec.seed));
  lcg.jump(4 * spec.global_begin);
  const std::uint64_t stride = NasLcg46::pow_mult(4);
  std::uint64_t x[4];
  for (std::uint64_t& lane : x) lane = lcg.next();
  for (Key& k : out) {
    const std::uint64_t sum = x[0] + x[1] + x[2] + x[3];
    // Average of values in [0, 2^46), scaled to [0, 2^31).
    k = static_cast<Key>((sum >> 2) >> (46 - kKeyBits));
    if (force_even) k &= ~Key{1};
    for (std::uint64_t& lane : x) lane = (lane * stride) & NasLcg46::kModMask;
  }
}

void gen_random(std::span<Key> out, const GenSpec& spec, bool zero_tenth) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Index gi = spec.global_begin + i;
    out[i] = (zero_tenth && gi % 10 == 0) ? 0 : stateless_u31(spec.seed, gi);
  }
}

void gen_bucket(std::span<Key> out, const GenSpec& spec) {
  // The first n/p^2 elements at each process are random in [0, MAX/p),
  // the second n/p^2 in [MAX/p, 2 MAX/p), and so on, cycling.
  const auto p = static_cast<std::uint64_t>(spec.nprocs);
  const std::uint64_t per_proc = spec.n_total / p;
  const std::uint64_t block = std::max<std::uint64_t>(1, per_proc / p);
  const std::uint64_t range = kKeyMax / p;
  SplitMix64 g(mix_seed(spec.seed, static_cast<std::uint64_t>(spec.rank)));
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t slot = (static_cast<std::uint64_t>(i) / block) % p;
    const std::uint64_t lo = slot * range;
    out[i] = static_cast<Key>(g.next_in(lo, lo + range));
  }
}

void gen_stagger(std::span<Key> out, const GenSpec& spec) {
  // Process i draws from range (2i+1) if i < p/2, else range (2i - p)
  // (unit = MAX/p) — a fixed staggered permutation of the value ranges.
  const auto p = static_cast<std::uint64_t>(spec.nprocs);
  const auto i = static_cast<std::uint64_t>(spec.rank);
  const std::uint64_t range = kKeyMax / p;
  const std::uint64_t slot = i < p / 2 ? (2 * i + 1) % p : (2 * i - p) % p;
  const std::uint64_t lo = slot * range;
  SplitMix64 g(mix_seed(spec.seed, i));
  for (Key& k : out) k = static_cast<Key>(g.next_in(lo, lo + range));
}

/// Stateless uniform double in [0, 1) from the same generator family.
double stateless_unit(std::uint64_t seed, Index global_index) {
  SplitMix64 g(seed ^ (global_index * 0x9e3779b97f4a7c15ull) ^
               0xc2b2ae3d27d4eb4full);
  return static_cast<double>(g.next() >> 11) * 0x1.0p-53;
}

/// Zipf(1)-popular keys: a hot set of kZipfHotSet values whose ranks are
/// drawn by inverting the harmonic CDF (P(rank <= i) ~ ln(i+1)/ln(N+1)),
/// so rank 0 alone carries ~10% of the keys. The hot values themselves
/// are scattered pseudo-randomly over [0, 2^31) so the skew is in the
/// *frequencies*, not the value range — every radix digit still sees
/// duplicates pile up.
constexpr std::uint64_t kZipfHotSet = 1024;

Key zipf_value_of(std::uint64_t seed, std::uint64_t rank) {
  return stateless_u31(seed ^ 0x5a17f00ddead10ccull, rank);
}

void gen_zipf(std::span<Key> out, const GenSpec& spec) {
  const double ln_n1 = std::log(static_cast<double>(kZipfHotSet + 1));
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Index gi = spec.global_begin + i;
    const double u = stateless_unit(spec.seed, gi);
    const auto rank = static_cast<std::uint64_t>(
        std::exp(u * ln_n1)) - 1;  // in [0, kZipfHotSet)
    out[i] = zipf_value_of(spec.seed,
                           rank >= kZipfHotSet ? kZipfHotSet - 1 : rank);
  }
}

/// Duplicate-heavy: 64 distinct values total, uniformly popular. With
/// n >> 64 every radix bucket that is hit at all is hit massively — the
/// regime where splitter tie-breaking and run-length charging matter.
constexpr std::uint64_t kDupDomain = 64;

void gen_dup(std::span<Key> out, const GenSpec& spec) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Index gi = spec.global_begin + i;
    const std::uint64_t slot =
        stateless_u31(spec.seed ^ 0xd0bb1e5ull, gi) % kDupDomain;
    out[i] = zipf_value_of(spec.seed, slot);
  }
}

/// Nearly sorted: the global stream is an ascending ramp over the full
/// value range with ~1/64 of positions displaced to random values —
/// radix passes move almost nothing, comparison phases see long runs.
void gen_almost_sorted(std::span<Key> out, const GenSpec& spec) {
  const std::uint64_t denom =
      spec.n_total > 1 ? spec.n_total - 1 : std::uint64_t{1};
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Index gi = spec.global_begin + i;
    if (stateless_u31(spec.seed ^ 0xa15037edull, gi) % 64 == 0) {
      out[i] = stateless_u31(spec.seed, gi);
    } else {
      out[i] = static_cast<Key>((static_cast<std::uint64_t>(gi) *
                                 (kKeyMax - 1)) / denom);
    }
  }
}

/// Adversarial: ~94% of keys are one hot value; the rest differ from it
/// only in the low byte. Every digit above the first radix pass is
/// single-valued (all high passes are dead), the global histogram is
/// maximally imbalanced, and sample sort's splitters are forced into the
/// duplicate tie-break path — the worst case finding 5 asks about.
void gen_adversarial(std::span<Key> out, const GenSpec& spec) {
  const Key hot = stateless_u31(spec.seed ^ 0xadbeefull, 0) | 0x100;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Index gi = spec.global_begin + i;
    const std::uint64_t h = stateless_u31(spec.seed ^ 0xfacadeull, gi);
    out[i] = (h % 16 != 0) ? hot
                           : (hot & ~Key{0xff}) |
                                 static_cast<Key>((h >> 8) & 0xff);
  }
}

void gen_remote_local(std::span<Key> out, const GenSpec& spec, bool local) {
  const int r = spec.radix_bits;
  const std::uint64_t digits = std::uint64_t{1} << r;
  const auto p = static_cast<std::uint64_t>(spec.nprocs);
  DSM_REQUIRE(digits >= p,
              "remote/local distributions need 2^radix >= nprocs");
  const auto i = static_cast<std::uint64_t>(spec.rank);
  const std::uint64_t lo = i * digits / p;
  const std::uint64_t hi = (i + 1) * digits / p;
  SplitMix64 g(mix_seed(spec.seed, i));
  const Key mask = static_cast<Key>(kKeyMax - 1);
  for (Key& k : out) {
    // d_own lies in this process's digit sub-range; d_other avoids it.
    const auto d_own = static_cast<Key>(g.next_in(lo, hi));
    Key d_other = d_own;
    // With one process there is nowhere else to send keys; `remote`
    // degenerates to `local` (the paper only defines it for p > 1).
    if (!local && digits > hi - lo) {
      const std::uint64_t excluded = hi - lo;
      const std::uint64_t v = g.next_below(digits - excluded);
      d_other = static_cast<Key>(v < lo ? v : v + excluded);
    }
    // local: every digit is d_own (keys never leave the process).
    // remote: even digits avoid the sub-range (pass k sends the key away),
    // odd digits return it home — "the third r bits are the same as the
    // first r bits, the fourth the same as the second, and so forth".
    std::uint64_t key = 0;
    for (int shift = 0, idx = 0; shift < kKeyBits; shift += r, ++idx) {
      const Key d = local ? d_own : (idx % 2 == 0 ? d_other : d_own);
      key |= static_cast<std::uint64_t>(d) << shift;
    }
    k = static_cast<Key>(key) & mask;
  }
}

}  // namespace

const char* dist_name(Dist d) { return enum_name<Dist>(kDistNames, d); }

Result<Dist> try_dist_from_name(const std::string& name) {
  return enum_from_name<Dist>(kDistNames, name, "distribution");
}

void generate(Dist d, std::span<Key> out, const GenSpec& spec) {
  DSM_REQUIRE(spec.nprocs >= 1, "nprocs >= 1");
  DSM_REQUIRE(spec.rank >= 0 && spec.rank < spec.nprocs, "rank in range");
  DSM_REQUIRE(spec.global_begin + out.size() <= spec.n_total,
              "partition exceeds the global key count");
  DSM_REQUIRE(spec.radix_bits >= 1 && spec.radix_bits <= 20,
              "radix bits out of range");
  switch (d) {
    case Dist::kGauss: gen_gauss(out, spec, /*force_even=*/false); return;
    case Dist::kHalf: gen_gauss(out, spec, /*force_even=*/true); return;
    case Dist::kRandom: gen_random(out, spec, /*zero_tenth=*/false); return;
    case Dist::kZero: gen_random(out, spec, /*zero_tenth=*/true); return;
    case Dist::kBucket: gen_bucket(out, spec); return;
    case Dist::kStagger: gen_stagger(out, spec); return;
    case Dist::kRemote: gen_remote_local(out, spec, /*local=*/false); return;
    case Dist::kLocal: gen_remote_local(out, spec, /*local=*/true); return;
    case Dist::kZipf: gen_zipf(out, spec); return;
    case Dist::kDup: gen_dup(out, spec); return;
    case Dist::kAlmostSorted: gen_almost_sorted(out, spec); return;
    case Dist::kAdversarial: gen_adversarial(out, spec); return;
  }
  throw Error("unhandled distribution");
}

}  // namespace dsm::keys
