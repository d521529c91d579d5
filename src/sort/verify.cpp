#include "sort/verify.hpp"

#include <algorithm>

namespace dsm::sort {

Checksum checksum_of(std::span<const Key> keys) {
  Checksum c;
  c.count = keys.size();
  for (const Key k : keys) {
    const auto v = static_cast<std::uint64_t>(k);
    c.sum += v;
    c.xor_ ^= v * 0x9e3779b97f4a7c15ull;  // spread duplicates across bits
    c.sum_sq += v * v;
  }
  return c;
}

Checksum combine(const Checksum& a, const Checksum& b) {
  return Checksum{a.count + b.count, a.sum + b.sum, a.xor_ ^ b.xor_,
                  a.sum_sq + b.sum_sq};
}

bool runs_sorted(std::span<const std::span<const Key>> runs) {
  bool have_prev = false;
  Key prev = 0;
  for (const auto& run : runs) {
    for (const Key k : run) {
      if (have_prev && k < prev) return false;
      prev = k;
      have_prev = true;
    }
  }
  return true;
}

bool verify_sorted_runs(const Checksum& input,
                        std::span<const std::span<const Key>> runs) {
  Checksum c;
  bool sorted = true;
  Key prev = 0;  // Key is unsigned, so the first compare is never a miss
  for (const auto& run : runs) {
    c.count += run.size();
    for (const Key k : run) {
      const auto v = static_cast<std::uint64_t>(k);
      c.sum += v;
      c.xor_ ^= v * 0x9e3779b97f4a7c15ull;
      c.sum_sq += v * v;
      sorted = sorted && k >= prev;
      prev = k;
    }
  }
  return sorted && c == input;
}

namespace {

// FNV-1a, one 32-bit key per step: position-sensitive by construction.
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t fnv_step(std::uint64_t h, Key k) {
  return (h ^ static_cast<std::uint64_t>(k)) * 1099511628211ull;
}

}  // namespace

std::uint64_t run_order_hash(std::span<const std::span<const Key>> runs) {
  std::uint64_t h = kFnvBasis;
  for (const auto& run : runs) {
    for (const Key k : run) h = fnv_step(h, k);
  }
  return h;
}

RunsVerdict verify_and_hash_runs(const Checksum& input,
                                 std::span<const std::span<const Key>> runs) {
  Checksum c;
  bool sorted = true;
  Key prev = 0;  // Key is unsigned, so the first compare is never a miss
  std::uint64_t h = kFnvBasis;
  for (const auto& run : runs) {
    c.count += run.size();
    for (const Key k : run) {
      const auto v = static_cast<std::uint64_t>(k);
      c.sum += v;
      c.xor_ ^= v * 0x9e3779b97f4a7c15ull;
      c.sum_sq += v * v;
      sorted = sorted && k >= prev;
      prev = k;
      h = fnv_step(h, k);
    }
  }
  return RunsVerdict{sorted && c == input, h};
}

bool exact_multiset_equal(std::span<const Key> a, std::span<const Key> b) {
  if (a.size() != b.size()) return false;
  std::vector<Key> sa(a.begin(), a.end());
  std::vector<Key> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  return sa == sb;
}

namespace {

/// SplitMix64 finalizer: mixes the packed pair so the commutative folds
/// below distinguish re-matched pairings, not just value multisets.
std::uint64_t mix_pair(Key k, keys::Payload p) {
  std::uint64_t z =
      (static_cast<std::uint64_t>(k) << 32) | static_cast<std::uint64_t>(p);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t pair_fingerprint(std::span<const Key> keys,
                               std::span<const keys::Payload> payloads) {
  std::uint64_t fp = keys.size() * 0x9e3779b97f4a7c15ull;
  const std::size_t n = keys.size();
  for (std::size_t i = 0; i < n; ++i) {
    fp += mix_pair(keys[i], payloads[i]);  // commutative: order-independent
  }
  return fp;
}

RunsVerdict verify_sorted_runs_paired(
    const Checksum& input_keys, std::uint64_t input_pairs,
    std::span<const std::span<const Key>> key_runs,
    std::span<const std::span<const keys::Payload>> payload_runs,
    bool require_stable) {
  if (key_runs.size() != payload_runs.size()) return RunsVerdict{};
  Checksum c;
  std::uint64_t h = kFnvBasis;
  std::uint64_t fp = 0;
  std::uint64_t total = 0;
  bool ok = true;
  Key prev = 0;
  keys::Payload prev_pay = 0;
  bool have_prev = false;
  for (std::size_t r = 0; r < key_runs.size(); ++r) {
    const auto& keys_run = key_runs[r];
    const auto& pay_run = payload_runs[r];
    if (keys_run.size() != pay_run.size()) return RunsVerdict{};
    c.count += keys_run.size();
    total += keys_run.size();
    for (std::size_t i = 0; i < keys_run.size(); ++i) {
      const Key k = keys_run[i];
      const keys::Payload p = pay_run[i];
      const auto v = static_cast<std::uint64_t>(k);
      c.sum += v;
      c.xor_ ^= v * 0x9e3779b97f4a7c15ull;
      c.sum_sq += v * v;
      fp += mix_pair(k, p);
      h = fnv_step(h, k);
      if (have_prev) {
        ok = ok && k >= prev;
        if (require_stable && k == prev) ok = ok && p > prev_pay;
      }
      prev = k;
      prev_pay = p;
      have_prev = true;
    }
  }
  fp += total * 0x9e3779b97f4a7c15ull;
  return RunsVerdict{ok && c == input_keys && fp == input_pairs, h};
}

}  // namespace dsm::sort
