// The benchmark's own arithmetic: percentiles, quartiles, span self time,
// open-loop latency and the comparison verdict. Everything here is pure so
// benchmark_selftest can pin it down (run.sh --selftest).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace bench {

/// Nearest-rank percentile: the smallest sample that has at least a share
/// `q` (0 < q <= 1) of all samples at or below it. Empty input gives 0.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto k = static_cast<std::size_t>(std::max(1.0, rank));
  return v[std::min(k, v.size()) - 1];
}

/// How many of `n` samples lie strictly beyond the nearest-rank q-th
/// percentile. A percentile is only reported with >= 10 samples beyond it.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  const auto k = static_cast<std::size_t>(std::max(1.0, rank));
  return n - std::min(k, n);
}

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

/// Quartiles exactly as Python's statistics.quantiles(values, n=4) gives
/// them (the default "exclusive" method), so the spreads this tool prints
/// are the ones an outside check computes. One sample gives that sample
/// three times; empty input gives zeros.
inline Quartiles quartiles(std::vector<double> v) {
  Quartiles out;
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long long>(v.size());
  if (n == 1) return Quartiles{v[0], v[0], v[0]};
  const long long m = n + 1;
  double q[3] = {};
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, n - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    q[i - 1] = (lo * (4 - delta) + hi * delta) / 4;
  }
  return Quartiles{q[0], q[1], q[2]};
}

inline double median(std::vector<double> v) {
  return quartiles(std::move(v)).median;
}

/// (q3 - q1) / median: the run-to-run spread as a share of the median.
inline double relative_spread(const std::vector<double>& v) {
  const Quartiles q = quartiles(v);
  return q.median == 0 ? 0 : (q.q3 - q.q1) / std::fabs(q.median);
}

struct Interval {
  double start = 0;
  double end = 0;
};

/// A span's self time: its duration minus the part of it that the union
/// of its children covers (children may overlap each other or stick out
/// of the parent; only the covered part of the parent is subtracted).
inline double self_time(Interval span, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0;
  double cur_start = 0;
  double cur_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    const double s = std::max(c.start, span.start);
    const double e = std::min(c.end, span.end);
    if (e <= s) continue;
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) covered += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) covered += cur_end - cur_start;
  return (span.end - span.start) - covered;
}

/// Open-loop latency of one job, counted from when it was due rather than
/// from when the generator got round to submitting it: the service's own
/// submit-to-completion latency plus the generator's lateness.
inline double latency_from_due_ms(double due_s, double submit_s,
                                  double service_latency_ms) {
  return service_latency_ms + (submit_s - due_s) * 1e3;
}

enum class Verdict { kBetter, kWorse, kUnchanged, kUnresolved };

inline const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kBetter: return "better";
    case Verdict::kWorse: return "worse";
    case Verdict::kUnchanged: return "unchanged";
    case Verdict::kUnresolved: return "unresolved";
  }
  return "?";
}

/// Minimum number of (parent, change) pairs a verdict needs.
inline constexpr std::size_t kMinPairs = 10;

struct Comparison {
  Quartiles parent;
  Quartiles change;
  std::size_t pairs = 0;
  double share_won = 0;      // pairs the change won; ties count for neither
  double parent_spread = 0;  // (q3 - q1) / median of the parent runs
  Verdict verdict = Verdict::kUnresolved;
};

/// The rule for one (workload, end-to-end metric) cell, from paired runs
/// (parent[i] and change[i] ran back to back, alternating which went
/// first). `bound` is the share of the parent median the metric may worsen
/// by before it counts as a regression.
///   * fewer than kMinPairs pairs: unresolved;
///   * better: the change wins >= 9/10 of the pairs and the medians differ
///     by more than the parent's own quartile distance;
///   * when the parent's spread is wider than the bound, anything short of
///     every change run beating every parent run is unresolved;
///   * worse: the change median is worse than the parent median by more
///     than the bound;
///   * otherwise unchanged.
inline Comparison compare_runs(const std::vector<double>& parent,
                               const std::vector<double>& change,
                               bool higher_is_better, double bound) {
  Comparison c;
  c.parent = quartiles(parent);
  c.change = quartiles(change);
  c.pairs = std::min(parent.size(), change.size());
  c.parent_spread = relative_spread(parent);
  const auto better = [&](double a, double b) {
    return higher_is_better ? a > b : a < b;
  };
  std::size_t won = 0;
  for (std::size_t i = 0; i < c.pairs; ++i) {
    if (better(change[i], parent[i])) ++won;
  }
  if (c.pairs > 0) {
    c.share_won = static_cast<double>(won) / static_cast<double>(c.pairs);
  }
  if (c.pairs < kMinPairs) return c;

  const double gap = std::fabs(c.change.median - c.parent.median);
  const bool gain = c.share_won >= 0.9 &&
                    better(c.change.median, c.parent.median) &&
                    gap > c.parent.q3 - c.parent.q1;
  if (c.parent_spread > bound) {
    const auto [p_lo, p_hi] = std::minmax_element(parent.begin(), parent.end());
    const auto [c_lo, c_hi] = std::minmax_element(change.begin(), change.end());
    const double best_parent = higher_is_better ? *p_hi : *p_lo;
    const double worst_change = higher_is_better ? *c_lo : *c_hi;
    c.verdict = better(worst_change, best_parent) ? Verdict::kBetter
                                                  : Verdict::kUnresolved;
    return c;
  }
  const double allowed = bound * std::fabs(c.parent.median);
  const double worsening = higher_is_better ? c.parent.median - c.change.median
                                            : c.change.median - c.parent.median;
  if (worsening > allowed) {
    c.verdict = Verdict::kWorse;
  } else if (gain) {
    c.verdict = Verdict::kBetter;
  } else {
    c.verdict = Verdict::kUnchanged;
  }
  return c;
}

}  // namespace bench
