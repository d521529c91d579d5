// Self-test of the benchmark's own arithmetic (run.sh --selftest): the
// percentile and its sample count, quartiles as Python computes them, span
// self time, latency from the due time, the comparison verdict rule and the
// JSON reader the comparison uses. Exits non-zero on the first wrong value.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "compare.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;
int g_checks = 0;

void check(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void check_near(double got, double want, const std::string& what) {
  check(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
        what + ": got " + std::to_string(got) + ", want " +
            std::to_string(want));
}

std::vector<double> scaled(const std::vector<double>& v, double f) {
  std::vector<double> out;
  for (const double x : v) out.push_back(x * f);
  return out;
}

void test_percentile() {
  const std::vector<double> ten = {7, 3, 9, 1, 10, 2, 8, 4, 6, 5};
  check_near(bench::percentile(ten, 0.5), 5, "p50 of 1..10");
  check_near(bench::percentile(ten, 0.95), 10, "p95 of 1..10");
  check_near(bench::percentile(ten, 0.1), 1, "p10 of 1..10");
  check_near(bench::percentile({}, 0.5), 0, "percentile of nothing");
  check(bench::samples_beyond(10, 0.95) == 0, "10 samples: none beyond p95");
  check(bench::samples_beyond(200, 0.95) == 10, "200 samples: 10 beyond p95");
  check(bench::samples_beyond(1000, 0.99) == 10,
        "1000 samples: 10 beyond p99");
  check(bench::samples_beyond(1000, 0.5) == 500, "1000 samples: 500 > p50");
}

void test_quartiles() {
  // Values from Python: statistics.quantiles(data, n=4).
  bench::Quartiles q = bench::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  check_near(q.q1, 2.75, "q1 of 1..10");
  check_near(q.median, 5.5, "median of 1..10");
  check_near(q.q3, 8.25, "q3 of 1..10");
  q = bench::quartiles({3, 1, 2});
  check_near(q.q1, 1, "q1 of 1..3");
  check_near(q.q3, 3, "q3 of 1..3");
  q = bench::quartiles({5, 1});
  check_near(q.q1, 0, "q1 of {1, 5} extrapolates");
  check_near(q.median, 3, "median of {1, 5}");
  check_near(q.q3, 6, "q3 of {1, 5} extrapolates");
  q = bench::quartiles({4});
  check_near(q.q1 + q.median + q.q3, 12, "one sample");
  check_near(bench::relative_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
             5.5 / 5.5, "relative spread of 1..10");
}

void test_self_time() {
  using bench::Interval;
  check_near(bench::self_time({0, 10}, {}), 10, "no children");
  check_near(bench::self_time({0, 10}, {{1, 3}, {2, 4}, {8, 12}}), 5,
             "overlapping children and one sticking out");
  check_near(bench::self_time({0, 10}, {{11, 12}, {-3, -1}}), 10,
             "children outside the span");
  check_near(bench::self_time({0, 10}, {{0, 10}, {2, 3}}), 0,
             "fully covered");
}

void test_latency() {
  check_near(bench::latency_from_due_ms(1.0, 1.002, 5.0), 7.0,
             "2 ms late generator adds 2 ms");
  check_near(bench::latency_from_due_ms(4.0, 4.0, 3.25), 3.25,
             "on-time generator");
}

void test_verdicts() {
  using bench::Verdict;
  const std::vector<double> base = {100, 101, 99, 100.5, 99.5,
                                    100.2, 99.8, 100.1, 99.9, 100.3};
  const std::vector<double> wobble = {100.1, 100.9, 99.2, 100.4, 99.6,
                                      100, 99.9, 100.3, 99.7, 100.2};
  check(bench::compare_runs(base, wobble, false, 0.05).verdict ==
            Verdict::kUnchanged,
        "noise only: unchanged");
  check(bench::compare_runs(base, scaled(base, 0.8), false, 0.05).verdict ==
            Verdict::kBetter,
        "20% lower latency: better");
  check(bench::compare_runs(base, scaled(base, 1.2), false, 0.05).verdict ==
            Verdict::kWorse,
        "20% higher latency: worse");
  check(bench::compare_runs(base, scaled(base, 1.2), true, 0.05).verdict ==
            Verdict::kBetter,
        "20% more throughput: better");
  check(bench::compare_runs(base, scaled(base, 1.03), false, 0.05).verdict ==
            Verdict::kUnchanged,
        "3% worse inside a 5% bound: unchanged");
  const std::vector<double> short_base(base.begin(), base.begin() + 9);
  check(bench::compare_runs(short_base, short_base, false, 0.05).verdict ==
            Verdict::kUnresolved,
        "9 pairs: unresolved");
  const std::vector<double> noisy = {80, 120, 90, 110, 100,
                                     70, 130, 95, 105, 100};
  check(bench::compare_runs(noisy, noisy, false, 0.05).verdict ==
            Verdict::kUnresolved,
        "parent spread wider than the bound: unresolved");
  check(bench::compare_runs(noisy, scaled(noisy, 0.5), false, 0.05).verdict ==
            Verdict::kBetter,
        "wide spread but every change run beats every parent run: better");
  // Wins every pair, but by less than the parent's quartile distance.
  const bench::Comparison tiny =
      bench::compare_runs(base, scaled(base, 0.998), false, 0.05);
  check(tiny.share_won == 1.0, "every pair won");
  check(tiny.verdict == Verdict::kUnchanged,
        "gain smaller than the parent's quartile distance: unchanged");
  // Ties count for neither side.
  check_near(bench::compare_runs(base, base, false, 0.05).share_won, 0,
             "ties win nothing");
}

void test_json() {
  const bench::Json j = bench::parse_json(
      "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
      "{\"job_ms_p50\": {\"value\": 1.5e1, \"unit\": \"ms\"}}, "
      "\"list\": [1, -2.5, \"a\\\"b\", null, false]}");
  check(j["correct"].boolean, "json bool");
  check_near(j["attempted"].number, 12, "json integer");
  check_near(j["metrics"]["job_ms_p50"]["value"].number, 15,
             "json nested number");
  check(j["metrics"]["job_ms_p50"]["unit"].string == "ms", "json string");
  check(j["list"].array.size() == 5, "json array");
  check(j["list"].array[2].string == "a\"b", "json escape");
  check(j["missing"].type == bench::Json::Type::kNull, "json absent key");
  bool threw = false;
  try {
    bench::parse_json("{\"a\": }");
  } catch (const std::exception&) {
    threw = true;
  }
  check(threw, "malformed json throws");
}

}  // namespace

int main() {
  test_percentile();
  test_quartiles();
  test_self_time();
  test_latency();
  test_verdicts();
  test_json();
  std::cout << "benchmark selftest: " << (g_checks - g_failures) << "/"
            << g_checks << " checks passed\n";
  return g_failures == 0 ? 0 : 1;
}
