// dsmsort_benchmark: the repository benchmark's program (see README.md).
//
//   dsmsort_benchmark --workload W --seed N --seconds S --trace 0|1
//                     [--smoke] [--probe-capacity] [--out DIR]
//   dsmsort_benchmark --compare A/ B/ [--spec BENCHMARK.json]
//
// A run prints notes ("# ..."), one "workload metric value unit" line per
// metric, then, as its last line, one JSON object with exactly the keys
// correct, attempted, failed and metrics. It exits 1 when any output was
// wrong ("correct": false; a "# INCORRECT: ..." note says why) and 2 on a
// usage error or a failed set-up.
#include <cmath>
#include <exception>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "sort/kernels.hpp"
#include "compare.hpp"
#include "workloads.hpp"

namespace {

std::string number(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

std::string result_json(const bench::RunReport& rep) {
  std::ostringstream os;
  os << "{\"correct\": " << (rep.problems.empty() ? "true" : "false")
     << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const bench::Metric& m = rep.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "--compare") {
      // Two positional directories, which ArgParser does not take.
      if (argc != 4 && !(argc == 6 && std::string(argv[4]) == "--spec")) {
        throw std::invalid_argument(
            "usage: --compare A/ B/ [--spec BENCHMARK.json]");
      }
      return bench::compare_dirs(argc == 6 ? argv[5] : "BENCHMARK.json",
                                 argv[2], argv[3], std::cout);
    }
    dsm::ArgParser args(argc, argv);
    args.check_known({"workload", "seed", "seconds", "trace", "smoke",
                      "probe-capacity", "out"});
    bench::RunOptions opt;
    opt.workload = args.get("workload", "");
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    opt.seconds = args.get_double("seconds", 15);
    opt.trace = args.get_int("trace", 0) != 0;
    opt.smoke = args.has("smoke");
    opt.probe_capacity = args.has("probe-capacity");
    opt.out_dir = args.get("out", "");
    if (opt.smoke) opt.seconds /= 10;
    if (opt.seconds <= 0 || opt.seed == 0) {
      throw std::invalid_argument("--seconds and --seed must be positive");
    }

    std::cout << "# host: " << std::thread::hardware_concurrency()
              << " hardware threads, kernel isa "
              << dsm::sort::kernel_isa_name() << ", compiler " << __VERSION__
              << "\n";
    bench::RunReport rep = bench::run_workload(opt);
    for (bench::Metric& m : rep.metrics) {
      if (!std::isfinite(m.value)) {
        rep.problems.push_back("metric " + m.name + " is not finite");
        m.value = 0;
      }
    }
    // Warnings and problems also go to stderr, where a caller that keeps
    // only the tail of stderr still sees why a run failed.
    for (const std::string& note : rep.notes) {
      std::cout << "# " << note << "\n";
      if (note.starts_with("WARNING")) std::cerr << note << "\n";
    }
    for (const std::string& p : rep.problems) {
      std::cout << "# INCORRECT: " << p << "\n";
      std::cerr << "INCORRECT: " << p << "\n";
    }
    for (const bench::Metric& m : rep.metrics) {
      std::cout << opt.workload << " " << m.name << " " << number(m.value)
                << " " << m.unit << "\n";
    }
    std::cout << result_json(rep) << std::endl;
    return rep.problems.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "dsmsort_benchmark: " << e.what() << "\n";
    return 2;
  }
}
