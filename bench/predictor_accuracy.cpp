// Extension (the paper's stated future work): validate the closed-form
// performance predictor against the simulator across the algorithm x
// model matrix — "developing a formula (based on profiles) to predict
// performance for each programming model".
#include "bench_common.hpp"

#include "perf/predictor.hpp"

int main(int argc, char** argv) {
  using namespace dsm;
  try {
    const auto env = bench::parse_env(argc, argv, "1M,4M", "16,64");
    bench::banner("Predictor vs simulator (radix 8 / sample 11)", env);

    TextTable t({"algo", "model", "keys", "procs", "predicted (us)",
                 "simulated (us)", "error"});
    double worst = 0, sum = 0;
    int count = 0;
    for (const auto n : env.sizes) {
      for (const int p : env.procs) {
        auto row = [&](sort::Algo a, sort::Model m, int radix) {
          sort::SortSpec spec;
          spec.algo = a;
          spec.model = m;
          spec.nprocs = p;
          spec.n = n;
          spec.radix_bits = radix;
          spec.seed = env.seed;
          const double pred = perf::predict(spec).total_ns;
          const double sim = sort::try_run_sort(spec).value().elapsed_ns;
          const double err = (pred - sim) / sim;
          worst = std::max(worst, std::abs(err));
          sum += std::abs(err);
          ++count;
          t.add_row({sort::algo_name(a), sort::model_name(m), fmt_count(n),
                     std::to_string(p), fmt_fixed(pred / 1e3, 0),
                     fmt_fixed(sim / 1e3, 0),
                     fmt_fixed(100 * err, 1) + "%"});
        };
        for (const sort::Model m :
             {sort::Model::kCcSas, sort::Model::kCcSasNew, sort::Model::kMpi,
              sort::Model::kShmem}) {
          row(sort::Algo::kRadix, m, env.radix_bits);
        }
        for (const sort::Model m : {sort::Model::kCcSas, sort::Model::kMpi,
                                    sort::Model::kShmem}) {
          row(sort::Algo::kSample, m, 11);
        }
      }
    }
    std::cout << t.render() << "\nmean |error| = "
              << fmt_fixed(100 * sum / count, 1) << "%, worst = "
              << fmt_fixed(100 * worst, 1) << "%\n\n";

    std::cout << "Predicted best combinations (no simulation):\n";
    TextTable b({"keys", "procs", "predicted best", "us"});
    for (const auto n : env.sizes) {
      for (const int p : env.procs) {
        const auto best = perf::predict_best(n, p);
        b.add_row({fmt_count(n), std::to_string(p),
                   std::string(sort::algo_name(best.algo)) + "/" +
                       sort::model_name(best.model) + " r" +
                       std::to_string(best.radix_bits),
                   fmt_fixed(best.total_ns / 1e3, 0)});
      }
    }
    std::cout << b.render();
    bench::maybe_csv(env, "predictor_accuracy", t);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
