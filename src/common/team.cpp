#include "common/team.hpp"

#include <exception>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/coop.hpp"
#include "common/error.hpp"

namespace dsm {

void run_spmd(int nprocs, const std::function<void(int)>& body) {
  DSM_REQUIRE(nprocs >= 1, "run_spmd needs at least one process");
  DSM_REQUIRE(static_cast<bool>(body), "run_spmd needs a body");

  if (nprocs == 1) {
    body(0);  // fast path, keeps single-process stacks simple to debug
    return;
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nprocs));
  for (int rank = 0; rank < nprocs; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        body(rank);
      } catch (...) {
        errors[static_cast<std::size_t>(rank)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

const char* engine_name(SpmdEngine e) {
  switch (e) {
    case SpmdEngine::kThreads: return "threads";
    case SpmdEngine::kCooperative: return "coop";
  }
  return "?";
}

namespace {

/// The original engine: one OS thread per rank, parked on a
/// condition-variable barrier between reconcile points.
class ThreadExecutor final : public SpmdExecutor {
 public:
  explicit ThreadExecutor(int nprocs) : barrier_(nprocs) {}

  void run(const std::function<void(int)>& body) override {
    run_spmd(barrier_.parties(), body);
  }

  void arrive_and_wait(const std::function<void()>& completion) override {
    barrier_.arrive_and_wait(completion);
  }

  void poison() override { barrier_.poison(); }
  bool poisoned() const override { return barrier_.poisoned(); }
  int parties() const override { return barrier_.parties(); }

 private:
  CentralBarrier barrier_;
};

}  // namespace

std::unique_ptr<SpmdExecutor> make_spmd_executor(SpmdEngine engine,
                                                 int nprocs) {
  DSM_REQUIRE(nprocs >= 1, "SPMD team needs at least one process");
  switch (engine) {
    case SpmdEngine::kThreads:
      return std::make_unique<ThreadExecutor>(nprocs);
    case SpmdEngine::kCooperative:
      return std::make_unique<CoopScheduler>(nprocs);
  }
  throw Error("unknown SPMD engine");
}

}  // namespace dsm
