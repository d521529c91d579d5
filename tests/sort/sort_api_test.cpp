#include "sort/sort_api.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/status.hpp"

namespace dsm::sort {
namespace {

TEST(SortSpec, Validation) {
  SortSpec s;
  s.nprocs = 0;
  EXPECT_EQ(s.validate_status().code(), StatusCode::kInvalidArgument);

  s = SortSpec();
  s.n = 2;
  s.nprocs = 4;  // fewer keys than procs
  EXPECT_EQ(s.validate_status().code(), StatusCode::kInvalidArgument);

  s = SortSpec();
  s.radix_bits = 0;
  EXPECT_EQ(s.validate_status().code(), StatusCode::kInvalidArgument);

  s = SortSpec();
  s.algo = Algo::kSample;
  s.model = Model::kCcSasNew;  // radix-only variant
  EXPECT_EQ(s.validate_status().code(), StatusCode::kInvalidArgument);

  s = SortSpec();
  s.ablations.sample_count = 0;
  EXPECT_EQ(s.validate_status().code(), StatusCode::kInvalidArgument);

  s = SortSpec();
  s.n = 1 << 12;
  s.nprocs = 2;
  EXPECT_TRUE(s.validate_status().ok());
}

TEST(SortSpec, ResolvedMachineFollowsPaperPages) {
  SortSpec s;
  s.n = 1 << 20;
  EXPECT_EQ(s.resolved_machine().page_bytes, 64ull << 10);
  s.n = 256ull << 20;
  EXPECT_EQ(s.resolved_machine().page_bytes, 256ull << 10);
  machine::MachineParams custom;
  custom.page_bytes = 16 << 10;
  s.machine = custom;
  EXPECT_EQ(s.resolved_machine().page_bytes, 16ull << 10);
}

TEST(Names, RoundTrip) {
  EXPECT_STREQ(algo_name(Algo::kRadix), "radix");
  EXPECT_STREQ(algo_name(Algo::kSample), "sample");
  for (const Model m : {Model::kCcSas, Model::kCcSasNew, Model::kMpi,
                        Model::kShmem}) {
    EXPECT_EQ(try_model_from_name(model_name(m)).value(), m);
  }
  EXPECT_EQ(try_model_from_name("bogus").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SeqBaseline, PositiveAndScalesWithN) {
  const auto mp = machine::MachineParams::origin2000();
  const double t1 = seq_baseline_ns(1 << 12, keys::Dist::kGauss, 8, mp);
  const double t4 = seq_baseline_ns(1 << 14, keys::Dist::kGauss, 8, mp);
  EXPECT_GT(t1, 0.0);
  EXPECT_GT(t4, 3.0 * t1);
}

TEST(SeqBaseline, DeterministicPerSeed) {
  const auto mp = machine::MachineParams::origin2000();
  EXPECT_DOUBLE_EQ(seq_baseline_ns(1 << 12, keys::Dist::kRandom, 8, mp, 5),
                   seq_baseline_ns(1 << 12, keys::Dist::kRandom, 8, mp, 5));
}

TEST(Speedup, Computes) {
  EXPECT_DOUBLE_EQ(speedup(100.0, 25.0), 4.0);
  EXPECT_THROW(speedup(100.0, 0.0), Error);
}

TEST(SortSpec, ValidateStatusReportsEveryViolationAtOnce) {
  SortSpec s;
  s.nprocs = 0;                  // violation 1
  s.radix_bits = 0;              // violation 2
  s.ablations.sample_count = 0;  // violation 3
  const Status st = s.validate_status();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  const std::string msg = st.message();
  EXPECT_NE(msg.find("nprocs"), std::string::npos) << msg;
  EXPECT_NE(msg.find("radix bits"), std::string::npos) << msg;
  EXPECT_NE(msg.find("sample count"), std::string::npos) << msg;

  s = SortSpec();
  s.n = 1 << 12;
  s.nprocs = 2;
  EXPECT_TRUE(s.validate_status().ok());
}

TEST(TryRunSort, InvalidSpecReturnsStatusInsteadOfThrowing) {
  SortSpec s;
  s.nprocs = 0;
  const Result<SortResult> r = try_run_sort(s);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TryRunSort, ValidSpecReturnsValue) {
  SortSpec s;
  s.nprocs = 2;
  s.n = 1 << 12;
  const Result<SortResult> r = try_run_sort(s);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->verified);
  EXPECT_EQ(r->n, s.n);
}

TEST(TryRunSort, PreCancelledTokenShortCircuits) {
  CancelToken token;
  token.cancel();
  SortSpec s;
  s.nprocs = 2;
  s.n = 1 << 12;
  s.hooks.cancel = &token;
  const Result<SortResult> r = try_run_sort(s);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // Disarming the token makes the same spec runnable again.
  token.reset();
  EXPECT_TRUE(try_run_sort(s).ok());
}

TEST(TryRunSort, HookSeesKeygenFirstThenPhasesThenVerify) {
  std::vector<std::string> sites;
  double last_ns = -1.0;
  bool monotone = true;
  SortSpec s;
  s.nprocs = 2;
  s.n = 1 << 12;
  s.hooks.on_site = [&](const char* site, double virtual_ns) {
    sites.emplace_back(site);
    if (virtual_ns < last_ns) monotone = false;
    last_ns = virtual_ns;
  };
  ASSERT_TRUE(try_run_sort(s).ok());
  ASSERT_GE(sites.size(), 3u);
  EXPECT_EQ(sites.front(), "keygen");
  EXPECT_EQ(sites.back(), "verify");
  EXPECT_TRUE(monotone) << "virtual time went backwards across checkpoints";
}

TEST(TryRunSort, MidRunCancellationUnwindsAsCancelled) {
  CancelToken token;
  SortSpec s;
  s.nprocs = 2;
  s.n = 1 << 12;
  s.hooks.cancel = &token;
  int seen = 0;
  s.hooks.on_site = [&](const char* site, double) {
    // Arm the token after keygen; the sort must stop at the next mark.
    if (std::string(site) == "keygen") token.cancel();
    ++seen;
  };
  const Result<SortResult> r = try_run_sort(s);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_GE(seen, 1);
}

TEST(TryRunSort, ThrowingHookBecomesInternalAndLibraryStaysUsable) {
  SortSpec s;
  s.nprocs = 2;
  s.n = 1 << 12;
  s.hooks.on_site = [](const char* site, double) {
    if (std::string(site) != "keygen") throw std::runtime_error("boom");
  };
  const Result<SortResult> r = try_run_sort(s);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  // A poisoned run must not leak state into the next one.
  s.hooks.on_site = nullptr;
  EXPECT_TRUE(try_run_sort(s).ok());
}

TEST(TryRunSort, ValueOnErrorThrowsErrorCarryingTheStatus) {
  SortSpec s;
  s.nprocs = 0;
  const Status want = try_run_sort(s).status();
  try {
    (void)try_run_sort(s).value();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), want);
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(std::string(e.what()), want.message());
  }
}

TEST(TryRunSort, FailedTraceWriteReturnsIoError) {
  // Every write through the fsio shim fails: the trace sink must report
  // it, not return OK over a missing or truncated trace.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dsmsort_trace_fault";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SortSpec s;
  s.nprocs = 2;
  s.n = 1 << 12;
  s.trace_json_path = (dir / "trace.jsonl").string();
  set_fs_fault_config(FsFaultConfig{7, 1.0});
  const Result<SortResult> r = try_run_sort(s);
  set_fs_fault_config(FsFaultConfig{});  // disarm for whoever runs next
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find("trace"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(s.trace_json_path));
  std::filesystem::remove_all(dir);
}

TEST(RunSort, ResultFieldsPopulated) {
  SortSpec s;
  s.algo = Algo::kRadix;
  s.model = Model::kShmem;
  s.nprocs = 4;
  s.n = 1 << 12;
  const SortResult res = try_run_sort(s).value();
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.n, s.n);
  EXPECT_EQ(res.passes, 4);
  EXPECT_EQ(res.per_proc.size(), 4u);
  EXPECT_GT(res.elapsed_ns, 0.0);
  EXPECT_GT(res.elapsed_us(), 0.0);
  // elapsed is the max over per-proc totals.
  double mx = 0;
  for (const auto& b : res.per_proc) mx = std::max(mx, b.total_ns());
  EXPECT_NEAR(res.elapsed_ns, mx, 1e-6);
}

}  // namespace
}  // namespace dsm::sort
