// run_attempt_here: the one attempt body the in-process service and the
// cluster worker share. Pins the hook order (mark, then fault check,
// then virtual-deadline abort), the audit contract (no marks, no
// faults) and the exact abort text. The critical-priority exemption is
// fenced end to end in Deadlines.MidRunOverrunAbortsAtAPhaseMark.
#include "svc/remote.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace dsm::svc {
namespace {

RemoteAttempt small_attempt(std::uint64_t id = 1) {
  RemoteAttempt a;
  a.job.id = id;
  a.job.n = 4096;
  a.job.nprocs = 4;
  a.job.seed = 3;
  a.plan.algo = sort::Algo::kRadix;
  a.plan.model = sort::Model::kShmem;
  a.plan.radix_bits = 8;
  return a;
}

FaultConfig armed(double rate, std::uint32_t sites = kAllFaultSites) {
  FaultConfig f;
  f.seed = 42;
  f.rate = rate;
  f.sites = sites;
  return f;
}

/// Every (site, virtual_ns) pair on_mark saw, in order.
struct MarkLog {
  std::vector<std::pair<std::string, double>> marks;
  RemoteExecutor::MarkFn fn() {
    return [this](const char* site, double virtual_ns) {
      marks.emplace_back(site, virtual_ns);
    };
  }
};

std::string us3(double ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3fus", ns / 1e3);
  return buf;
}

TEST(AttemptBody, MarkRunsBeforeTheFaultAtTheSiteThatFires) {
  // Keygen armed alone: the first mark is "keygen", and it is logged
  // before the fault it carries fires.
  MarkLog keygen;
  const AttemptRun k = run_attempt_here(
      small_attempt(), armed(1.0, fault_site_bit(FaultSite::kKeygen)),
      keygen.fn());
  ASSERT_FALSE(k.result.ok());
  EXPECT_EQ(k.result.status().code(), StatusCode::kFaultInjected);
  EXPECT_EQ(k.fired_site, static_cast<int>(FaultSite::kKeygen));
  ASSERT_EQ(keygen.marks.size(), 1u);
  EXPECT_EQ(keygen.marks[0].first, "keygen");

  // Sort phases armed alone: keygen passes, the first phase mark fires.
  MarkLog phase;
  const AttemptRun s = run_attempt_here(
      small_attempt(), armed(1.0, fault_site_bit(FaultSite::kSortPhase)),
      phase.fn());
  ASSERT_FALSE(s.result.ok());
  EXPECT_EQ(s.fired_site, static_cast<int>(FaultSite::kSortPhase));
  ASSERT_EQ(phase.marks.size(), 2u);
  EXPECT_EQ(phase.marks[0].first, "keygen");

  // At a partial rate, over many attempts: whenever a fault fires, the
  // last logged mark is the site whose decision fired and no earlier
  // mark's decision did.
  const FaultInjector injector(armed(0.2));
  int fired = 0;
  for (int attempt = 0; attempt < 24; ++attempt) {
    RemoteAttempt a = small_attempt(7);
    a.attempt = attempt;
    MarkLog log;
    const AttemptRun run = run_attempt_here(a, armed(0.2), log.fn());
    ASSERT_FALSE(log.marks.empty());
    const auto fires = [&](const std::string& site) {
      const bool kg = site == "keygen";
      return injector.should_fire(
          kg ? FaultSite::kKeygen : FaultSite::kSortPhase, a.job.id,
          attempt, kg ? 0 : fault_salt(site.c_str()));
    };
    for (std::size_t i = 0; i + 1 < log.marks.size(); ++i) {
      EXPECT_FALSE(fires(log.marks[i].first)) << log.marks[i].first;
    }
    EXPECT_EQ(run.fired_site >= 0, fires(log.marks.back().first))
        << "attempt " << attempt << " at " << log.marks.back().first;
    EXPECT_EQ(run.result.ok(), run.fired_site < 0);
    fired += run.fired_site >= 0 ? 1 : 0;
  }
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 24);
}

TEST(AttemptBody, AuditNeitherMarksNorFaults) {
  RemoteAttempt a = small_attempt();
  a.audit = true;
  a.job.deadline_us = 1;  // nor is it aborted on the deadline
  MarkLog log;
  const AttemptRun run = run_attempt_here(a, armed(1.0), log.fn());
  ASSERT_TRUE(run.result.ok()) << run.result.status().to_string();
  EXPECT_TRUE(run.result->verified);
  EXPECT_EQ(run.fired_site, -1);
  EXPECT_TRUE(log.marks.empty());
}

TEST(AttemptBody, DeadlineAbortTextIsExact) {
  RemoteAttempt a = small_attempt();
  a.job.deadline_us = 1;
  MarkLog log;
  const AttemptRun run = run_attempt_here(a, FaultConfig{}, log.fn());
  ASSERT_FALSE(run.result.ok());
  EXPECT_EQ(run.fired_site, -1);
  // The abort fires at the first mark past the deadline, which is the
  // last mark logged.
  ASSERT_FALSE(log.marks.empty());
  const auto& [site, virtual_ns] = log.marks.back();
  EXPECT_GT(virtual_ns, 1e3);
  for (std::size_t i = 0; i + 1 < log.marks.size(); ++i) {
    EXPECT_LE(log.marks[i].second, 1e3);
  }
  EXPECT_EQ(run.result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(run.result.status().message(),
            "virtual deadline exceeded at '" + site + "': " +
                us3(virtual_ns) + " > 1.000us");
  EXPECT_EQ(us_text(virtual_ns), us3(virtual_ns));
}

TEST(AttemptBody, InProcessExecutorReportsTheSameOutcome) {
  InProcessExecutor exec;
  exec.bind_service(nullptr, armed(1.0, fault_site_bit(FaultSite::kKeygen)),
                    0);
  int dispatched = 0;
  const RemoteOutcome out = exec.run_attempt(
      small_attempt(), nullptr, [&](const std::string&) { ++dispatched; });
  EXPECT_TRUE(out.ran);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.failure.code(), StatusCode::kFaultInjected);
  EXPECT_EQ(out.fired_site, static_cast<int>(FaultSite::kKeygen));
  EXPECT_EQ(dispatched, 0);  // nothing leaves the process

  exec.bind_service(nullptr, FaultConfig{}, 0);
  const RemoteOutcome ok = exec.run_attempt(small_attempt(), nullptr, nullptr);
  const AttemptRun ref = run_attempt_here(small_attempt(), FaultConfig{}, {});
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.measured_ns, ref.result->elapsed_ns);
  EXPECT_EQ(ok.passes, ref.result->passes);
  EXPECT_TRUE(ok.verified);
}

}  // namespace
}  // namespace dsm::svc
