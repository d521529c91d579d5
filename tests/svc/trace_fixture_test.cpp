// The committed service trace fixture (BENCH_service_trace.txt, the
// EXPERIMENTS.md replay recipe's input) must stay readable by the current
// trace grammar and be written in its canonical form: a grammar change
// that breaks the fixture fails here, not in a later manual replay.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fsio.hpp"
#include "svc/trace.hpp"

namespace dsm::svc {
namespace {

TEST(TraceFixture, CommittedServiceTraceRoundTripsByteForByte) {
  const std::string path = DSMSORT_SERVICE_TRACE;
  const Result<std::vector<JobSpec>> jobs = read_trace(path);
  ASSERT_TRUE(jobs.ok()) << jobs.status().to_string();
  EXPECT_EQ(jobs->size(), 60u);
  const Result<std::string> text = try_read_file(path);
  ASSERT_TRUE(text.ok()) << text.status().to_string();
  EXPECT_EQ(trace_to_text(*jobs), *text);
}

}  // namespace
}  // namespace dsm::svc
