// Trace generation and the text round-trip: the trace is the unit of
// reproducibility for the service, so generation must be a pure function
// of (seed, count, mix) and parsing must be strict.
#include "svc/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dsm::svc {
namespace {

LoadMix small_mix() {
  LoadMix mix;
  mix.sizes = {1u << 12, 1u << 13};
  mix.procs = {4, 8};
  mix.dists = {keys::Dist::kGauss, keys::Dist::kBucket};
  return mix;
}

/// A malformed trace is a typed kInvalidArgument naming the line.
void expect_bad_line(const std::string& text) {
  const Result<std::vector<JobSpec>> r = trace_from_text(text);
  ASSERT_FALSE(r.ok()) << text;
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
  EXPECT_EQ(r.status().message().rfind("trace line 1: ", 0), 0u)
      << r.status().message();
}

TEST(Trace, GenerationIsDeterministicInSeed) {
  const auto a = make_trace(42, 32, small_mix());
  const auto b = make_trace(42, 32, small_mix());
  EXPECT_EQ(trace_to_text(a), trace_to_text(b));
  const auto c = make_trace(43, 32, small_mix());
  EXPECT_NE(trace_to_text(a), trace_to_text(c));
}

TEST(Trace, GeneratedJobsDrawFromTheMixWithSequentialIds) {
  const LoadMix mix = small_mix();
  const auto jobs = make_trace(7, 64, mix);
  ASSERT_EQ(jobs.size(), 64u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& j = jobs[i];
    EXPECT_EQ(j.id, i);
    EXPECT_NE(std::find(mix.sizes.begin(), mix.sizes.end(), j.n),
              mix.sizes.end());
    EXPECT_NE(std::find(mix.procs.begin(), mix.procs.end(), j.nprocs),
              mix.procs.end());
    EXPECT_NE(std::find(mix.dists.begin(), mix.dists.end(), j.dist),
              mix.dists.end());
    EXPECT_NE(j.seed, 0u);
    EXPECT_FALSE(j.force_algo || j.force_model || j.force_radix_bits);
  }
}

TEST(Trace, TextRoundTripPreservesEveryField) {
  auto jobs = make_trace(11, 8, small_mix());
  jobs[2].force_algo = sort::Algo::kSample;
  jobs[2].force_model = sort::Model::kCcSas;
  jobs[5].force_radix_bits = 11;
  const std::string text = trace_to_text(jobs);
  const auto parsed = trace_from_text(text).value();
  // Round-trip fixed point: re-rendering the parsed jobs is identical.
  EXPECT_EQ(trace_to_text(parsed), text);
  ASSERT_EQ(parsed.size(), jobs.size());
  EXPECT_EQ(parsed[2].force_algo, sort::Algo::kSample);
  EXPECT_EQ(parsed[2].force_model, sort::Model::kCcSas);
  EXPECT_EQ(parsed[5].force_radix_bits, 11);
  EXPECT_FALSE(parsed[0].force_algo.has_value());
}

TEST(Trace, CommentsAndBlankLinesAreIgnored) {
  const auto jobs = trace_from_text(
      "# header\n"
      "\n"
      "0 4096 4 gauss 9 - - - - 0 u32\n"
      "1 4096 8 bucket 5 radix SHMEM 11 - 0 u32  # inline comment\n")
                        .value();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[1].force_algo, sort::Algo::kRadix);
  EXPECT_EQ(jobs[1].force_model, sort::Model::kShmem);
  EXPECT_EQ(jobs[1].force_radix_bits, 11);
}

TEST(Trace, ParserRejectsMalformedLines) {
  // Too few fields.
  expect_bad_line("0 4096 4 gauss 9 - - - - 0\n");
  // Trailing junk.
  expect_bad_line("0 4096 4 gauss 9 - - - - 0 u32 extra\n");
  // Unknown distribution / algorithm / radix.
  expect_bad_line("0 4096 4 nope 9 - - - - 0 u32\n");
  expect_bad_line("0 4096 4 gauss 9 quicksort - - - 0 u32\n");
  expect_bad_line("0 4096 4 gauss 9 - - eleven - 0 u32\n");
  expect_bad_line("0 4096 4 gauss 9 - - 8x - 0 u32\n");
  // A line whose id does not parse is an error, not a skipped comment.
  expect_bad_line("bogus 4096 4 gauss 9 - - - - 0 u32\n");
  // Invalid job (seed 0) is caught at parse time too.
  expect_bad_line("0 4096 4 gauss 0 - - - - 0 u32\n");
  // Integers parse whole into their field's type: no sign wrap, no
  // truncation, no '+'.
  expect_bad_line("0 -1024 4 gauss 9 - - - - 0 u32\n");
  expect_bad_line("0 4096 4294967300 gauss 9 - - - - 0 u32\n");
  expect_bad_line("0 4096 4 gauss +9 - - - - 0 u32\n");
}

TEST(Trace, DeadlineAndPriorityRoundTrip) {
  LoadMix mix = small_mix();
  mix.deadlines_us = {0, 500, 100000};
  mix.priorities = {0, kCriticalPriority};
  const auto jobs = make_trace(21, 32, mix);
  bool some_deadline = false, some_critical = false;
  for (const JobSpec& j : jobs) {
    if (j.deadline_us > 0) some_deadline = true;
    if (j.priority == kCriticalPriority) some_critical = true;
  }
  EXPECT_TRUE(some_deadline);
  EXPECT_TRUE(some_critical);
  const std::string text = trace_to_text(jobs);
  const auto parsed = trace_from_text(text).value();
  EXPECT_EQ(trace_to_text(parsed), text);
  ASSERT_EQ(parsed.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(parsed[i].deadline_us, jobs[i].deadline_us) << i;
    EXPECT_EQ(parsed[i].priority, jobs[i].priority) << i;
  }
}

TEST(Trace, EveryLineHasExactlyElevenFields) {
  // The writer always emits all 11 columns, defaults included ...
  JobSpec plain;
  plain.n = 4096;
  plain.nprocs = 4;
  plain.seed = 9;
  const std::string text = trace_to_text(std::vector<JobSpec>{plain});
  const std::string line = "0 4096 4 gauss 9 - - - - 0 u32\n";
  ASSERT_GE(text.size(), line.size());
  EXPECT_EQ(text.substr(text.size() - line.size()), line);
  // ... and the reader accepts nothing shorter: the 8- and 10-field
  // forms of older traces are malformed.
  expect_bad_line("0 4096 4 gauss 9 - - -\n");
  expect_bad_line("0 4096 4 gauss 9 - - - - 0\n");
}

TEST(Trace, DeadlineWithoutPriorityIsMalformed) {
  expect_bad_line("0 4096 4 gauss 9 - - - 500 u32\n");
  // Bad values in the deadline/priority/record columns are rejected too.
  expect_bad_line("0 4096 4 gauss 9 - - - soon 0 u32\n");
  expect_bad_line("0 4096 4 gauss 9 - - - 500 high u32\n");
  expect_bad_line("0 4096 4 gauss 9 - - - 500 0 -\n");
  // '-' means no deadline.
  const auto jobs =
      trace_from_text("0 4096 4 gauss 9 - - - - 1 u32\n").value();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].deadline_us, 0u);
  EXPECT_EQ(jobs[0].priority, 1);
}

TEST(Trace, TrivialDeadlineMixPreservesV1PrngStreams) {
  // A mix whose deadline/priority lists are the implicit defaults must
  // generate byte-for-byte the same trace as a v1 mix: the extra draws
  // are skipped, so existing seeded traces stay reproducible.
  LoadMix explicit_defaults = small_mix();
  explicit_defaults.deadlines_us = {0};
  explicit_defaults.priorities = {0};
  EXPECT_EQ(trace_to_text(make_trace(42, 32, explicit_defaults)),
            trace_to_text(make_trace(42, 32, small_mix())));
}

TEST(Trace, FileRoundTrip) {
  const auto jobs = make_trace(3, 16, small_mix());
  const std::string path = testing::TempDir() + "dsmsort_trace_test.txt";
  ASSERT_TRUE(write_trace(path, jobs).ok());
  const auto back = read_trace(path).value();
  EXPECT_EQ(trace_to_text(back), trace_to_text(jobs));
  EXPECT_EQ(read_trace("/nonexistent-dir-dsmsort/trace.txt").status().code(),
            StatusCode::kIoError);
}

TEST(Trace, EmptyMixIsRejected) {
  LoadMix mix = small_mix();
  mix.dists.clear();
  EXPECT_THROW(make_trace(1, 4, mix), Error);
}

}  // namespace
}  // namespace dsm::svc
