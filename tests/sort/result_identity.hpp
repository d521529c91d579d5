// Bitwise SortResult comparison for the record-sharing tests: a sort that
// charges a shared record must report exactly what the same sort run
// alone reports.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "sort/sort_api.hpp"

namespace dsm::sort {

inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

inline bool same_breakdown(const sim::Breakdown& a, const sim::Breakdown& b) {
  return same_bits(a.busy_ns, b.busy_ns) && same_bits(a.lmem_ns, b.lmem_ns) &&
         same_bits(a.rmem_ns, b.rmem_ns) && same_bits(a.sync_ns, b.sync_ns);
}

/// Every SortResult field: elapsed time, per-rank and per-phase
/// breakdowns, run hash and sizes, passes, kept output and lane, input
/// checksum, verdict.
inline void expect_identical(const SortResult& want, const SortResult& got,
                             const std::string& what) {
  EXPECT_TRUE(same_bits(want.elapsed_ns, got.elapsed_ns)) << what;
  ASSERT_EQ(want.per_proc.size(), got.per_proc.size()) << what;
  for (std::size_t r = 0; r < want.per_proc.size(); ++r) {
    EXPECT_TRUE(same_breakdown(want.per_proc[r], got.per_proc[r]))
        << what << " rank " << r;
  }
  ASSERT_EQ(want.phases.size(), got.phases.size()) << what;
  for (std::size_t i = 0; i < want.phases.size(); ++i) {
    EXPECT_EQ(want.phases[i].first, got.phases[i].first) << what;
    EXPECT_TRUE(same_breakdown(want.phases[i].second, got.phases[i].second))
        << what << " phase " << want.phases[i].first;
  }
  EXPECT_EQ(want.run_hash, got.run_hash) << what;
  EXPECT_EQ(want.run_sizes, got.run_sizes) << what;
  EXPECT_EQ(want.passes, got.passes) << what;
  EXPECT_EQ(want.output, got.output) << what;
  EXPECT_EQ(want.payload_output, got.payload_output) << what;
  EXPECT_EQ(want.input_checksum, got.input_checksum) << what;
  EXPECT_TRUE(got.verified) << what;
}

}  // namespace dsm::sort
