#include "sort/verify.hpp"

#include <gtest/gtest.h>

namespace dsm::sort {
namespace {

TEST(Checksum, OrderIndependent) {
  const std::vector<Key> a{1, 2, 3, 4, 5};
  const std::vector<Key> b{5, 3, 1, 2, 4};
  EXPECT_EQ(checksum_of(a), checksum_of(b));
}

TEST(Checksum, DetectsChangedElement) {
  const std::vector<Key> a{1, 2, 3};
  const std::vector<Key> b{1, 2, 4};
  EXPECT_NE(checksum_of(a), checksum_of(b));
}

TEST(Checksum, DetectsDuplicationSwap) {
  // {2,2,4} vs {1,3,4} have equal sums; sum of squares differs.
  const std::vector<Key> a{2, 2, 4};
  const std::vector<Key> b{1, 3, 4};
  EXPECT_EQ(checksum_of(a).sum, checksum_of(b).sum);
  EXPECT_NE(checksum_of(a), checksum_of(b));
}

TEST(Checksum, CombineEqualsWhole) {
  const std::vector<Key> all{9, 8, 7, 6, 5};
  const std::vector<Key> lo{9, 8};
  const std::vector<Key> hi{7, 6, 5};
  EXPECT_EQ(combine(checksum_of(lo), checksum_of(hi)), checksum_of(all));
}

TEST(Checksum, EmptyIsIdentity) {
  const std::vector<Key> a{1, 2};
  EXPECT_EQ(combine(checksum_of(a), Checksum{}), checksum_of(a));
}

TEST(RunsSorted, AcceptsSortedConcatenation) {
  const std::vector<Key> r1{1, 2, 3};
  const std::vector<Key> r2{3, 4};
  const std::vector<Key> r3{};
  const std::vector<Key> r4{5};
  const std::vector<std::span<const Key>> runs{r1, r2, r3, r4};
  EXPECT_TRUE(runs_sorted(runs));
}

TEST(RunsSorted, RejectsDescentWithinRun) {
  const std::vector<Key> r1{1, 3, 2};
  const std::vector<std::span<const Key>> runs{r1};
  EXPECT_FALSE(runs_sorted(runs));
}

TEST(RunsSorted, RejectsDescentAcrossRuns) {
  const std::vector<Key> r1{1, 5};
  const std::vector<Key> r2{4, 6};
  const std::vector<std::span<const Key>> runs{r1, r2};
  EXPECT_FALSE(runs_sorted(runs));
}

TEST(RunsSorted, EmptyIsSorted) {
  EXPECT_TRUE(runs_sorted({}));
}

TEST(ExactMultiset, EqualAndUnequal) {
  const std::vector<Key> a{3, 1, 2, 2};
  const std::vector<Key> b{2, 2, 1, 3};
  const std::vector<Key> c{2, 1, 1, 3};
  EXPECT_TRUE(exact_multiset_equal(a, b));
  EXPECT_FALSE(exact_multiset_equal(a, c));
  EXPECT_FALSE(exact_multiset_equal(a, std::vector<Key>{1, 2, 3}));
}

/// The fused sweep must agree with the two separate ones: same verdict
/// against the input checksum, same order hash.
void expect_fused_matches(const std::vector<std::vector<Key>>& runs,
                          const std::vector<Key>& input) {
  std::vector<std::span<const Key>> spans(runs.begin(), runs.end());
  const std::span<const std::span<const Key>> view(spans);
  const Checksum in = checksum_of(input);
  const RunsVerdict v = verify_and_hash_runs(in, view);
  EXPECT_EQ(v.ok, verify_sorted_runs(in, view));
  EXPECT_EQ(v.order_hash, run_order_hash(view));
  // The paired sweep hashes the key order the same way.
  std::vector<std::vector<keys::Payload>> pays;
  for (const auto& run : runs) pays.emplace_back(run.size(), 0);
  std::vector<std::span<const keys::Payload>> pay_spans(pays.begin(),
                                                        pays.end());
  EXPECT_EQ(verify_sorted_runs_paired(
                in, 0, view,
                std::span<const std::span<const keys::Payload>>(pay_spans),
                /*require_stable=*/false)
                .order_hash,
            run_order_hash(view));
}

TEST(VerifyAndHash, SortedRunsVerifyAndHash) {
  const std::vector<std::vector<Key>> runs{{1, 2, 3}, {3, 7}, {9}};
  expect_fused_matches(runs, {7, 3, 9, 1, 3, 2});
  EXPECT_TRUE(verify_and_hash_runs(checksum_of(std::vector<Key>{1, 2, 3, 3,
                                                                7, 9}),
                                   std::vector<std::span<const Key>>(
                                       runs.begin(), runs.end()))
                  .ok);
}

TEST(VerifyAndHash, UnsortedOrWrongMultisetFails) {
  expect_fused_matches({{1, 5, 3}, {6}}, {1, 3, 5, 6});   // descent in a run
  expect_fused_matches({{1, 5}, {4, 6}}, {1, 4, 5, 6});   // across runs
  expect_fused_matches({{1, 2}, {3}}, {1, 2, 4});         // lost a key
  const std::vector<std::vector<Key>> bad{{2, 1}};
  EXPECT_FALSE(verify_and_hash_runs(checksum_of(std::vector<Key>{1, 2}),
                                    std::vector<std::span<const Key>>(
                                        bad.begin(), bad.end()))
                   .ok);
}

TEST(VerifyAndHash, EmptyRuns) {
  expect_fused_matches({}, {});
  expect_fused_matches({{}, {}}, {});
  expect_fused_matches({{}, {4, 8}, {}, {8}}, {8, 4, 8});
}

TEST(VerifyAndHash, AllEqualKeys) {
  expect_fused_matches({{5, 5, 5}, {5}, {5, 5}}, {5, 5, 5, 5, 5, 5});
  expect_fused_matches({{5, 5}, {5}}, {5, 5, 5, 5});  // one key missing
}

}  // namespace
}  // namespace dsm::sort
