// The shared radix table (HistTable) and its windowed piece visitor
// against brute-force references: the per-rank p x B prefix scan every
// MPI/SHMEM process used to run, and the full p x B get-list sweep.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/prng.hpp"
#include "sort/radix_parallel.hpp"

namespace dsm::sort {
namespace {

using Hists = std::vector<std::vector<std::uint64_t>>;

HistTable build(const Hists& h) {
  std::vector<std::span<const std::uint64_t>> blocks(h.begin(), h.end());
  return build_hist_table(blocks);
}

/// Random histograms: about half the cells empty, and every fifth row
/// (when p > 1) all zero.
Hists random_hists(int p, std::size_t buckets, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Hists h(static_cast<std::size_t>(p), std::vector<std::uint64_t>(buckets));
  for (int j = 0; j < p; ++j) {
    if (p > 1 && j % 5 == 4) continue;
    for (auto& c : h[static_cast<std::size_t>(j)]) {
      c = rng.next_below(2) == 0 ? 0 : rng.next_below(9);
    }
  }
  return h;
}

/// The per-rank scan each process ran before the shared table: its rank
/// prefix and the global exclusive bucket starts.
void brute_prefixes(const Hists& h, int r, std::vector<std::uint64_t>& rank,
                    std::vector<std::uint64_t>& start) {
  const std::size_t buckets = h[0].size();
  rank.assign(buckets, 0);
  start.assign(buckets, 0);
  for (std::size_t j = 0; j < h.size(); ++j) {
    for (std::size_t b = 0; b < buckets; ++b) {
      if (static_cast<int>(j) < r) rank[b] += h[j][b];
      start[b] += h[j][b];
    }
  }
  std::uint64_t acc = 0;
  for (auto& s : start) {
    const std::uint64_t c = s;
    s = acc;
    acc += c;
  }
}

using Piece =
    std::tuple<int, std::size_t, std::uint64_t, std::uint64_t>;  // j, b, lo, hi

/// The full-scan get list: every (j, b) cell of the p x B matrix, in
/// j-major order, intersected with [begin, end).
std::vector<Piece> full_scan(const Hists& h, std::uint64_t begin,
                             std::uint64_t end) {
  const std::size_t buckets = h[0].size();
  std::vector<std::uint64_t> rank, start;
  brute_prefixes(h, 0, rank, start);
  std::vector<std::uint64_t> run(buckets, 0);
  std::vector<Piece> out;
  for (std::size_t j = 0; j < h.size(); ++j) {
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::uint64_t cnt = h[j][b];
      if (cnt == 0) continue;
      const std::uint64_t gpos = start[b] + run[b];
      const std::uint64_t lo = std::max(gpos, begin);
      const std::uint64_t hi = std::min(gpos + cnt, end);
      if (lo < hi) out.emplace_back(static_cast<int>(j), b, lo, hi);
      run[b] += cnt;
    }
  }
  return out;
}

std::vector<Piece> windowed(const HistTable& t, int d) {
  std::vector<Piece> out;
  for_each_inbound_piece(t, d,
                         [&](int j, std::size_t b, std::uint64_t lo,
                             std::uint64_t hi) {
                           out.emplace_back(j, b, lo, hi);
                         });
  return out;
}

void expect_table_matches_brute_force(const Hists& h) {
  const int p = static_cast<int>(h.size());
  const std::size_t buckets = h[0].size();
  const HistTable t = build(h);
  ASSERT_EQ(t.nprocs(), p);
  ASSERT_EQ(t.buckets, buckets);
  std::uint64_t n = 0;
  for (const auto& row : h) {
    for (const std::uint64_t c : row) n += c;
  }
  EXPECT_EQ(t.homes.size(), n);
  std::vector<std::uint64_t> rank, start;
  for (int r = 0; r < p; ++r) {
    brute_prefixes(h, r, rank, start);
    for (std::size_t b = 0; b < buckets; ++b) {
      EXPECT_EQ(t.start(r, b), start[b] + rank[b]) << r << "," << b;
      EXPECT_EQ(t.count(r, b), h[static_cast<std::size_t>(r)][b]);
    }
  }
  // Row p holds the bucket ends.
  brute_prefixes(h, p, rank, start);
  for (std::size_t b = 0; b < buckets; ++b) {
    EXPECT_EQ(t.start(p, b), start[b] + rank[b]);
  }
  // keys_to(j, d): j's keys whose global position is in d's partition.
  brute_prefixes(h, 0, rank, start);
  for (int j = 0; j < p; ++j) {
    std::vector<std::uint64_t> to(static_cast<std::size_t>(p), 0);
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::uint64_t gpos = t.start(j, b);
      for (std::uint64_t k = 0; k < h[static_cast<std::size_t>(j)][b]; ++k) {
        ++to[static_cast<std::size_t>(t.homes.owner_of(gpos + k))];
      }
    }
    std::uint64_t below = 0;
    for (int d = 0; d < p; ++d) {
      EXPECT_EQ(t.keys_before(j, d), below) << j << "," << d;
      EXPECT_EQ(t.keys_to(j, d), to[static_cast<std::size_t>(d)]);
      below += to[static_cast<std::size_t>(d)];
    }
    EXPECT_EQ(t.keys_before(j, p), below);
  }
}

void expect_windowed_matches_full_scan(const Hists& h) {
  const HistTable t = build(h);
  for (int d = 0; d < t.nprocs(); ++d) {
    EXPECT_EQ(windowed(t, d),
              full_scan(h, t.homes.begin_of(d), t.homes.end_of(d)))
        << "partition " << d;
  }
}

TEST(HistTable, MatchesPerRankScanOnRandomHistograms) {
  for (const int p : {1, 2, 3, 7, 16}) {
    for (const std::size_t buckets : {1u, 2u, 16u, 256u}) {
      expect_table_matches_brute_force(
          random_hists(p, buckets, 100 * p + buckets));
    }
  }
}

TEST(HistTable, AllZeroAndSingleRank) {
  expect_table_matches_brute_force(Hists(7, std::vector<std::uint64_t>(8)));
  expect_table_matches_brute_force(Hists{{0, 3, 0, 0, 5, 1}});
  expect_table_matches_brute_force(Hists{{0}, {4}, {0}});
}

TEST(InboundPieces, WindowedEqualsFullScanOnRandomHistograms) {
  for (const int p : {1, 2, 3, 7, 16}) {
    for (const std::size_t buckets : {1u, 2u, 16u, 256u}) {
      expect_windowed_matches_full_scan(
          random_hists(p, buckets, 7 * p + buckets));
    }
  }
}

TEST(InboundPieces, PartitionEdgesInsideBucketsAndEmptyEdgeBuckets) {
  // n = 17 over p = 3 partitions: [0, 6) [6, 12) [12, 17). Bucket 1 spans
  // [4, 9) and bucket 4 spans [9, 17), so partitions 0/1 and 1/2 meet
  // inside a bucket; the empty buckets 2 and 3 sit at [9, 9) inside
  // partition 1's window and bucket 5 at [17, 17) at the end.
  const Hists h{{0, 2, 0, 0, 3, 0},
                {0, 0, 0, 0, 4, 0},
                {4, 3, 0, 0, 1, 0}};
  const HistTable t = build(h);
  ASSERT_EQ(t.homes.size(), 17u);
  expect_windowed_matches_full_scan(h);
  // Partition edges fall strictly inside buckets 1 and 4.
  EXPECT_LT(t.start(0, 1), t.homes.begin_of(1));
  EXPECT_GT(t.start(3, 1), t.homes.begin_of(1));
  EXPECT_LT(t.start(0, 4), t.homes.begin_of(2));
  EXPECT_GT(t.start(3, 4), t.homes.begin_of(2));
  // Empty buckets exactly at a partition start: n = 9, partition 1 starts
  // at 3, where buckets 1 and 2 have zero width.
  const Hists edge{{3, 0, 0, 3}, {0, 0, 0, 0}, {0, 0, 0, 3}};
  expect_windowed_matches_full_scan(edge);
  expect_table_matches_brute_force(edge);
}

}  // namespace
}  // namespace dsm::sort
