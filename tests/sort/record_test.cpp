// The record concept end-to-end (DESIGN.md §11): RecordTraits units, the
// generic record_lsd_sort reference, registry/hostile parsing for record
// names, and the kv32 (key + 32-bit payload index) record through every
// {algo x model} combination and every radix delivery path —
// stability-verified, with the payload lane attached to the kept output —
// plus the two contracts the tentpole
// rests on: record-oblivious charging (kv32 elapsed_ns bit-identical to
// u32) and record-oblivious prediction.
#include "keys/record.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "keys/distributions.hpp"
#include "perf/predictor.hpp"
#include "sort/sort_api.hpp"
#include "sort/verify.hpp"

namespace dsm {
namespace {

using keys::KeyPayload32;
using keys::Payload;
using keys::RecordTraits;
using keys::RecordType;
using sort::Algo;
using sort::Model;
using sort::SortResult;
using sort::SortSpec;

TEST(RecordTraits, U32KthByteAndCompare) {
  using T = RecordTraits<Key>;
  static_assert(T::n_bytes == 4);
  static_assert(!T::has_payload);
  const Key k = 0x12345678u;
  EXPECT_EQ(T::kth_byte(k, 0), 0x78);
  EXPECT_EQ(T::kth_byte(k, 1), 0x56);
  EXPECT_EQ(T::kth_byte(k, 2), 0x34);
  EXPECT_EQ(T::kth_byte(k, 3), 0x12);
  EXPECT_TRUE(T::compare(1u, 2u));
  EXPECT_FALSE(T::compare(2u, 1u));
  EXPECT_FALSE(T::compare(2u, 2u));
  EXPECT_EQ(T::key_of(k), k);
}

TEST(RecordTraits, KeyPayload32OrdersByKeyOnly) {
  using T = RecordTraits<KeyPayload32>;
  static_assert(T::n_bytes == 4);
  static_assert(T::has_payload);
  const KeyPayload32 a{0xa1b2c3d4u, 7};
  EXPECT_EQ(T::kth_byte(a, 0), 0xd4);
  EXPECT_EQ(T::kth_byte(a, 3), 0xa1);
  EXPECT_EQ(T::key_of(a), 0xa1b2c3d4u);
  // The payload must not participate in the order.
  EXPECT_FALSE(T::compare(KeyPayload32{5, 9}, KeyPayload32{5, 1}));
  EXPECT_FALSE(T::compare(KeyPayload32{5, 1}, KeyPayload32{5, 9}));
  EXPECT_TRUE(T::compare(KeyPayload32{4, 9}, KeyPayload32{5, 1}));
}

TEST(RecordTypeInfo, DescribesBothRecords) {
  const auto& u32 = keys::record_info(RecordType::kU32);
  EXPECT_STREQ(u32.name, "u32");
  EXPECT_EQ(u32.width_bytes, sizeof(Key));
  EXPECT_FALSE(u32.has_payload);
  const auto& kv = keys::record_info(RecordType::kKeyPayload32);
  EXPECT_STREQ(kv.name, "kv32");
  EXPECT_EQ(kv.width_bytes, sizeof(Key) + sizeof(Payload));
  EXPECT_TRUE(kv.has_payload);
}

TEST(RecordNames, RegistryRoundTripsAndRejectsGarbage) {
  for (const RecordType t : keys::kAllRecordTypes) {
    const Result<RecordType> r = keys::record_from_name(keys::record_name(t));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), t);
  }
  for (const char* bad : {"", "U32", "KV32", "kv-32", "kv32 ", "kv32\n",
                          " u32", "u32,kv32", "record", "default"}) {
    const Result<RecordType> r = keys::record_from_name(bad);
    ASSERT_FALSE(r.ok()) << "'" << bad << "'";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    // The error must name both accepted values.
    EXPECT_NE(r.status().message().find("u32"), std::string::npos);
    EXPECT_NE(r.status().message().find("kv32"), std::string::npos);
  }
}

std::vector<Key> gen_keys(keys::Dist d, Index n, std::uint64_t seed) {
  std::vector<Key> out(n);
  keys::GenSpec spec;
  spec.n_total = n;
  spec.seed = seed;
  keys::generate(d, out, spec);
  return out;
}

TEST(RecordLsdSort, U32MatchesStdSort) {
  for (const int radix : {4, 8, 11}) {
    for (const keys::Dist d :
         {keys::Dist::kRandom, keys::Dist::kDup, keys::Dist::kAdversarial}) {
      auto recs = gen_keys(d, 20000, 3);
      auto expect = recs;
      std::sort(expect.begin(), expect.end());
      std::vector<Key> tmp(recs.size());
      keys::record_lsd_sort<RecordTraits<Key>>(recs, tmp, radix);
      EXPECT_EQ(recs, expect) << keys::dist_name(d) << " radix=" << radix;
    }
  }
}

TEST(RecordLsdSort, KeyPayload32MatchesStableSort) {
  for (const int radix : {4, 8, 11}) {
    for (const keys::Dist d :
         {keys::Dist::kRandom, keys::Dist::kDup, keys::Dist::kZipf}) {
      const auto ks = gen_keys(d, 20000, 5);
      std::vector<KeyPayload32> recs(ks.size());
      for (std::size_t i = 0; i < ks.size(); ++i) {
        recs[i] = {ks[i], static_cast<Payload>(i)};
      }
      auto expect = recs;
      std::stable_sort(expect.begin(), expect.end(),
                       RecordTraits<KeyPayload32>::compare);
      std::vector<KeyPayload32> tmp(recs.size());
      keys::record_lsd_sort<RecordTraits<KeyPayload32>>(recs, tmp, radix);
      // Stability makes the whole record sequence (payloads included)
      // uniquely determined — exact equality is the strongest check.
      EXPECT_EQ(recs, expect) << keys::dist_name(d) << " radix=" << radix;
    }
  }
}

SortSpec base_spec(Algo a, Model m, Index n = 40000) {
  SortSpec spec;
  spec.algo = a;
  spec.model = m;
  spec.nprocs = 4;
  spec.n = n;
  spec.radix_bits = 8;
  spec.dist = keys::Dist::kGauss;
  spec.seed = 7;
  spec.record = RecordType::kU32;
  spec.keep_output = true;
  return spec;
}

constexpr std::pair<Algo, Model> kAlgoModelMatrix[] = {
    {Algo::kRadix, Model::kCcSas},   {Algo::kRadix, Model::kCcSasNew},
    {Algo::kRadix, Model::kMpi},     {Algo::kRadix, Model::kShmem},
    {Algo::kSample, Model::kCcSas},  {Algo::kSample, Model::kMpi},
    {Algo::kSample, Model::kShmem},
};

/// Re-derive the expected payload lane: stable-sort (key, input index)
/// pairs of the global input stream.
std::vector<KeyPayload32> expected_records(const SortSpec& spec) {
  const auto ks = [&] {
    std::vector<Key> out(spec.n);
    // Stitch the per-rank partitions exactly as the runners generate them.
    const Index base = spec.n / static_cast<Index>(spec.nprocs);
    const Index extra = spec.n % static_cast<Index>(spec.nprocs);
    Index off = 0;
    for (int r = 0; r < spec.nprocs; ++r) {
      const Index cnt = base + (static_cast<Index>(r) < extra ? 1 : 0);
      keys::GenSpec gs;
      gs.n_total = spec.n;
      gs.global_begin = off;
      gs.rank = r;
      gs.nprocs = spec.nprocs;
      gs.radix_bits = spec.radix_bits;
      gs.seed = spec.seed;
      keys::generate(spec.dist, std::span<Key>(out).subspan(off, cnt), gs);
      off += cnt;
    }
    return out;
  }();
  std::vector<KeyPayload32> recs(ks.size());
  for (std::size_t i = 0; i < ks.size(); ++i) {
    recs[i] = {ks[i], static_cast<Payload>(i)};
  }
  std::stable_sort(recs.begin(), recs.end(),
                   RecordTraits<KeyPayload32>::compare);
  return recs;
}

TEST(RecordSort, Kv32VerifiedStableAcrossEveryAlgoModel) {
  for (const auto& [a, m] : kAlgoModelMatrix) {
    SortSpec spec = base_spec(a, m);
    spec.record = RecordType::kKeyPayload32;
    const SortResult res = sort::try_run_sort(spec).value();
    EXPECT_TRUE(res.verified) << sort::algo_name(a) << "/"
                              << sort::model_name(m);
    EXPECT_EQ(res.record, RecordType::kKeyPayload32);
    ASSERT_EQ(res.output.size(), spec.n);
    ASSERT_EQ(res.payload_output.size(), spec.n)
        << sort::algo_name(a) << "/" << sort::model_name(m);
    // Both parallel sorts are globally stable for kv32 (LSD radix by
    // construction; sample sort by rank-ordered redistribution plus the
    // splitter duplicate tie-break) — so the exact record sequence is
    // forced, payloads included.
    const auto expect = expected_records(spec);
    for (std::size_t i = 0; i < expect.size(); ++i) {
      ASSERT_EQ(res.output[i], expect[i].key)
          << sort::algo_name(a) << "/" << sort::model_name(m) << " @" << i;
      ASSERT_EQ(res.payload_output[i], expect[i].payload)
          << sort::algo_name(a) << "/" << sort::model_name(m) << " @" << i;
    }
  }
}

TEST(RecordSort, U32LeavesPayloadLaneEmpty) {
  const SortResult res = sort::try_run_sort(base_spec(Algo::kRadix,
                                                  Model::kCcSas)).value();
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.record, RecordType::kU32);
  EXPECT_EQ(res.output.size(), 40000u);
  EXPECT_TRUE(res.payload_output.empty());
}

TEST(RecordSort, ChargingIsRecordOblivious) {
  // DESIGN.md §11: charged virtual time is a pure function of the key
  // lane. A kv32 sort must report bit-identical elapsed_ns (and per-phase
  // breakdowns) to the u32 sort of the same key stream — on every model,
  // including the message-counting MPI/SHMEM paths.
  for (const auto& [a, m] : kAlgoModelMatrix) {
    SortSpec u32 = base_spec(a, m, 20000);
    SortSpec kv = u32;
    kv.record = RecordType::kKeyPayload32;
    const SortResult ru = sort::try_run_sort(u32).value();
    const SortResult rk = sort::try_run_sort(kv).value();
    EXPECT_EQ(ru.elapsed_ns, rk.elapsed_ns)
        << sort::algo_name(a) << "/" << sort::model_name(m);
    EXPECT_EQ(ru.output, rk.output)
        << sort::algo_name(a) << "/" << sort::model_name(m);
    ASSERT_EQ(ru.per_proc.size(), rk.per_proc.size());
    for (std::size_t p = 0; p < ru.per_proc.size(); ++p) {
      EXPECT_EQ(ru.per_proc[p].total_ns(), rk.per_proc[p].total_ns())
          << sort::algo_name(a) << "/" << sort::model_name(m) << " rank "
          << p;
    }
  }
}

TEST(RecordSort, Kv32AcrossSkewedDistributions) {
  // The new workload axis x the new record type: every skewed
  // distribution must sort, verify, and stay stable under kv32 on both
  // algorithms. Duplicate-heavy streams are exactly where stability (and
  // sample sort's tie-breaking) is hardest.
  for (const keys::Dist d : keys::kSkewDists) {
    for (const auto& [a, m] : {std::pair{Algo::kRadix, Model::kCcSas},
                               std::pair{Algo::kSample, Model::kShmem},
                               std::pair{Algo::kRadix, Model::kMpi}}) {
      SortSpec spec = base_spec(a, m, 30000);
      spec.dist = d;
      spec.record = RecordType::kKeyPayload32;
      const SortResult res = sort::try_run_sort(spec).value();
      EXPECT_TRUE(res.verified)
          << keys::dist_name(d) << " " << sort::algo_name(a) << "/"
          << sort::model_name(m);
      const auto expect = expected_records(spec);
      for (std::size_t i = 0; i < expect.size(); ++i) {
        ASSERT_EQ(res.payload_output[i], expect[i].payload)
            << keys::dist_name(d) << " " << sort::algo_name(a) << "/"
            << sort::model_name(m) << " @" << i;
      }
    }
  }
}

TEST(RecordSort, SkewedDistributionsSortUnderU32Too) {
  for (const keys::Dist d : keys::kSkewDists) {
    SortSpec spec = base_spec(Algo::kSample, Model::kCcSas, 30000);
    spec.dist = d;
    const SortResult res = sort::try_run_sort(spec).value();
    EXPECT_TRUE(res.verified) << keys::dist_name(d);
    EXPECT_TRUE(std::is_sorted(res.output.begin(), res.output.end()))
        << keys::dist_name(d);
  }
}

/// Every radix delivery path: the kv32 payload lane moves in one
/// model-independent step, so every ablation carries it.
struct RadixPath {
  const char* name;
  Model model;
  bool coalesced = false;  // one MPI message per destination
  bool staged = false;     // vendor-style staged MPI transport
  bool put = false;        // sender-initiated SHMEM puts
  bool detect = false;     // detect_max_key
};
constexpr RadixPath kRadixPaths[] = {
    {"CC-SAS", Model::kCcSas},
    {"CC-SAS-NEW", Model::kCcSasNew},
    {"MPI chunked", Model::kMpi},
    {"MPI coalesced", Model::kMpi, /*coalesced=*/true},
    {"MPI staged", Model::kMpi, false, /*staged=*/true},
    {"SHMEM get", Model::kShmem},
    {"SHMEM put", Model::kShmem, false, false, /*put=*/true},
    {"MPI detect_max_key", Model::kMpi, false, false, false, /*detect=*/true},
    {"SHMEM detect_max_key", Model::kShmem, false, false, false,
     /*detect=*/true},
};

void expect_same_breakdown(const sim::Breakdown& a, const sim::Breakdown& b,
                           const std::string& where) {
  EXPECT_EQ(a.busy_ns, b.busy_ns) << where;
  EXPECT_EQ(a.lmem_ns, b.lmem_ns) << where;
  EXPECT_EQ(a.rmem_ns, b.rmem_ns) << where;
  EXPECT_EQ(a.sync_ns, b.sync_ns) << where;
}

/// The kv32 matrix over every radix path x radix {8, 11}. 11 bits takes
/// 3 passes, so the MPI and SHMEM sorts run their odd-pass copy-back. Each
/// cell must verify, equal the stable sort of (key, input index), and
/// charge bitwise what the u32 sort of the same keys charges.
TEST(RecordSort, Kv32EveryRadixPathCooperativeEngine) {
  for (const RadixPath& path : kRadixPaths) {
    for (const int radix : {8, 11}) {
      SortSpec u32 = base_spec(Algo::kRadix, path.model, 20000);
      u32.radix_bits = radix;
      u32.ablations.mpi_chunk_messages = !path.coalesced;
      if (path.staged) u32.ablations.mpi_impl = msg::Impl::kStaged;
      u32.ablations.shmem_use_put = path.put;
      u32.ablations.detect_max_key = path.detect;
      SortSpec kv = u32;
      kv.record = RecordType::kKeyPayload32;
      const std::string cell =
          std::string(path.name) + " radix=" + std::to_string(radix);

      const Result<SortResult> ru = sort::try_run_sort(u32);
      const Result<SortResult> rk = sort::try_run_sort(kv);
      ASSERT_TRUE(ru.ok()) << cell << ": " << ru.status().message();
      ASSERT_TRUE(rk.ok()) << cell << ": " << rk.status().message();
      const SortResult& a = ru.value();
      const SortResult& b = rk.value();
      EXPECT_TRUE(b.verified) << cell;
      const auto expect = expected_records(kv);
      ASSERT_EQ(b.output.size(), expect.size()) << cell;
      ASSERT_EQ(b.payload_output.size(), expect.size()) << cell;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        ASSERT_EQ(b.output[i], expect[i].key) << cell << " @" << i;
        ASSERT_EQ(b.payload_output[i], expect[i].payload)
            << cell << " @" << i;
      }

      EXPECT_EQ(a.elapsed_ns, b.elapsed_ns) << cell;
      EXPECT_EQ(a.passes, b.passes) << cell;
      ASSERT_EQ(a.per_proc.size(), b.per_proc.size()) << cell;
      for (std::size_t r = 0; r < a.per_proc.size(); ++r) {
        expect_same_breakdown(a.per_proc[r], b.per_proc[r],
                              cell + " rank " + std::to_string(r));
      }
      ASSERT_EQ(a.phases.size(), b.phases.size()) << cell;
      for (std::size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].first, b.phases[i].first) << cell;
        expect_same_breakdown(a.phases[i].second, b.phases[i].second,
                              cell + " phase " + a.phases[i].first);
      }
    }
  }
}

TEST(RecordSort, PayloadIndexWidthBoundsN) {
  SortSpec spec = base_spec(Algo::kRadix, Model::kCcSas);
  spec.record = RecordType::kKeyPayload32;
  spec.n = (Index{1} << 32) + 1;  // payload index no longer fits 32 bits
  const Status s = spec.validate_status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("2^32"), std::string::npos);
  spec.record = RecordType::kU32;
  EXPECT_TRUE(spec.validate_status().ok());  // u32 has no such bound
}

TEST(RecordSort, ValidateCollectsEveryViolationInOneStatus) {
  SortSpec spec = base_spec(Algo::kRadix, Model::kMpi);
  spec.record = RecordType::kKeyPayload32;
  spec.n = (Index{1} << 32) + 1;  // violation 1: payload index overflows
  spec.nprocs = 0;                // violation 2
  spec.radix_bits = 0;            // violation 3
  const Status s = spec.validate_status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("kv32"), std::string::npos);
  EXPECT_NE(s.message().find("2^32"), std::string::npos);
  EXPECT_NE(s.message().find("nprocs"), std::string::npos);
  EXPECT_NE(s.message().find("radix"), std::string::npos);
}

TEST(RecordSort, TryRunSortSurfacesPayloadRejectionAsStatus) {
  SortSpec spec = base_spec(Algo::kRadix, Model::kShmem);
  spec.record = RecordType::kKeyPayload32;
  spec.n = (Index{1} << 32) + 1;  // rejected before any allocation
  const Result<SortResult> r = sort::try_run_sort(spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("2^32"), std::string::npos);
}

TEST(RecordPrediction, PredictorIsRecordOblivious) {
  // The predictor models the charged machine, and charging is
  // record-oblivious — so predictions must be bit-identical across record
  // types for every distribution cell (this is what keeps the planner's
  // crossover tables valid for kv32 jobs).
  for (const keys::Dist d :
       {keys::Dist::kGauss, keys::Dist::kRandom, keys::Dist::kZipf,
        keys::Dist::kDup, keys::Dist::kAdversarial}) {
    for (const auto& [a, m] : kAlgoModelMatrix) {
      SortSpec u32 = base_spec(a, m, Index{1} << 16);
      u32.dist = d;
      SortSpec kv = u32;
      kv.record = RecordType::kKeyPayload32;
      EXPECT_EQ(perf::predict(u32).total_ns, perf::predict(kv).total_ns)
          << keys::dist_name(d) << " " << sort::algo_name(a) << "/"
          << sort::model_name(m);
    }
  }
}

TEST(RecordRegistry, AlgoModelKernelTablesRejectWithAcceptedLists) {
  // The hand-rolled maps now share one registry; all must reject an
  // unknown name with a typed status that lists the accepted values.
  const Result<Algo> a = sort::try_algo_from_name("quick");
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(a.status().message().find("radix"), std::string::npos);
  EXPECT_NE(a.status().message().find("sample"), std::string::npos);
  const Result<Model> m = sort::try_model_from_name("PGAS");
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find("CC-SAS-NEW"), std::string::npos);
  // Round trips through the registry stay exact.
  EXPECT_EQ(sort::try_algo_from_name("sample").value(), Algo::kSample);
  EXPECT_EQ(sort::try_model_from_name("CC-SAS").value(), Model::kCcSas);
}

}  // namespace
}  // namespace dsm
