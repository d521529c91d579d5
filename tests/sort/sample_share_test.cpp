// Sharing of the recorded sample-skeleton execution (DESIGN.md §5.3). The
// three models of one sample, MSD or merge spec record once and charge
// three times; each SortResult (virtual times, phases, run hash, run
// sizes, kept output and lane) must be bit-identical to the same sort run
// alone, whether the models run back to back, concurrently, after the
// retained records were dropped, or next to specs that differ in a field
// that must not share. Specs that differ only in the CC-SAS splitter
// group size share one record. A caller that fails — its hook throws, or
// its cancel token fires — leaves every other caller's result intact. The
// concurrent cases run models on separate host threads, so the file also
// runs in the TSan tier.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "result_identity.hpp"
#include "sort/radix_parallel.hpp"
#include "sort/sample_parallel.hpp"
#include "sort/sort_api.hpp"

namespace dsm::sort {
namespace {

constexpr Model kModels[] = {Model::kCcSas, Model::kMpi, Model::kShmem};

SortSpec base_spec(Algo algo, keys::RecordType record, keys::Dist dist) {
  SortSpec spec;
  spec.algo = algo;
  spec.nprocs = 4;
  spec.n = 20011;
  spec.radix_bits = 8;
  spec.dist = dist;
  spec.record = record;
  spec.seed = 7;
  spec.ablations.sample_count = 16;
  spec.ablations.sample_group_size = 2;
  spec.keep_output = true;
  return spec;
}

SortSpec with_model(SortSpec spec, Model m) {
  spec.model = m;
  return spec;
}

/// The sort run alone: nothing retained before or after it.
SortResult solo(const SortSpec& spec) {
  clear_retained_records();
  SortResult res = try_run_sort(spec).value();
  clear_retained_records();
  return res;
}

std::string name_of(const SortSpec& spec) {
  return std::string(algo_name(spec.algo)) + "/" + model_name(spec.model) +
         "/" + keys::record_name(spec.record) + "/" +
         kernel_backend_name(spec.kernel_backend) + "/jobs" +
         std::to_string(spec.kernel_jobs) + "/s" +
         std::to_string(spec.ablations.sample_count) + "/g" +
         std::to_string(spec.ablations.sample_group_size);
}

const SortSpec kBases[] = {
    base_spec(Algo::kSample, keys::RecordType::kU32, keys::Dist::kGauss),
    base_spec(Algo::kMsdRadix, keys::RecordType::kKeyPayload32,
              keys::Dist::kDup),
    base_spec(Algo::kMergesort, keys::RecordType::kKeyPayload32,
              keys::Dist::kZipf),
};

/// Whether `spec` finds a retained record of type Rec. A probe that
/// builds retains an empty record, so it drops every record again.
template <typename Rec = SampleRecord>
bool shares_retained(const SortSpec& spec) {
  bool built = false;
  (void)shared_record<Rec>(spec, [&] {
    built = true;
    return Rec{};
  });
  if (built) clear_retained_records();
  return !built;
}

TEST(SampleRecordSharing, BackToBackModelsMatchSoloRuns) {
  for (const SortSpec& base : kBases) {
    std::vector<SortResult> want;
    for (const Model m : kModels) want.push_back(solo(with_model(base, m)));
    clear_retained_records();
    for (std::size_t i = 0; i < std::size(kModels); ++i) {
      const SortSpec spec = with_model(base, kModels[i]);
      expect_identical(want[i], try_run_sort(spec).value(), name_of(spec));
    }
  }
}

// Four callers on four threads: the three models plus a CC-SAS sort with
// another splitter group size, which shares the same record.
TEST(SampleRecordSharing, ConcurrentModelsMatchSoloRuns) {
  for (const SortSpec& base : kBases) {
    std::vector<SortSpec> specs;
    for (const Model m : kModels) specs.push_back(with_model(base, m));
    specs.push_back(with_model(base, Model::kCcSas));
    specs.back().ablations.sample_group_size = 3;
    std::vector<SortResult> want;
    for (const SortSpec& spec : specs) want.push_back(solo(spec));
    for (int round = 0; round < 3; ++round) {
      clear_retained_records();
      std::vector<Result<SortResult>> got(specs.size(),
                                          Status::internal("not run"));
      std::barrier start(static_cast<std::ptrdiff_t>(specs.size()));
      std::vector<std::thread> callers;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        callers.emplace_back([&, i] {
          start.arrive_and_wait();
          got[i] = try_run_sort(specs[i]);
        });
      }
      for (std::thread& t : callers) t.join();
      for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(got[i].ok()) << got[i].status().to_string();
        expect_identical(want[i], *got[i],
                         name_of(specs[i]) + " round " +
                             std::to_string(round));
      }
    }
  }
}

TEST(SampleRecordSharing, ClearedRecordMatchesSoloRuns) {
  const SortSpec& base = kBases[1];
  for (const Model m : kModels) {
    const SortSpec spec = with_model(base, m);
    const SortResult want = solo(spec);
    (void)try_run_sort(spec).value();  // retain this spec's record
    clear_retained_records();
    EXPECT_FALSE(shares_retained(spec)) << name_of(spec);
    expect_identical(want, try_run_sort(spec).value(), name_of(spec));
  }
}

TEST(SampleRecordSharing, SpecsThatDifferOnlyInGroupSizeShare) {
  const SortSpec base = with_model(kBases[0], Model::kCcSas);
  for (const int group : {1, 3, 64}) {
    SortSpec other = base;
    other.ablations.sample_group_size = group;
    const SortResult want = solo(other);
    clear_retained_records();
    (void)try_run_sort(base).value();
    EXPECT_TRUE(shares_retained(other)) << name_of(other);
    expect_identical(want, try_run_sort(other).value(), name_of(other));
  }
  clear_retained_records();
}

TEST(SampleRecordSharing, SpecsThatDifferInHostWorkRecordApart) {
  const SortSpec base = kBases[0];
  std::vector<SortSpec> variants;
  SortSpec v = base;
  v.ablations.sample_count = 17;
  variants.push_back(v);
  v = base;
  v.algo = Algo::kMsdRadix;
  variants.push_back(v);
  v = base;
  v.kernel_backend = KernelBackend::kReference;
  variants.push_back(v);
  v = base;
  v.kernel_jobs = 2;
  variants.push_back(v);
  for (const Model m : kModels) {
    const SortSpec plain = with_model(base, m);
    const SortResult want_plain = solo(plain);
    for (const SortSpec& variant : variants) {
      const SortSpec other = with_model(variant, m);
      const SortResult want_other = solo(other);
      // Interleave: each sort finds the other's record retained.
      expect_identical(want_plain, try_run_sort(plain).value(),
                       name_of(plain));
      EXPECT_FALSE(shares_retained(other)) << name_of(other);
      (void)try_run_sort(plain).value();
      expect_identical(want_other, try_run_sort(other).value(),
                       name_of(other));
      expect_identical(want_plain, try_run_sort(plain).value(),
                       name_of(plain));
    }
  }
  clear_retained_records();
}

// Each record kind keeps its own retained slot: a radix sort of the same
// cell neither evicts the sample record nor is evicted by it.
TEST(SampleRecordSharing, RadixAndSampleRecordsAreRetainedApart) {
  SortSpec sample = with_model(kBases[0], Model::kMpi);
  SortSpec radix = sample;
  radix.algo = Algo::kRadix;
  clear_retained_records();
  (void)try_run_sort(sample).value();
  (void)try_run_sort(radix).value();
  EXPECT_TRUE(shares_retained(sample));
  EXPECT_TRUE(shares_retained<LsdRecord>(radix));
  clear_retained_records();
}

// Releasing an input drops its records of both kinds, whatever the
// algorithm, model or radix size named, and keeps another input's.
TEST(SampleRecordSharing, ReleaseDropsOnlyThatInputsRecords) {
  const SortSpec sample = with_model(kBases[0], Model::kMpi);
  SortSpec radix = sample;
  radix.algo = Algo::kRadix;
  SortSpec other_input = sample;
  other_input.seed += 1;
  SortSpec same_input = with_model(sample, Model::kShmem);
  same_input.algo = Algo::kMergesort;
  same_input.radix_bits = 11;

  clear_retained_records();
  (void)try_run_sort(sample).value();
  (void)try_run_sort(radix).value();
  release_retained_records(other_input);
  EXPECT_TRUE(shares_retained(sample));
  EXPECT_TRUE(shares_retained<LsdRecord>(radix));

  release_retained_records(same_input);
  EXPECT_FALSE(shares_retained(sample));
  (void)try_run_sort(radix).value();
  release_retained_records(same_input);
  EXPECT_FALSE(shares_retained<LsdRecord>(radix));
  clear_retained_records();
}

// A caller that waits for another caller's build polls its own cancel
// token: it leaves with kCancelled while the build is still running, and
// the builder's record is unaffected.
TEST(SampleRecordSharing, CancelledWaiterLeavesWhileRecordBuilds) {
  clear_retained_records();
  const SortSpec spec = with_model(kBases[0], Model::kShmem);
  std::atomic<bool> building{false};
  std::atomic<bool> release{false};
  std::shared_ptr<const SampleRecord> built;
  std::thread builder([&] {
    built = shared_record<SampleRecord>(spec, [&] {
      building.store(true);
      while (!release.load()) std::this_thread::yield();
      SampleRecord rec;
      rec.sample_count = 5;
      return rec;
    });
  });
  while (!building.load()) std::this_thread::yield();

  CancelToken token;
  token.cancel();
  SortSpec waiter = with_model(spec, Model::kCcSas);
  waiter.hooks.cancel = &token;
  try {
    (void)shared_record<SampleRecord>(waiter, [] {
      ADD_FAILURE() << "the waiter must not build";
      return SampleRecord{};
    });
    ADD_FAILURE() << "the cancelled waiter returned a record";
  } catch (const Error& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
  }
  release.store(true);
  builder.join();
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->sample_count, 5);
  clear_retained_records();
}

TEST(SampleRecordSharing, FailingCallersLeaveOthersIntact) {
  const SortSpec& base = kBases[2];
  std::vector<SortResult> want;
  for (const Model m : kModels) want.push_back(solo(with_model(base, m)));

  // A cancelled caller that records first never shares its record: the
  // next caller records for itself.
  {
    clear_retained_records();
    CancelToken token;
    SortSpec cancelled = with_model(base, kModels[0]);
    cancelled.hooks.cancel = &token;
    cancelled.hooks.on_site = [&token](const char* site, double) {
      if (std::string(site) == "keygen") token.cancel();
    };
    const Result<SortResult> r = try_run_sort(cancelled);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    expect_identical(want[1],
                     try_run_sort(with_model(base, kModels[1])).value(),
                     "after a cancelled record");
  }

  // Concurrently: model 0's hook throws at its first phase mark, model
  // 1's token fires at keygen, and a fourth caller (model 2 again) throws
  // at "verify"; model 2's plain caller must match its solo run whichever
  // caller happens to record.
  for (int round = 0; round < 3; ++round) {
    clear_retained_records();
    CancelToken token;
    std::vector<SortSpec> specs;
    for (const Model m : kModels) specs.push_back(with_model(base, m));
    specs.push_back(specs[2]);
    specs[0].hooks.on_site = [](const char* site, double) {
      if (std::string(site) == "local sort 1") throw Error("injected");
    };
    specs[1].hooks.cancel = &token;
    specs[1].hooks.on_site = [&token](const char* site, double) {
      if (std::string(site) == "keygen") token.cancel();
    };
    specs[3].hooks.on_site = [](const char* site, double) {
      if (std::string(site) == "verify") throw Error("injected");
    };
    std::vector<Result<SortResult>> got(specs.size(),
                                        Status::internal("not run"));
    std::barrier start(static_cast<std::ptrdiff_t>(specs.size()));
    std::vector<std::thread> callers;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      callers.emplace_back([&, i] {
        start.arrive_and_wait();
        got[i] = try_run_sort(specs[i]);
      });
    }
    for (std::thread& t : callers) t.join();
    EXPECT_FALSE(got[0].ok());
    ASSERT_FALSE(got[1].ok());
    EXPECT_EQ(got[1].status().code(), StatusCode::kCancelled);
    EXPECT_FALSE(got[3].ok());
    ASSERT_TRUE(got[2].ok()) << got[2].status().to_string();
    expect_identical(want[2], *got[2],
                     name_of(specs[2]) + " round " + std::to_string(round));
  }
  clear_retained_records();
}

}  // namespace
}  // namespace dsm::sort
