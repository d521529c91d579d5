// Sharing of the recorded LSD execution (DESIGN.md §5.3). The four radix
// models of one spec record once and charge four times; each SortResult
// (virtual times, phases, run hash, kept output) must be bit-identical to
// the same sort run alone, whether the models run back to back,
// concurrently, after the retained record was dropped, or next to specs
// that differ only in a field that must not share. A caller that fails —
// its hook throws, or its cancel token fires — leaves every other
// caller's result intact. The concurrent cases run models on separate
// host threads, so the file also runs in the TSan tier.
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
#include "sort/sort_api.hpp"

namespace dsm::sort {
namespace {

constexpr Model kModels[] = {Model::kCcSas, Model::kCcSasNew, Model::kMpi,
                             Model::kShmem};

SortSpec base_spec(keys::RecordType record, keys::Dist dist) {
  SortSpec spec;
  spec.algo = Algo::kRadix;
  spec.nprocs = 4;
  spec.n = 20011;
  spec.radix_bits = 8;
  spec.dist = dist;
  spec.record = record;
  spec.seed = 7;
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
  return std::string(model_name(spec.model)) + "/" +
         keys::record_name(spec.record) + "/" +
         kernel_backend_name(spec.kernel_backend) + "/jobs" +
         std::to_string(spec.kernel_jobs) +
         (spec.ablations.detect_max_key ? "/detect" : "");
}

const SortSpec kBases[] = {
    base_spec(keys::RecordType::kU32, keys::Dist::kGauss),
    base_spec(keys::RecordType::kKeyPayload32, keys::Dist::kDup),
};

TEST(LsdRecordSharing, BackToBackModelsMatchSoloRuns) {
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

TEST(LsdRecordSharing, ConcurrentModelsMatchSoloRuns) {
  for (const SortSpec& base : kBases) {
    std::vector<SortResult> want;
    for (const Model m : kModels) want.push_back(solo(with_model(base, m)));
    for (int round = 0; round < 3; ++round) {
      clear_retained_records();
      std::vector<Result<SortResult>> got(std::size(kModels),
                                          Status::internal("not run"));
      std::barrier start(static_cast<std::ptrdiff_t>(std::size(kModels)));
      std::vector<std::thread> callers;
      for (std::size_t i = 0; i < std::size(kModels); ++i) {
        callers.emplace_back([&, i] {
          start.arrive_and_wait();
          got[i] = try_run_sort(with_model(base, kModels[i]));
        });
      }
      for (std::thread& t : callers) t.join();
      for (std::size_t i = 0; i < std::size(kModels); ++i) {
        ASSERT_TRUE(got[i].ok()) << got[i].status().to_string();
        expect_identical(want[i], *got[i],
                         name_of(with_model(base, kModels[i])) + " round " +
                             std::to_string(round));
      }
    }
  }
}

TEST(LsdRecordSharing, ClearedRecordMatchesSoloRuns) {
  const SortSpec& base = kBases[1];
  for (const Model m : kModels) {
    const SortSpec spec = with_model(base, m);
    const SortResult want = solo(spec);
    (void)try_run_sort(spec).value();  // retain this spec's record
    clear_retained_records();
    expect_identical(want, try_run_sort(spec).value(), name_of(spec));
  }
}

TEST(LsdRecordSharing, SpecsThatDifferInHostWorkRecordApart) {
  const SortSpec base = kBases[0];
  std::vector<SortSpec> variants;
  SortSpec v = base;
  v.kernel_backend = KernelBackend::kReference;
  variants.push_back(v);
  v = base;
  v.kernel_jobs = 2;
  variants.push_back(v);
  v = base;
  v.record = keys::RecordType::kKeyPayload32;
  variants.push_back(v);
  v = base;
  v.ablations.detect_max_key = true;
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
      expect_identical(want_other, try_run_sort(other).value(),
                       name_of(other));
      expect_identical(want_plain, try_run_sort(plain).value(),
                       name_of(plain));
    }
  }
}

// A caller that waits for another caller's build polls its own cancel
// token: it leaves with kCancelled while the build is still running, and
// the builder's record is unaffected.
TEST(LsdRecordSharing, CancelledWaiterLeavesWhileRecordBuilds) {
  clear_retained_records();
  const SortSpec spec = with_model(kBases[0], Model::kMpi);
  std::atomic<bool> building{false};
  std::atomic<bool> release{false};
  std::shared_ptr<const LsdRecord> built;
  std::thread builder([&] {
    built = shared_record<LsdRecord>(spec, [&] {
      building.store(true);
      while (!release.load()) std::this_thread::yield();
      LsdRecord rec;
      rec.passes = 3;
      return rec;
    });
  });
  while (!building.load()) std::this_thread::yield();

  CancelToken token;
  token.cancel();
  SortSpec waiter = spec;
  waiter.hooks.cancel = &token;
  try {
    (void)shared_record<LsdRecord>(waiter, [] {
      ADD_FAILURE() << "the waiter must not build";
      return LsdRecord{};
    });
    ADD_FAILURE() << "the cancelled waiter returned a record";
  } catch (const Error& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
  }
  release.store(true);
  builder.join();
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->passes, 3);
  clear_retained_records();
}

TEST(LsdRecordSharing, FailingCallersLeaveOthersIntact) {
  const SortSpec& base = kBases[1];
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
    expect_identical(want[1], try_run_sort(with_model(base, kModels[1])).value(),
                     "after a cancelled record");
  }

  // Concurrently: model 0's hook throws at its first phase mark and model
  // 1's token fires at keygen; models 2 and 3 must match their solo runs
  // whichever caller happens to record.
  for (int round = 0; round < 3; ++round) {
    clear_retained_records();
    CancelToken token;
    std::vector<SortSpec> specs;
    for (const Model m : kModels) specs.push_back(with_model(base, m));
    specs[0].hooks.on_site = [](const char* site, double) {
      if (std::string(site) == "local histogram") throw Error("injected");
    };
    specs[1].hooks.cancel = &token;
    specs[1].hooks.on_site = [&token](const char* site, double) {
      if (std::string(site) == "keygen") token.cancel();
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
    for (std::size_t i = 2; i < specs.size(); ++i) {
      ASSERT_TRUE(got[i].ok()) << got[i].status().to_string();
      expect_identical(want[i], *got[i],
                       name_of(specs[i]) + " round " + std::to_string(round));
    }
  }
  clear_retained_records();
}

}  // namespace
}  // namespace dsm::sort
