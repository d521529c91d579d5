// Helped record builds (DESIGN.md §5.3): a sort that finds its record
// under construction runs the builder's record_tasks batches instead of
// blocking. A record built with a helper must equal the serial build bit
// for bit, and every sort that charges it must report what it reports
// alone; a task that fails on a helper fails the build on its builder and
// sends the waiters back to start over; a helper whose own token fires
// leaves with kCancelled while the builder finishes the batch. Every case
// forces a second thread into the batch, so the file also runs in the
// TSan tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "result_identity.hpp"
#include "sort/radix_parallel.hpp"
#include "sort/sample_parallel.hpp"
#include "sort/sort_api.hpp"

namespace dsm::sort {
namespace {

/// Holds every thread that arrives until two distinct threads have
/// arrived (or a minute has passed, which fails the test instead of
/// hanging it).
class TwoThreadGate {
 public:
  void arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    ids_.insert(std::this_thread::get_id());
    cv_.notify_all();
    if (!cv_.wait_for(lock, std::chrono::minutes(1),
                      [this] { return ids_.size() >= 2; })) {
      ADD_FAILURE() << "no second thread joined the batch";
    }
  }
  /// Block until some thread has arrived.
  void wait_first() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !ids_.empty(); });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<std::thread::id> ids_;
};

/// Gates every task of every published batch on a TwoThreadGate while it
/// lives, so the build under it runs tasks on at least two threads.
class GatedBuilds {
 public:
  GatedBuilds() {
    detail::set_record_task_hook([this] { gate_.arrive(); });
  }
  ~GatedBuilds() { detail::set_record_task_hook({}); }
  TwoThreadGate& gate() { return gate_; }

 private:
  TwoThreadGate gate_;
};

SortSpec base_spec(Algo algo, keys::RecordType record, Index n) {
  SortSpec spec;
  spec.algo = algo;
  spec.model = algo == Algo::kRadix ? Model::kCcSas : Model::kMpi;
  spec.nprocs = 4;
  spec.n = n;
  spec.radix_bits = 8;
  spec.dist = keys::Dist::kGauss;
  spec.record = record;
  spec.seed = 11;
  spec.ablations.sample_count = 16;
  spec.keep_output = true;
  return spec;
}

std::string name_of(const SortSpec& spec) {
  return std::string(algo_name(spec.algo)) + "/" + model_name(spec.model) +
         "/" + keys::record_name(spec.record) + "/n" + std::to_string(spec.n);
}

/// Random keys and, for kv32, the identity payload lane.
struct Input {
  std::vector<Key> keys;
  std::vector<keys::Payload> pays;
};

Input make_input(const SortSpec& spec) {
  Input in;
  SplitMix64 rng(spec.seed);
  in.keys.resize(spec.n);
  for (Key& k : in.keys) k = static_cast<Key>(rng.next());
  if (spec.record == keys::RecordType::kKeyPayload32) {
    in.pays.resize(spec.n);
    std::iota(in.pays.begin(), in.pays.end(), keys::Payload{0});
  }
  return in;
}

/// Build `spec`'s record through shared_record on one thread while a
/// second caller of the same spec waits for it and helps; both must get
/// the one record.
template <typename Rec>
std::shared_ptr<const Rec> helped_build(const SortSpec& spec,
                                        const std::function<Rec()>& build) {
  clear_retained_records();
  GatedBuilds gated;
  std::shared_ptr<const Rec> built;
  std::thread builder([&] { built = shared_record<Rec>(spec, build); });
  gated.gate().wait_first();
  const std::shared_ptr<const Rec> waited = shared_record<Rec>(
      spec, std::function<Rec()>([]() -> Rec {
        ADD_FAILURE() << "the waiter must not build";
        return Rec{};
      }));
  builder.join();
  EXPECT_EQ(built, waited);
  clear_retained_records();
  return built;
}

/// `got` holds what the serial record `want` holds, and that is `in`
/// sorted.
void expect_same_output(const Input& in, const RecordedOutput& want,
                        const RecordedOutput& got, const std::string& what) {
  std::vector<Key> sorted = in.keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(want.keys, sorted) << what;
  EXPECT_EQ(want.keys, got.keys) << what;
  EXPECT_EQ(want.payloads, got.payloads) << what;
}

TEST(RecordTasks, HelpedLsdRecordEqualsSerialRecord) {
  // 2M + 5 keys split the permute into two rank-aligned groups.
  for (const Index n : {Index{20011}, (Index{2} << 20) + 5}) {
    for (const keys::RecordType record :
         {keys::RecordType::kU32, keys::RecordType::kKeyPayload32}) {
      const SortSpec spec = base_spec(Algo::kRadix, record, n);
      const std::string what = name_of(spec);
      const Input in = make_input(spec);
      const LsdRecord want = record_lsd(spec, in.keys, in.pays);
      const std::shared_ptr<const LsdRecord> got =
          helped_build<LsdRecord>(spec, [&] {
            return record_lsd(spec, in.keys, in.pays);
          });
      ASSERT_NE(got, nullptr) << what;
      expect_same_output(in, want, *got, what);
      ASSERT_EQ(want.passes, got->passes) << what;
      for (std::size_t k = 0; k < want.pass.size(); ++k) {
        const LsdRecord::Pass& a = want.pass[k];
        const LsdRecord::Pass& b = got->pass[k];
        EXPECT_EQ(a.table.starts, b.table.starts) << what << " pass " << k;
        EXPECT_EQ(a.table.before, b.table.before) << what << " pass " << k;
        ASSERT_EQ(a.ranks.size(), b.ranks.size()) << what;
        for (std::size_t r = 0; r < a.ranks.size(); ++r) {
          const LsdRecord::RankPass& x = a.ranks[r];
          const LsdRecord::RankPass& y = b.ranks[r];
          EXPECT_EQ(x.active, y.active) << what << " rank " << r;
          EXPECT_EQ(x.runs, y.runs) << what << " rank " << r;
          EXPECT_EQ(x.tally.bytes_to, y.tally.bytes_to) << what;
          EXPECT_EQ(x.tally.runs_to, y.tally.runs_to) << what;
          EXPECT_EQ(x.tally.local_accesses, y.tally.local_accesses) << what;
          EXPECT_EQ(x.tally.local_runs, y.tally.local_runs) << what;
        }
      }
    }
  }
}

TEST(RecordTasks, HelpedSampleRecordEqualsSerialRecord) {
  for (const Algo algo : {Algo::kSample, Algo::kMsdRadix, Algo::kMergesort}) {
    for (const keys::RecordType record :
         {keys::RecordType::kU32, keys::RecordType::kKeyPayload32}) {
      const SortSpec spec = base_spec(algo, record, 20011);
      const std::string what = name_of(spec);
      const Input in = make_input(spec);
      const SampleRecord want = record_sample(spec, in.keys, in.pays);
      const std::shared_ptr<const SampleRecord> got =
          helped_build<SampleRecord>(spec, [&] {
            return record_sample(spec, in.keys, in.pays);
          });
      ASSERT_NE(got, nullptr) << what;
      expect_same_output(in, want, *got, what);
      EXPECT_EQ(want.samples, got->samples) << what;
      ASSERT_EQ(want.splitters.size(), got->splitters.size()) << what;
      for (std::size_t k = 0; k < want.splitters.size(); ++k) {
        EXPECT_EQ(want.splitters[k].value, got->splitters[k].value) << what;
        EXPECT_EQ(want.splitters[k].src, got->splitters[k].src) << what;
      }
      EXPECT_EQ(want.bounds, got->bounds) << what;
      EXPECT_EQ(want.run_begin, got->run_begin) << what;
    }
  }
}

// The sorts that share a helped record — the builder's and the helper's —
// report exactly what each reports alone (the charge programs read every
// record field, the local-sort charge logs included).
TEST(RecordTasks, SortsOfAHelpedRecordMatchSoloRuns) {
  for (const Algo algo : {Algo::kRadix, Algo::kSample}) {
    for (const keys::RecordType record :
         {keys::RecordType::kU32, keys::RecordType::kKeyPayload32}) {
      const SortSpec first = base_spec(algo, record, 20011);
      SortSpec second = first;
      second.model = Model::kShmem;
      clear_retained_records();
      const SortResult want_first = try_run_sort(first).value();
      clear_retained_records();
      const SortResult want_second = try_run_sort(second).value();
      clear_retained_records();
      Result<SortResult> got_first = Status::internal("not run");
      Result<SortResult> got_second = Status::internal("not run");
      {
        GatedBuilds gated;
        std::thread builder([&] { got_first = try_run_sort(first); });
        gated.gate().wait_first();
        got_second = try_run_sort(second);
        builder.join();
      }
      clear_retained_records();
      ASSERT_TRUE(got_first.ok()) << got_first.status().to_string();
      ASSERT_TRUE(got_second.ok()) << got_second.status().to_string();
      expect_identical(want_first, *got_first, name_of(first));
      expect_identical(want_second, *got_second, name_of(second));
    }
  }
}

// A task that throws on the helper's thread fails the build on the
// builder; the waiter starts over and builds the record itself.
TEST(RecordTasks, HelperTaskFailureSurfacesOnBuilderAndWaiterStartsOver) {
  clear_retained_records();
  const SortSpec spec = base_spec(Algo::kRadix, keys::RecordType::kU32, 64);
  TwoThreadGate gate;
  std::thread::id builder_id;
  Status builder_status = Status::internal("no error");
  std::thread builder([&] {
    builder_id = std::this_thread::get_id();
    try {
      (void)shared_record<LsdRecord>(spec, [&] {
        record_tasks(8, [&](std::size_t) {
          gate.arrive();
          if (std::this_thread::get_id() != builder_id) {
            throw Error("helper task failed");
          }
        });
        return LsdRecord{};
      });
    } catch (const Error& e) {
      builder_status = e.status();
    }
  });
  gate.wait_first();
  const std::shared_ptr<const LsdRecord> rebuilt =
      shared_record<LsdRecord>(spec, [] {
        LsdRecord rec;
        rec.passes = 5;
        return rec;
      });
  builder.join();
  EXPECT_EQ(builder_status.message(), "helper task failed");
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(rebuilt->passes, 5);
  clear_retained_records();
}

// A helper whose own cancel token fires mid-batch leaves with kCancelled
// at its next claim; the builder runs every remaining task and shares its
// record.
TEST(RecordTasks, CancelledHelperLeavesWhileBuilderCompletes) {
  clear_retained_records();
  const SortSpec spec = base_spec(Algo::kRadix, keys::RecordType::kU32, 64);
  constexpr std::size_t kTasks = 16;
  TwoThreadGate gate;
  CancelToken token;
  std::thread::id builder_id;
  std::vector<std::atomic<int>> ran(kTasks);
  std::shared_ptr<const LsdRecord> built;
  std::thread builder([&] {
    builder_id = std::this_thread::get_id();
    built = shared_record<LsdRecord>(spec, [&] {
      record_tasks(kTasks, [&](std::size_t i) {
        gate.arrive();
        if (std::this_thread::get_id() != builder_id) token.cancel();
        ran[i].fetch_add(1);
      });
      LsdRecord rec;
      rec.passes = 3;
      return rec;
    });
  });
  gate.wait_first();
  SortSpec helper = spec;
  helper.hooks.cancel = &token;
  try {
    (void)shared_record<LsdRecord>(helper, [] {
      ADD_FAILURE() << "the helper must not build";
      return LsdRecord{};
    });
    ADD_FAILURE() << "the cancelled helper returned a record";
  } catch (const Error& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
  }
  builder.join();
  EXPECT_TRUE(token.cancelled());
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->passes, 3);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "task " << i;
  }
  clear_retained_records();
}

// Outside a build record_tasks is a plain loop: in order, on the calling
// thread, stopping at the first throw.
TEST(RecordTasks, OutsideABuildIsAPlainLoop) {
  std::vector<std::size_t> order;
  EXPECT_THROW(record_tasks(5,
                            [&](std::size_t i) {
                              order.push_back(i);
                              if (i == 2) throw Error("stop");
                            }),
               Error);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace dsm::sort
