#include "sort/record_share.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <iterator>
#include <mutex>
#include <tuple>

#include "common/error.hpp"

namespace dsm::sort {
namespace {

/// The spec fields that name a record's input, less the radix size: it
/// changes only the remote and local distributions' keys, and the record
/// key holds it anyway.
auto input_key(const SortSpec& s) {
  return std::make_tuple(s.dist, s.n, s.nprocs, s.seed, s.record);
}

/// The spec fields that change what a record executes or produces.
auto record_key(const SortSpec& s) {
  const bool radix = s.algo == Algo::kRadix;
  return std::make_tuple(input_key(s), s.radix_bits, s.algo,
                         radix && s.ablations.detect_max_key,
                         radix ? 0 : s.ablations.sample_count,
                         s.kernel_backend, s.kernel_jobs);
}
using RecordKey = decltype(record_key(std::declval<const SortSpec&>()));

std::function<void()> g_task_hook;  // detail::set_record_task_hook

/// One record_tasks batch, published on its build's slot. It lives on the
/// builder's stack: the builder unpublishes it and waits for `helpers` to
/// reach zero before it returns.
struct TaskBatch {
  TaskBatch(std::size_t n, const std::function<void(std::size_t)>& t)
      : count(n), task(t), errors(n) {}
  const std::size_t count;
  const std::function<void(std::size_t)>& task;
  std::atomic<std::size_t> next{0};  // the lowest unclaimed index
  std::atomic<bool> failed{false};   // a task threw: claim no more
  std::vector<std::exception_ptr> errors;  // [index], by its runner
  int helpers = 0;  // waiters inside the batch; guarded by the slot's mu

  /// Whether a task is left to claim.
  bool open() const {
    return !failed && next < count;
  }

  /// Claim and run tasks until none is left. `own` is a waiter's cancel
  /// token, polled before each claim: false when it fired.
  bool work(const CancelToken* own) {
    for (;;) {
      if (own != nullptr && own->cancelled()) return false;
      if (failed) return true;
      const std::size_t i = next++;
      if (i >= count) return true;
      try {
        if (g_task_hook) g_task_hook();
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
        failed = true;
      }
    }
  }
};

/// One record being built or built, and the sorts waiting for it.
struct RecordSlot {
  explicit RecordSlot(RecordKey k) : key(std::move(k)) {}
  const RecordKey key;
  std::mutex mu;
  std::condition_variable cv;         // done, a batch published or left
  bool done = false;                  // guarded by mu
  std::shared_ptr<const void> rec;    // null after a failed build
  TaskBatch* batch = nullptr;         // guarded by mu; the open batch
};

/// The slot whose record this thread is building, if any.
thread_local RecordSlot* t_building = nullptr;

/// How often a sort waiting for another caller's build polls its own
/// cancel token.
constexpr std::chrono::milliseconds kWaiterCancelPoll{5};

std::mutex g_retained_mu;
// The most recently started record of each kind, [RecordKind].
std::shared_ptr<RecordSlot> g_retained[2];

/// Finish `slot`'s build (a null `rec` for a failed one) and wake its
/// waiters.
void settle(RecordSlot& slot, std::shared_ptr<const void> rec) {
  {
    const std::lock_guard<std::mutex> lock(slot.mu);
    slot.rec = std::move(rec);
    slot.done = true;
  }
  slot.cv.notify_all();
}

}  // namespace

void record_tasks(std::size_t count,
                  const std::function<void(std::size_t)>& task) {
  RecordSlot* const slot = t_building;
  if (slot == nullptr || count < 2) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  TaskBatch batch(count, task);
  {
    const std::lock_guard<std::mutex> lock(slot->mu);
    DSM_REQUIRE(slot->batch == nullptr, "record tasks cannot nest");
    slot->batch = &batch;
  }
  slot->cv.notify_all();
  (void)batch.work(nullptr);
  {
    std::unique_lock<std::mutex> lock(slot->mu);
    slot->batch = nullptr;
    slot->cv.wait(lock, [&batch] { return batch.helpers == 0; });
  }
  for (const std::exception_ptr& e : batch.errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
}

void detail::set_record_task_hook(std::function<void()> hook) {
  g_task_hook = std::move(hook);
}

std::shared_ptr<const void> detail::shared_record(
    RecordKind kind, const SortSpec& spec,
    const std::function<std::shared_ptr<const void>()>& build) {
  const RecordKey key = record_key(spec);
  std::shared_ptr<RecordSlot>& retained =
      g_retained[static_cast<std::size_t>(kind)];
  for (;;) {
    std::shared_ptr<RecordSlot> slot;
    bool builder = false;
    {
      const std::lock_guard<std::mutex> lock(g_retained_mu);
      if (retained == nullptr || retained->key != key) {
        retained = std::make_shared<RecordSlot>(key);
        builder = true;
      }
      slot = retained;
    }
    if (builder) {
      std::shared_ptr<const void> rec;
      try {
        t_building = slot.get();
        rec = build();
        t_building = nullptr;
      } catch (...) {
        t_building = nullptr;
        {  // unpublish before the waiters wake, so they record afresh
          const std::lock_guard<std::mutex> lock(g_retained_mu);
          if (retained == slot) retained.reset();
        }
        settle(*slot, nullptr);
        throw;
      }
      settle(*slot, rec);
      return rec;
    }
    // Wait for the builder and help with each batch it publishes,
    // polling our own cancel token: a cancelled waiter leaves at once
    // instead of after another caller's build.
    std::unique_lock<std::mutex> lock(slot->mu);
    while (!slot->done) {
      if (spec.hooks.cancel != nullptr && spec.hooks.cancel->cancelled()) {
        throw Error(Status::cancelled(
            "sort cancelled while waiting for its record"));
      }
      TaskBatch* const batch = slot->batch;
      if (batch != nullptr && batch->open()) {
        ++batch->helpers;
        lock.unlock();
        const bool stayed = batch->work(spec.hooks.cancel);
        lock.lock();
        --batch->helpers;
        slot->cv.notify_all();
        if (!stayed) {
          throw Error(Status::cancelled(
              "sort cancelled while helping to build its record"));
        }
        continue;
      }
      slot->cv.wait_for(lock, kWaiterCancelPoll);
    }
    if (slot->rec != nullptr) return slot->rec;
    // The build failed and was unpublished: start over.
  }
}

void release_retained_records(const SortSpec& spec) {
  const auto input = input_key(spec);
  // Taken out under the lock, freed after it when this returns.
  std::shared_ptr<RecordSlot> dropped[std::size(g_retained)];
  {
    const std::lock_guard<std::mutex> lock(g_retained_mu);
    for (std::size_t k = 0; k < std::size(g_retained); ++k) {
      if (g_retained[k] != nullptr &&
          std::get<0>(g_retained[k]->key) == input) {
        dropped[k] = std::move(g_retained[k]);
      }
    }
  }
}

void clear_retained_records() {
  const std::lock_guard<std::mutex> lock(g_retained_mu);
  for (std::shared_ptr<RecordSlot>& slot : g_retained) slot.reset();
}

}  // namespace dsm::sort
