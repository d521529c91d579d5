#include "sort/record_share.hpp"

#include <chrono>
#include <condition_variable>
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

/// One record being built or built, and the sorts waiting for it.
struct RecordSlot {
  explicit RecordSlot(RecordKey k) : key(std::move(k)) {}
  const RecordKey key;
  std::mutex mu;
  std::condition_variable done_cv;
  bool done = false;                    // guarded by mu
  std::shared_ptr<const void> rec;      // null after a failed build
};

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
  slot.done_cv.notify_all();
}

}  // namespace

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
        rec = build();
      } catch (...) {
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
    // Wait for the builder, polling our own cancel token: a cancelled
    // waiter leaves at once instead of after another caller's build.
    std::unique_lock<std::mutex> lock(slot->mu);
    while (!slot->done) {
      if (spec.hooks.cancel != nullptr && spec.hooks.cancel->cancelled()) {
        throw Error(Status::cancelled(
            "sort cancelled while waiting for its record"));
      }
      slot->done_cv.wait_for(lock, kWaiterCancelPoll);
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
