// Records shared between sorts (DESIGN.md §5.3).
//
// A record is one model-independent host execution of a sort's data
// question: radix sort's LSD passes (LsdRecord, radix_parallel.hpp) or the
// sample-sort skeleton's local sorts, splitters and redistribution
// (SampleRecord, sample_parallel.hpp). Every model's charge program reads
// the same record, so sorts of one input under several models execute it
// once. This header holds what the two kinds have in common: the recorded
// output and its verdict, and the one mechanism that shares a record
// between sorts.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "keys/record.hpp"
#include "sort/sort_api.hpp"
#include "sort/verify.hpp"

namespace dsm::sort {

/// What every record holds besides its charge inputs: the sorted output
/// every model reports, its kv32 lane, the input checksums and the
/// output's verdict. The verdict reads only the concatenated output, so it
/// holds for every model's run split; it is computed once per record and
/// read by every sort that shares it.
struct RecordedOutput {
  std::vector<Key> keys;                // the sorted output
  std::vector<keys::Payload> payloads;  // its kv32 lane; empty for u32
  Checksum input;                       // input key multiset
  std::uint64_t input_pairs = 0;  // pair_fingerprint of the input records
  RunsVerdict verdict;            // the output checked against the input
};

/// The kinds of record. Each kind keeps its own retained slot, so a
/// figure cell's radix record never evicts its sample record.
enum class RecordKind { kLsd, kSample };

namespace detail {
std::shared_ptr<const void> shared_record(
    RecordKind kind, const SortSpec& spec,
    const std::function<std::shared_ptr<const void>()>& build);
}  // namespace detail

/// The record `spec` asks for, shared between sorts. Sorts whose specs
/// agree on every field that changes what the host executes or produces
/// share one record: dist, n, nprocs, radix_bits, seed, record type, algo,
/// kernel_backend and kernel_jobs, plus detect_max_key for radix sort and
/// sample_count for the sample skeleton (the CC-SAS splitter group size
/// changes charges only, so it is not among them). Each kind retains its
/// most recently started record until the next record of that kind
/// starts; a record some sort still holds is never freed. A caller that
/// finds its record still being built blocks until it is done, polling
/// its own spec.hooks.cancel while it waits, and helps: it runs tasks of
/// every batch the build publishes through record_tasks. A cancelled
/// waiter throws kCancelled and leaves the build to its owner. A build
/// that throws (cancellation, a failed allocation, a task that failed on
/// any thread) is never shared: its builder gets the error, and its
/// waiters start over. `build` runs on the calling thread, at most once
/// per call.
template <typename Rec>
std::shared_ptr<const Rec> shared_record(const SortSpec& spec,
                                         const std::function<Rec()>& build) {
  return std::static_pointer_cast<const Rec>(detail::shared_record(
      Rec::kKind, spec, [&build]() -> std::shared_ptr<const void> {
        return std::make_shared<const Rec>(build());
      }));
}

/// Run task(0), ..., task(count - 1), each exactly once, and return when
/// all have run. Inside a shared_record build this publishes the tasks as
/// one batch on the build's slot: the builder and every sort waiting for
/// that record claim indices in ascending order, each task on the thread
/// that claims it, so tasks must write disjoint state and take their
/// scratch from their own thread. It returns once every claimed task has
/// run and no waiter is still inside the batch, and rethrows the failure
/// of the lowest-index task that threw; after a failure no further task
/// starts. A waiter polls its own cancel token before each claim and
/// leaves with kCancelled, so tasks poll the builder's spec themselves.
/// Anywhere else — outside a build, on a waiter, or for a single task —
/// it is a plain loop that stops at the first throw.
void record_tasks(std::size_t count,
                  const std::function<void(std::size_t)>& task);

namespace detail {
/// Test seam: `hook` runs on the claiming thread before every task of a
/// published batch (not of a plain loop); empty removes it. Set it only
/// while no record is being built.
void set_record_task_hook(std::function<void()> hook);
}  // namespace detail

/// Drop the retained records of `spec`'s input — every kind, whatever its
/// algorithm, radix size or settings: the specs that agree with `spec` on
/// dist, n, nprocs, seed and record type. For a caller that knows no
/// later sort reads that input, so its records do not stay resident until
/// the next record of their kind starts. A record some sort still holds
/// is freed when that sort finishes.
void release_retained_records(const SortSpec& spec);

/// Drop every retained record, so the next sort of any spec records
/// afresh.
void clear_retained_records();

}  // namespace dsm::sort
