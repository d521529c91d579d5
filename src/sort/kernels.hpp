// Host radix kernels: the real data movement the simulator executes.
//
// Every simulated sort performs *actual* histogram and permutation passes
// on the host; at the sizes the figure sweeps use, these loops — not the
// engine — bound host wall-clock time. This layer separates *how the host
// computes* from *what the simulator charges*:
//
//   * `kReference` — the seed loops, kept verbatim: one histogram sweep
//     per pass, a direct scattered-store permute.
//   * `kOptimized` — (a) one-sweep multi-pass histogramming: a single
//     read pass over the keys produces the histograms of every radix
//     pass at once (digit histograms are permutation-invariant, so the
//     initial array determines all of them); (b) a software
//     write-combining permute: per-bucket cache-line buffers flushed
//     contiguously — the paper's CC-SAS-NEW insight (buffer scattered
//     remote writes locally, move them contiguously) applied to the
//     host's own cache hierarchy; (c) a two-level staged scatter for
//     bucket counts whose staging would overflow the cache (radix 16):
//     keys are first grouped by super-digit into a chunk buffer, then
//     each super-bucket is scattered to its final position — both levels
//     keep the live write-stream count small; (d) dead-pass skipping: a
//     pass whose digits are all equal is an identity permutation and
//     moves no data; (e) an optional threaded mode (`jobs`) that shards
//     histogram and permute across host threads inside one charged sort.
//
// The hard contract (see DESIGN.md §9): backends are *charge-invariant*.
// A kernel may change instruction count, sweep structure, staging
// buffers, and host thread count; it must not change the sorted output,
// the per-pass histogram, the measured run structure (`runs`, `active`)
// the cost model consumes, or any charged virtual time. The equivalence
// test tier enforces this bit-for-bit, for every backend and jobs value.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/cli.hpp"
#include "common/scratch.hpp"
#include "common/types.hpp"
#include "keys/record.hpp"

namespace dsm::sort {

enum class KernelBackend {
  kReference,  // seed loops, kept verbatim
  kOptimized,  // one-sweep histograms + staged permutes + dead-pass skip
};

/// Canonical registry table (see common/cli.hpp).
inline constexpr EnumEntry<KernelBackend> kKernelBackendNames[] = {
    {KernelBackend::kReference, "reference"},
    {KernelBackend::kOptimized, "optimized"},
};

const char* kernel_backend_name(KernelBackend b);

/// Keys per software write-combining line: 64 bytes of Key — one host
/// cache line staged per bucket, flushed contiguously when full.
inline constexpr std::size_t kWcLineKeys = 64 / sizeof(Key);

/// Default bucket count at and above which the optimized permute stages
/// writes in write-combining buffers regardless of input size. Below it
/// the destination write streams fit the L1 comfortably and direct
/// scattered stores win (the WC staging would only add a copy) — unless
/// the moved footprint itself is memory-bound, see kWcMinFootprintBytes.
/// Runtime value: kernel_wc_min_buckets().
inline constexpr std::size_t kWcDefaultMinBuckets = 512;

/// Default staging-area ceiling for the one-level WC permute. Past it the
/// per-bucket line buffers no longer fit the L2 and staging evicts the
/// very lines it is trying to batch (measured: 2^16 buckets = 4 MiB
/// staging loses to the direct scatter), so the optimized permute
/// switches to the two-level staged scatter instead. Runtime value:
/// kernel_staging_bytes().
inline constexpr std::size_t kWcDefaultStagingBytes = std::size_t{1} << 20;

/// Moved-bytes threshold past which the permute is DRAM-bound rather than
/// cache-resident. At or above it the optimized permute (a) engages WC
/// staging even below kernel_wc_min_buckets(), and (b) flushes full
/// aligned lines with non-temporal stores where the ISA offers them — the
/// destination is write-only until the next pass, so bypassing the
/// hierarchy saves the read-for-ownership of every destination line.
inline constexpr std::size_t kWcMinFootprintBytes = std::size_t{4} << 20;

/// The two-level scatter only pays once the average bucket holds this
/// many keys; below it the destination write streams are sparse enough
/// that the direct scatter stays cache-resident.
inline constexpr std::size_t kTwoLevelMinKeysPerBucket = 4;

/// Widest super-digit the two-level scatter's first level uses: 2^10
/// coarse buckets keep level-1 staging at 64 KiB regardless of radix.
inline constexpr int kTwoLevelMaxCoarseBits = 10;

/// Default minimum keys per shard before the threaded kernel mode splits
/// a histogram/permute across host threads (thread spawn and the serial
/// cursor merge must amortize). Runtime value: kernel_shard_min_keys().
inline constexpr std::size_t kDefaultShardMinKeys = std::size_t{1} << 17;

/// Below this many bytes an exchange_copy is always a plain memcpy: the
/// non-temporal path's fence and alignment peeling need a run of full
/// cache lines to pay for themselves.
inline constexpr std::size_t kStreamCopyMinBytes = std::size_t{1} << 12;

// The three kernel tunables below start at their constants and are moved
// only by tests (to force a code path at small n) and by
// `host_wallclock --calibrate` (to sweep them). A different host default
// is a change to the constant, measured on that host.

/// One-level WC staging ceiling in bytes (default kWcDefaultStagingBytes;
/// 0 disables one-level staging so large radixes go straight to the
/// two-level scatter).
std::size_t kernel_staging_bytes();
void set_kernel_staging_bytes(std::size_t bytes);

/// WC amortization gate, a minimum bucket count (default
/// kWcDefaultMinBuckets).
std::size_t kernel_wc_min_buckets();
void set_kernel_wc_min_buckets(std::size_t buckets);

/// Threaded-mode shard floor, minimum keys per shard (default
/// kDefaultShardMinKeys).
std::size_t kernel_shard_min_keys();
void set_kernel_shard_min_keys(std::size_t keys);

/// Shard count a kernel call will actually use for `n` keys under a
/// `jobs` thread budget: the jobs cap, then at most one shard per
/// kernel_shard_min_keys() keys.
int effective_kernel_shards(int jobs, std::size_t n);

/// Widest permute-flush ISA this build + host combination dispatches to:
/// "avx2", "sse2", or "scalar". AVX2 variants exist only in the
/// DSMSORT_NATIVE kernel TU and are gated on a runtime CPU check.
const char* kernel_isa_name();

/// Reusable per-caller scratch for the radix kernels. Hoists every
/// allocation the seed kernels made per call (the per-pass `hist`
/// vector) plus the optimized backend's staging: prepare() is cheap when
/// capacities already fit, so a long-lived caller (the service executor,
/// a sweep worker) allocates once and sorts many times.
struct RadixWorkspace {
  /// Size `hist` for 2^radix_bits buckets (contents unspecified).
  void prepare(int radix_bits);
  /// Additionally size the one-sweep table (`pass_hist`, passes rows of
  /// 2^radix_bits buckets).
  void prepare(int radix_bits, int passes);
  /// Size the WC staging buffers for a 2^radix_bits-bucket permute. The
  /// staged permute paths call this themselves; the cache-resident direct
  /// scatter never touches them.
  void prepare_staging(int radix_bits);

  /// Kernel thread budget for calls made through this workspace:
  /// 1 = serial, N = up to N host threads. Output is byte-identical for
  /// every value (enforced by the equivalence tiers); only host
  /// wall-clock changes.
  int jobs = 1;

  std::vector<std::uint64_t> hist;       // 2^radix_bits running cursors
  ScratchVector<std::uint64_t> pass_hist;  // [pass][bucket], one-sweep
                                           // rows (the kernel fills them)
  std::vector<Key> wc_keys;              // staging lines x kWcLineKeys
  std::vector<std::uint32_t> wc_fill;    // staged keys per bucket (all 0
                                         // between permute calls)
  std::vector<std::uint32_t> wc_need;    // keys until next flush (aligns
                                         // streaming flushes to 64B)
  std::vector<Key> chunk;                // two-level: super-digit groups
  std::vector<std::uint64_t> coarse;     // two-level: super-digit cursors
  std::vector<RadixWorkspace> shards;    // threaded: per-shard staging
  std::vector<std::uint64_t> shard_hist;    // threaded: [shard][bucket]
  std::vector<std::uint64_t> shard_cursor;  // threaded: [shard][bucket]
  std::vector<std::uint64_t> pay_cursor;    // paired sorts: cursor snapshot
                                            // for the payload mirror
  ScratchVector<Key> sort_tmp;              // a local sort's key toggle
  ScratchVector<keys::Payload> sort_pay_tmp;  // ... and its payload toggle
  ScratchVector<keys::KeyPayload32> pair_recs;  // stable_payload_mirror:
  ScratchVector<keys::KeyPayload32> pair_tmp;   // record lane + its tmp
  std::vector<Key> lis_tails;               // merge split: patience tails
  std::vector<std::uint32_t> lis_tail_at;   // merge split: input index of
                                            // each tail
  std::vector<std::uint32_t> lis_prev;      // merge split: chain links
};

/// The calling host thread's lazily-created workspace. Sort entry points
/// called without a workspace borrow this; it is safe although the
/// ranks are fibers on one thread because no kernel yields mid-call (the
/// borrow never spans a reconcile point).
RadixWorkspace& tls_radix_workspace();

/// tls_radix_workspace() lent for one scope with kernel thread budget
/// `jobs`; the budget it had before comes back when the scope ends, so a
/// sort's kernel_jobs never leaks into later calls on the same thread.
class ThreadWorkspace {
 public:
  explicit ThreadWorkspace(int jobs)
      : ws_(tls_radix_workspace()), saved_jobs_(ws_.jobs) {
    ws_.jobs = jobs;
  }
  ~ThreadWorkspace() { ws_.jobs = saved_jobs_; }
  ThreadWorkspace(const ThreadWorkspace&) = delete;
  ThreadWorkspace& operator=(const ThreadWorkspace&) = delete;

  RadixWorkspace& get() const { return ws_; }

 private:
  RadixWorkspace& ws_;
  int saved_jobs_;
};

/// Number of nonzero buckets.
std::uint64_t count_active(std::span<const std::uint64_t> hist);

/// One counting pass over `keys` for digit `pass`: fills `hist` (size
/// 2^radix_bits) and returns the number of nonzero buckets. The scalar
/// loop is identical under both backends (a single-pass count is already
/// memory bound); the optimized backend may use the vectorized digit
/// extraction where the build carries it.
std::uint64_t histogram_kernel(KernelBackend be, std::span<const Key> keys,
                               int pass, int radix_bits,
                               std::span<std::uint64_t> hist);

/// Workspace-aware overload: under the optimized backend this may shard
/// the count across `ws.jobs` host threads (per-shard counts summed in
/// fixed shard order — the result is exactly the serial histogram).
std::uint64_t histogram_kernel(KernelBackend be, std::span<const Key> keys,
                               int pass, int radix_bits,
                               std::span<std::uint64_t> hist,
                               RadixWorkspace& ws);

/// One counting pass that also counts digit-run starts per bucket:
/// `run_starts[b]` is the number of bucket-b keys whose predecessor in
/// `keys` carries another digit (the first key counts), so the run starts
/// sum to the `runs` permute_kernel measures on the same span. Fills
/// `hist` exactly as histogram_kernel does and returns the nonzero bucket
/// count. Under the optimized backend `ws.jobs > 1` shards the sweep,
/// stitching run starts across shard boundaries.
std::uint64_t histogram_runs_kernel(KernelBackend be,
                                    std::span<const Key> keys, int pass,
                                    int radix_bits,
                                    std::span<std::uint64_t> hist,
                                    std::span<std::uint64_t> run_starts,
                                    RadixWorkspace& ws);

/// Histograms of every pass at once: fills `pass_hist` (row-major,
/// `passes` rows of 2^radix_bits). kReference performs `passes`
/// independent key sweeps (the seed structure); kOptimized reads the
/// keys once and updates all rows per key.
void multi_histogram_kernel(KernelBackend be, std::span<const Key> keys,
                            int passes, int radix_bits,
                            std::span<std::uint64_t> pass_hist);

/// Workspace-aware overload: the optimized backend may shard the sweep
/// across `ws.jobs` host threads; per-shard tables are summed in fixed
/// shard order so the result is exactly the serial table.
void multi_histogram_kernel(KernelBackend be, std::span<const Key> keys,
                            int passes, int radix_bits,
                            std::span<std::uint64_t> pass_hist,
                            RadixWorkspace& ws);

/// Stable permutation of `in` into `out` by digit `pass`, using `cursor`
/// (size 2^radix_bits) as running write cursors (consumed: advanced past
/// every written key). Returns the measured digit-run count — the charge
/// input the cost model consumes — which is a pure function of the input
/// order and therefore backend-invariant. `active` is the nonzero bucket
/// count of this span's digit histogram (enables the single-bucket
/// contiguous-copy fast path; pass count_active's result). Under the
/// optimized backend `ws.jobs > 1` shards the permute across host
/// threads; stability of every path makes the output byte-identical for
/// any shard count.
std::uint64_t permute_kernel(KernelBackend be, std::span<const Key> in,
                             std::span<Key> out, int pass, int radix_bits,
                             std::span<std::uint64_t> cursor,
                             std::uint64_t active, RadixWorkspace& ws);

/// Contiguous key copy for between-pass exchanges (worker piece moves,
/// sample sort's redistribution). kReference is std::memcpy; kOptimized
/// streams full destination lines with non-temporal stores when the
/// surrounding exchange (`footprint_bytes`, the total bytes the phase
/// moves) is DRAM-bound — the destination is write-only until the next
/// phase, so bypassing the cache saves its read-for-ownership traffic.
/// Byte-identical result under both backends; safe for any alignment;
/// `dst` and `src` must not overlap.
void exchange_copy(KernelBackend be, Key* dst, const Key* src,
                   std::size_t n, std::size_t footprint_bytes);

/// The kv32 payload lane of a local sort, passed as one argument:
/// `pays[i]` rides with keys[i], and `tmp` is its toggle buffer (at least
/// keys.size(); only the LSD sort uses it). Default-constructed (empty
/// `pays`) is a u32 sort with no payload to move.
struct PayloadLanes {
  std::span<keys::Payload> pays;
  std::span<keys::Payload> tmp;
};

/// Host-side payload mirror of a digit scatter: replays the exact stable
/// permutation a key permute applied, moving `pay_in` into `pay_out`
/// through `cursor` (consumed, like permute_kernel's). The payload lane is
/// a host mirror outside the simulated machine — it is never charged and
/// has no backend variants; callers snapshot the cursor state *before*
/// the key permute and hand the copy here.
void payload_mirror_scatter(std::span<const Key> keys,
                            std::span<const keys::Payload> pay_in,
                            std::span<keys::Payload> pay_out, int pass,
                            int radix_bits, std::span<std::uint64_t> cursor);

/// Host-side stable pair mirror for local sorts whose key permutation is
/// not stable (the MSD cycle chase, the merge rounds): rearrange `pays`
/// into the order a stable sort of `keys` would give them, leaving `keys`
/// untouched, with the generic stable LSD pair sort. Uncharged like
/// payload_mirror_scatter; its record lanes live in `ws` and are never
/// zero-filled.
void stable_payload_mirror(std::span<const Key> keys,
                           std::span<keys::Payload> pays, RadixWorkspace& ws);

}  // namespace dsm::sort
