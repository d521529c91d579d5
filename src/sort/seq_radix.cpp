#include "sort/seq_radix.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace dsm::sort {
namespace {

/// Exclusive prefix of `counts` into `cursor` (write cursors), returning
/// the nonzero bucket count from the same sweep. Fused because n << 2^r
/// sorts are bound by these bucket loops, not the key sweeps.
std::uint64_t exclusive_prefix_active(std::span<const std::uint64_t> counts,
                                      std::span<std::uint64_t> cursor) {
  std::uint64_t acc = 0;
  std::uint64_t active = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t c = counts[b];
    cursor[b] = acc;
    acc += c;
    active += c != 0 ? 1 : 0;
  }
  return active;
}

/// Snapshot the permute's starting cursors for the payload mirror: the
/// key permute consumes `cursor`, and the mirror must replay the same
/// stable scatter from the same starting positions.
std::span<std::uint64_t> snapshot_cursor(RadixWorkspace& ws,
                                         std::span<const std::uint64_t> cursor) {
  if (ws.pay_cursor.size() < cursor.size()) ws.pay_cursor.resize(cursor.size());
  std::copy(cursor.begin(), cursor.end(), ws.pay_cursor.begin());
  return {ws.pay_cursor.data(), cursor.size()};
}

}  // namespace

int radix_passes(int radix_bits) {
  DSM_REQUIRE(radix_bits >= 1 && radix_bits <= 20, "radix bits out of range");
  return static_cast<int>(ceil_div(kKeyBits, static_cast<std::uint64_t>(radix_bits)));
}

int radix_passes_for_max(int radix_bits, Key max_key) {
  DSM_REQUIRE(radix_bits >= 1 && radix_bits <= 20, "radix bits out of range");
  const int bits = std::max(1, bit_width_u64(max_key));
  return static_cast<int>(
      ceil_div(static_cast<std::uint64_t>(bits),
               static_cast<std::uint64_t>(radix_bits)));
}

void radix_sort_impl(ChargeLog* log, std::span<Key> keys,
                     std::span<Key> tmp, PayloadLanes lanes, int radix_bits,
                     KernelBackend be, RadixWorkspace& ws) {
  DSM_REQUIRE(tmp.size() >= keys.size(), "tmp must be at least as large");
  const std::size_t n = keys.size();
  const bool paired = !lanes.pays.empty();
  DSM_REQUIRE(!paired || (lanes.pays.size() == n && lanes.tmp.size() >= n),
              "payload lanes must match the key span");
  const int passes = radix_passes(radix_bits);
  const std::size_t buckets = std::size_t{1} << radix_bits;
  const std::span<Key> key_tmp = tmp.first(n);
  const std::span<keys::Payload> pay_tmp = lanes.tmp.first(paired ? n : 0);
  bool in_keys = true;  // which toggle buffer physically holds the data

  // One stable permutation of the live buffer into the other by digit
  // `pass` through `cursor` (consumed). The payload lane replays the same
  // scatter from a snapshot of the starting cursors.
  const auto permute = [&](int pass, std::span<std::uint64_t> cursor,
                           std::uint64_t active) {
    const std::span<Key> src = in_keys ? keys : key_tmp;
    const std::span<Key> dst = in_keys ? key_tmp : keys;
    std::span<std::uint64_t> mirror;
    if (paired) mirror = snapshot_cursor(ws, cursor);
    const std::uint64_t runs =
        permute_kernel(be, src, dst, pass, radix_bits, cursor, active, ws);
    if (log != nullptr) log->permute_pass(n, runs, active, n);
    if (paired) {
      payload_mirror_scatter(src, in_keys ? lanes.pays : pay_tmp,
                             in_keys ? pay_tmp : lanes.pays, pass, radix_bits,
                             mirror);
    }
    in_keys = !in_keys;
  };

  if (be == KernelBackend::kReference) {
    // The seed structure: count, scan and scatter every pass.
    ws.prepare(radix_bits);
    const std::span<std::uint64_t> hist(ws.hist.data(), buckets);
    for (int pass = 0; pass < passes; ++pass) {
      const std::uint64_t active = histogram_kernel(
          be, in_keys ? keys : key_tmp, pass, radix_bits, hist, ws);
      if (log != nullptr) log->histogram_pass(n, buckets);
      // Exclusive prefix -> running write cursors.
      std::uint64_t acc = 0;
      for (std::size_t b = 0; b < buckets; ++b) {
        const std::uint64_t c = hist[b];
        hist[b] = acc;
        acc += c;
      }
      if (log != nullptr) log->scan(buckets);
      permute(pass, hist, active);
    }
  } else {
    // Optimized pipeline. The per-pass digit histograms of a private
    // local sort are permutation-invariant (each pass only reorders the
    // same key multiset), so one real sweep over the initial keys yields
    // every pass's histogram — the simulator still charges one counting
    // sweep per pass, exactly as the reference executes it.
    ws.prepare(radix_bits, passes);
    const std::span<std::uint64_t> pass_hist(
        ws.pass_hist.data(), static_cast<std::size_t>(passes) * buckets);
    multi_histogram_kernel(be, keys, passes, radix_bits, pass_hist, ws);
    const std::span<std::uint64_t> cursor(ws.hist.data(), buckets);
    for (int pass = 0; pass < passes; ++pass) {
      const std::span<const std::uint64_t> hist_p = pass_hist.subspan(
          static_cast<std::size_t>(pass) * buckets, buckets);
      const std::uint64_t active = exclusive_prefix_active(hist_p, cursor);
      if (log != nullptr) {
        log->histogram_pass(n, buckets);
        log->scan(buckets);
      }
      if (active <= 1) {
        // Dead pass: the identity permutation (its one bucket's exclusive
        // prefix is 0). Charge exactly what the reference measures for it
        // (one run, one active bucket) and move no data — the buffer
        // toggle is logical only.
        if (log != nullptr) log->permute_pass(n, n > 0 ? 1 : 0, active, n);
        continue;
      }
      permute(pass, cursor, active);
    }
  }
  // The reference copies back (and charges the copy) iff the total pass
  // count is odd; physically we copy iff the data ended up in tmp.
  if (log != nullptr && passes % 2 != 0) log->copy_back(n);
  if (!in_keys) {
    std::copy_n(key_tmp.data(), n, keys.data());
    if (paired) std::copy_n(pay_tmp.data(), n, lanes.pays.data());
  }
}

void seq_radix_sort(std::span<Key> keys, std::span<Key> tmp, int radix_bits,
                    KernelBackend be, RadixWorkspace& ws,
                    PayloadLanes lanes) {
  radix_sort_impl(nullptr, keys, tmp, lanes, radix_bits, be, ws);
}

void local_radix_sort(ChargeLog& log, std::span<Key> keys, std::span<Key> tmp,
                      int radix_bits, KernelBackend be, RadixWorkspace& ws,
                      PayloadLanes lanes) {
  radix_sort_impl(&log, keys, tmp, lanes, radix_bits, be, ws);
}

void local_radix_sort(sim::ProcContext& ctx, std::span<Key> keys,
                      std::span<Key> tmp, int radix_bits, KernelBackend be,
                      RadixWorkspace& ws, PayloadLanes lanes) {
  ChargeLog log;
  local_radix_sort(log, keys, tmp, radix_bits, be, ws, lanes);
  log.replay(ctx);
}

}  // namespace dsm::sort
