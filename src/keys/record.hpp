// The record concept: what the sort system knows about one sortable
// element beyond "a uint32_t".
//
// The paper (and PRs 1-7) sort uniform 32-bit keys. Real workloads carry
// records — a sort key plus a payload that must travel with it — and
// later backends (MSD radix over strings, external sort) need key
// extraction to be a concept, not a hardcoded type. This header supplies
// both layers of that concept:
//
//   * A *templated core*: RecordTraits<R>, following the kxsort
//     RadixTraits shape (`n_bytes`, `kth_byte`, `compare`, plus `key_of`
//     because our LSD passes are r-bit digits, not whole bytes), and
//     record_lsd_sort<Traits>() — a generic stable LSD radix sort any
//     trait instantiation gets for free. Tests pin the data-plane
//     implementations against it.
//
//   * A *type-erased boundary*: RecordType + RecordTypeInfo, the small
//     runtime dispatch SortSpec / JobSpec / the codecs carry. The
//     simulated data plane stays Key-typed (SharedArray, symmetric heaps,
//     message buffers are unchanged); a payload-bearing record adds a
//     mirrored payload lane moved host-side at every key-movement site.
//     Each local sort takes that lane as one optional argument
//     (sort::PayloadLanes, empty for u32) instead of having a kv32 twin.
//     Charged virtual time is a pure function of the key lane — the
//     record-oblivious charging contract: a kv32 sort charges exactly
//     what the u32 sort of the same key stream charges (DESIGN.md §11).
//
// Two concrete records ship end-to-end: kU32 (the existing key,
// observationally invisible) and kKeyPayload32 (u32 key + 32-bit payload
// index, permuted with the key, stability-verified).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/cli.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace dsm::keys {

enum class RecordType {
  kU32,           // bare 32-bit key (the paper's element)
  kKeyPayload32,  // 32-bit key + 32-bit payload index ("kv32")
};

inline constexpr RecordType kAllRecordTypes[] = {RecordType::kU32,
                                                 RecordType::kKeyPayload32};

/// Payload lane element type: a 32-bit index into the original input
/// (assigned at generation as the key's global position, which makes
/// stability checkable: equal keys must keep ascending payloads).
using Payload = std::uint32_t;

/// The key+payload record, SIGMOD SortRecord style but 4+4 bytes.
struct KeyPayload32 {
  Key key = 0;
  Payload payload = 0;
  friend bool operator==(const KeyPayload32&, const KeyPayload32&) = default;
};

/// Radix traits over a record type — the kxsort RadixTraits shape.
/// Specializations provide:
///   n_bytes      — key bytes a byte-wise MSD/LSD sort would consume
///   has_payload  — whether the record carries bytes beyond the key
///   kth_byte     — k-th least-significant key byte
///   compare      — strict weak order on records (key order)
///   key_of       — the radix key (our LSD passes use r-bit digits of it)
template <typename R>
struct RecordTraits;

template <>
struct RecordTraits<Key> {
  using record_type = Key;
  static constexpr int n_bytes = 4;
  static constexpr bool has_payload = false;
  static int kth_byte(const Key& x, int k) {
    return static_cast<int>((x >> (8 * k)) & 0xff);
  }
  static bool compare(const Key& a, const Key& b) { return a < b; }
  static Key key_of(const Key& x) { return x; }
};

template <>
struct RecordTraits<KeyPayload32> {
  using record_type = KeyPayload32;
  static constexpr int n_bytes = 4;  // the payload is carried, not sorted on
  static constexpr bool has_payload = true;
  static int kth_byte(const KeyPayload32& x, int k) {
    return static_cast<int>((x.key >> (8 * k)) & 0xff);
  }
  static bool compare(const KeyPayload32& a, const KeyPayload32& b) {
    return a.key < b.key;
  }
  static Key key_of(const KeyPayload32& x) { return x.key; }
};

/// Type-erased record description for the SortSpec / wire boundary.
struct RecordTypeInfo {
  RecordType type = RecordType::kU32;
  const char* name = "u32";
  std::size_t width_bytes = sizeof(Key);  // bytes moved per record
  bool has_payload = false;
};

/// Canonical registry table (see common/cli.hpp). Wire names are part of
/// the journal/cluster format: never rename an entry.
inline constexpr EnumEntry<RecordType> kRecordTypeNames[] = {
    {RecordType::kU32, "u32"},
    {RecordType::kKeyPayload32, "kv32"},
};

const RecordTypeInfo& record_info(RecordType t);
const char* record_name(RecordType t);
/// Typed inverse of record_name: kInvalidArgument on an unknown name.
Result<RecordType> record_from_name(const std::string& name);

/// Generic stable LSD radix sort over any RecordTraits instantiation —
/// the templated core of the record concept. Sorts `recs` ascending by
/// Traits::key_of using `tmp` (same size) as the toggle buffer; the
/// result always ends in `recs`. Deliberately simple (one histogram pass
/// per digit, direct scatter): this is the semantic reference the
/// kernel-layer data plane is tested against, and the extension point a
/// new record type starts from before it earns a mirrored fast path.
template <typename Traits>
void record_lsd_sort(std::span<typename Traits::record_type> recs,
                     std::span<typename Traits::record_type> tmp,
                     int radix_bits) {
  using R = typename Traits::record_type;
  DSM_REQUIRE(radix_bits >= 1 && radix_bits <= 20, "radix bits out of range");
  DSM_REQUIRE(tmp.size() >= recs.size(), "tmp must be at least as large");
  const int passes = static_cast<int>(
      ceil_div(kKeyBits, static_cast<std::uint64_t>(radix_bits)));
  const std::size_t buckets = std::size_t{1} << radix_bits;
  const std::size_t n = recs.size();
  std::vector<std::uint64_t> hist(buckets);
  R* in = recs.data();
  R* out = tmp.data();
  for (int pass = 0; pass < passes; ++pass) {
    std::fill(hist.begin(), hist.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++hist[radix_digit(Traits::key_of(in[i]), pass, radix_bits)];
    }
    std::uint64_t acc = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::uint64_t c = hist[b];
      hist[b] = acc;
      acc += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      out[hist[radix_digit(Traits::key_of(in[i]), pass, radix_bits)]++] =
          in[i];
    }
    std::swap(in, out);
  }
  if (in != recs.data()) {
    std::copy_n(in, n, recs.data());
  }
}

}  // namespace dsm::keys
