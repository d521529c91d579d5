// Internal wire-format helpers shared by the journal and snapshot codecs
// (the trace decoder borrows parse_whole for its integer fields).
//
// Both durability files carry text payloads inside CRC-framed binary
// blobs. The text grammar is deliberately tiny: whitespace-separated
// tokens, integers in decimal, doubles in hexfloat (so they round-trip
// bit-exactly — the calibration-identity guarantee depends on it), and
// strings as netstrings ("<len>:<bytes>", binary-safe). The cluster
// frame codec reuses the grammar. Malformed input throws dsm::Error
// carrying the Parser's corruption status (kCorruptJournal, or
// kCorruptFrame on a socket), never UB; each public decoder runs its
// parse through wire::decode, the one place that throw becomes a Result.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/status.hpp"

namespace dsm::svc::wire {

/// A record larger than this cannot be legitimate; a bigger length field
/// means the framing is damaged.
constexpr std::uint32_t kMaxRecordBytes = 16u << 20;

/// Parse all of `text` as a base-10 integer of the field's own type `T`.
/// Rejects "" and trailing characters ("8x"), a '+' sign, a '-' sign on
/// an unsigned field, and any value outside T's range — never wraps or
/// truncates.
template <typename T>
bool parse_whole(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

inline std::string dbl(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

inline std::string netstr(const std::string& s) {
  return std::to_string(s.size()) + ":" + s;
}

inline void put_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

inline std::uint32_t get_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Whitespace-token / netstring parser over one payload. Every
/// malformation throws Error(corrupt("<what>: <why>")).
class Parser {
 public:
  explicit Parser(const std::string& s,
                  Status (*corrupt)(std::string) = &Status::corrupt_journal,
                  const char* what = "durability payload")
      : s_(s), corrupt_(corrupt), what_(what) {}

  std::string tok() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of record");
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ' ') ++pos_;
    return s_.substr(start, pos_ - start);
  }

  std::uint64_t u64() { return integer<std::uint64_t>(); }

  int i32() { return integer<int>(); }

  double d() {
    const std::string t = tok();
    char* end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (t.empty() || end != t.c_str() + t.size()) fail("bad double: " + t);
    return v;
  }

  bool b() {
    const std::uint64_t v = u64();
    if (v > 1) fail("bad bool");
    return v == 1;
  }

  /// Next whitespace token without consuming it; "" at end of record.
  /// Lets decoders probe for versioned trailing fields (e.g. the job
  /// codec's ` rec <name>` run) without breaking on old-format payloads.
  std::string peek_tok() {
    skip_ws();
    std::size_t p = pos_;
    while (p < s_.size() && s_[p] != ' ') ++p;
    return s_.substr(pos_, p - pos_);
  }

  /// The value of a name lookup (algorithm, status code, ...); an unknown
  /// name is this payload's corruption.
  template <typename T>
  T must(Result<T> r) {
    if (!r.ok()) fail(r.status().message());
    return std::move(r).value();
  }

  std::string str() {
    skip_ws();
    std::size_t len = 0;
    bool any = false;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      len = len * 10 + static_cast<std::size_t>(s_[pos_] - '0');
      if (len > kMaxRecordBytes) fail("netstring too long");
      ++pos_;
      any = true;
    }
    if (!any || pos_ >= s_.size() || s_[pos_] != ':') fail("bad netstring");
    ++pos_;  // ':'
    if (pos_ + len > s_.size()) fail("netstring overruns record");
    std::string out = s_.substr(pos_, len);
    pos_ += len;
    return out;
  }

 private:
  template <typename T>
  T integer() {
    const std::string t = tok();
    T v{};
    if (!parse_whole(t, &v)) fail("bad integer: " + t);
    return v;
  }

  void skip_ws() {
    while (pos_ < s_.size() && s_[pos_] == ' ') ++pos_;
  }
  [[noreturn]] void fail(const std::string& why) {
    throw Error(corrupt_(std::string(what_) + ": " + why));
  }

  const std::string& s_;
  Status (*corrupt_)(std::string);
  const char* what_;
  std::size_t pos_ = 0;
};

/// Run a throwing parse and return its value, or the Status it threw: the
/// boundary where every public decoder turns a Parser failure into a
/// Result.
template <typename Parse>
auto decode(Parse parse) -> Result<decltype(parse())> {
  try {
    return parse();
  } catch (const Error& e) {
    return e.status();
  }
}

}  // namespace dsm::svc::wire
