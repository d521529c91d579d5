// Minimal command-line option parsing for the bench/example binaries.
//
// Supported syntax: `--name value`, `--name=value`, bare `--flag`.
// Unknown options and malformed numbers throw dsm::Error naming the flag,
// so typos don't silently run the default experiment. Enum flags go
// through enum_from_name, whose Result a binary unwraps with .value().
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace dsm {

/// One row of a table-driven enum <-> name registry. Every user-facing
/// enum (sort::Algo, sort::Model, keys::Dist, keys::RecordType,
/// sort::KernelBackend) declares exactly one canonical table next to its
/// definition and routes names through enum_name / enum_from_name below
/// — one place to add a value, one error shape for every flag and
/// decoder that parses it.
template <typename E>
struct EnumEntry {
  E value;
  const char* name;
};

/// Canonical name of `v`, or "?" for a value missing from the table (a
/// programming error surfaced loudly in output rather than UB).
template <typename E>
const char* enum_name(std::span<const EnumEntry<E>> table, E v) {
  for (const EnumEntry<E>& e : table) {
    if (e.value == v) return e.name;
  }
  return "?";
}

/// Typed inverse: the value named `name`, or kInvalidArgument listing
/// every accepted name. `what` labels the enum in the message ("algorithm",
/// "distribution", ...). Matching is exact — no prefixes, no case folding —
/// so hostile input can never alias a valid value.
template <typename E>
Result<E> enum_from_name(std::span<const EnumEntry<E>> table,
                         std::string_view name, const char* what) {
  for (const EnumEntry<E>& e : table) {
    if (name == e.name) return e.value;
  }
  std::string msg = "unknown ";
  msg += what;
  msg += ": '";
  msg += name;
  msg += "' (expected one of:";
  for (const EnumEntry<E>& e : table) {
    msg += ' ';
    msg += e.name;
  }
  msg += ")";
  return Status::invalid_argument(std::move(msg));
}

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// True if `--name` was passed (with or without a value).
  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;

  /// Parse a comma-separated list of counts ("1M,4M,16M").
  std::vector<std::uint64_t> get_counts(const std::string& name,
                                        const std::string& fallback) const;

  /// Parse a comma-separated list of integers ("16,32,64").
  std::vector<int> get_ints(const std::string& name,
                            const std::string& fallback) const;

  /// Throw unless every seen option is in `known` (call after all gets).
  void check_known(const std::vector<std::string>& known) const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace dsm
