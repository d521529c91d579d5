// `dsmsort_benchmark --compare A/ B/`: the verdict, per (workload,
// end-to-end metric), between the runs of a parent commit saved in A/ and
// the runs of a change saved in B/ (run.sh --save DIR writes them, one JSON
// result per line in DIR/<workload>.jsonl).
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace bench {

/// Just enough JSON for BENCHMARK.json and the result lines runs print.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  /// Member `key` of an object; a null value when absent.
  const Json& operator[](const std::string& key) const;
};

/// Parse one JSON document; throws std::runtime_error on malformed text.
Json parse_json(const std::string& text);

/// Compare A/ against B/ under the bounds of `benchmark_json`. Prints one
/// line per (workload, end-to-end metric); returns 1 when any cell is
/// worse, 0 otherwise.
int compare_dirs(const std::string& benchmark_json, const std::string& a,
                 const std::string& b, std::ostream& out);

}  // namespace bench
