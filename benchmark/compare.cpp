#include "compare.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "stats.hpp"

namespace bench {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json document() {
    Json v = value();
    skip_ws();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("bad JSON at offset " + std::to_string(i_) +
                             ": " + what);
  }
  void skip_ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_])) != 0) {
      ++i_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }
  bool literal(const char* word) {
    const std::string w = word;
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) fail("dangling escape");
        const char e = s_[i_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Only the ASCII range occurs in the benchmark's own files.
            if (i_ + 4 > s_.size()) fail("short \\u escape");
            c = static_cast<char>(
                std::strtol(s_.substr(i_, 4).c_str(), nullptr, 16));
            i_ += 4;
            break;
          default: c = e; break;
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }

  Json value() {
    skip_ws();
    if (i_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[i_];
    if (c == '{') {
      v.type = Json::Type::kObject;
      ++i_;
      if (eat('}')) return v;
      do {
        skip_ws();
        std::string key = string();
        expect(':');
        v.object[key] = value();
      } while (eat(','));
      expect('}');
    } else if (c == '[') {
      v.type = Json::Type::kArray;
      ++i_;
      if (eat(']')) return v;
      do {
        v.array.push_back(value());
      } while (eat(','));
      expect(']');
    } else if (c == '"') {
      v.type = Json::Type::kString;
      v.string = string();
    } else if (literal("true")) {
      v.type = Json::Type::kBool;
      v.boolean = true;
    } else if (literal("false")) {
      v.type = Json::Type::kBool;
    } else if (literal("null")) {
      v.type = Json::Type::kNull;
    } else {
      const char* begin = s_.c_str() + i_;
      char* end = nullptr;
      v.number = std::strtod(begin, &end);
      if (end == begin) fail("unexpected character");
      v.type = Json::Type::kNumber;
      i_ += static_cast<std::size_t>(end - begin);
    }
    return v;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The correct runs saved for one workload, oldest first.
std::vector<Json> load_runs(const std::string& dir, const std::string& name,
                            std::size_t* incorrect) {
  std::ifstream in(dir + "/" + name + ".jsonl");
  std::vector<Json> runs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '{') continue;
    Json run = parse_json(line);
    if (run["correct"].boolean) {
      runs.push_back(std::move(run));
    } else {
      ++*incorrect;
    }
  }
  return runs;
}

std::vector<double> metric_values(const std::vector<Json>& runs,
                                  const std::string& metric) {
  std::vector<double> out;
  for (const Json& r : runs) {
    const Json& v = r["metrics"][metric]["value"];
    if (v.type == Json::Type::kNumber) out.push_back(v.number);
  }
  return out;
}

}  // namespace

const Json& Json::operator[](const std::string& key) const {
  static const Json kNull;
  const auto it = object.find(key);
  return it == object.end() ? kNull : it->second;
}

Json parse_json(const std::string& text) { return Parser(text).document(); }

int compare_dirs(const std::string& benchmark_json, const std::string& a,
                 const std::string& b, std::ostream& out) {
  const Json spec = parse_json(read_file(benchmark_json));
  bool any_worse = false;
  out << std::left << std::setw(20) << "workload" << std::setw(16) << "metric"
      << "parent median [q1, q3] | change median [q1, q3] | pairs won"
      << " | parent spread | bound | verdict\n";
  for (const Json& w : spec["workloads"].array) {
    const std::string name = w["name"].string;
    std::size_t bad_a = 0;
    std::size_t bad_b = 0;
    const std::vector<Json> runs_a = load_runs(a, name, &bad_a);
    const std::vector<Json> runs_b = load_runs(b, name, &bad_b);
    if (bad_a + bad_b > 0) {
      out << name << ": ignoring " << bad_a << " incorrect parent and "
          << bad_b << " incorrect change runs\n";
    }
    for (const Json& m : spec["end_to_end"].array) {
      const std::string metric = m["name"].string;
      const Comparison c = compare_runs(
          metric_values(runs_a, metric), metric_values(runs_b, metric),
          m["better"].string == "higher", m["bound"].number);
      any_worse = any_worse || c.verdict == Verdict::kWorse;
      out << std::left << std::setw(20) << name << std::setw(16) << metric
          << std::setprecision(4) << c.parent.median << " [" << c.parent.q1
          << ", " << c.parent.q3 << "] | " << c.change.median << " ["
          << c.change.q1 << ", " << c.change.q3 << "] | " << c.pairs
          << " pairs, " << std::setprecision(3) << c.share_won * 100
          << "% won | " << c.parent_spread * 100 << "% | "
          << m["bound"].number * 100 << "% | " << verdict_name(c.verdict)
          << (c.pairs < kMinPairs ? " (needs >= 10 pairs)" : "") << "\n";
    }
  }
  return any_worse ? 1 : 0;
}

}  // namespace bench
