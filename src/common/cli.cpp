#include "common/cli.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/table.hpp"

namespace dsm {
namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  DSM_REQUIRE(!out.empty(), "empty list: " + s);
  return out;
}

/// The value of `--name` parsed by `parse` (std::stoll / std::stod),
/// which must consume all of `text`: "8x" is as bad as "abc", and either
/// error names the flag.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& text,
                 const char* what, Parse parse) {
  DSM_REQUIRE(!text.empty(), "--" + name + " needs a value");
  std::size_t pos = 0;
  decltype(parse(text, &pos)) value{};
  try {
    value = parse(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  DSM_REQUIRE(pos == text.size(),
              "--" + name + ": bad " + what + " '" + text + "'");
  return value;
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  DSM_REQUIRE(argc >= 1, "argc must be >= 1");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    DSM_REQUIRE(arg.rfind("--", 0) == 0, "options must start with --: " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";  // bare flag
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string ArgParser::get(const std::string& name,
                           const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_whole(name, it->second, "integer",
                     [](const std::string& s, std::size_t* pos) {
                       return std::stoll(s, pos);
                     });
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_whole(name, it->second, "number",
                     [](const std::string& s, std::size_t* pos) {
                       return std::stod(s, pos);
                     });
}

std::vector<std::uint64_t> ArgParser::get_counts(
    const std::string& name, const std::string& fallback) const {
  // Strict parse, all violations reported at once: a long comma list with
  // two typos should cost the user one round trip, not two.
  std::vector<std::uint64_t> out;
  std::string bad;
  for (const auto& item : split_commas(get(name, fallback))) {
    try {
      out.push_back(parse_count(item));
    } catch (const std::exception&) {
      bad += (bad.empty() ? "'" : ", '") + item + "'";
    }
  }
  DSM_REQUIRE(bad.empty(), "--" + name + ": bad count items: " + bad);
  return out;
}

std::vector<int> ArgParser::get_ints(const std::string& name,
                                     const std::string& fallback) const {
  std::vector<int> out;
  std::string bad;
  for (const auto& item : split_commas(get(name, fallback))) {
    try {
      std::size_t pos = 0;
      const int v = std::stoi(item, &pos);
      DSM_REQUIRE(pos == item.size(), "trailing characters");
      out.push_back(v);
    } catch (const std::exception&) {
      bad += (bad.empty() ? "'" : ", '") + item + "'";
    }
  }
  DSM_REQUIRE(bad.empty(), "--" + name + ": bad int items: " + bad);
  return out;
}

void ArgParser::check_known(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : values_) {
    (void)value;
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw Error("unknown option --" + name + " (known: " + [&] {
        std::string s;
        for (const auto& k : known) s += "--" + k + " ";
        return s;
      }());
    }
  }
}

}  // namespace dsm
