#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace dsm {
namespace {

ArgParser make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, SpaceSeparatedValue) {
  auto a = make({"--n", "4M"});
  EXPECT_EQ(a.get("n", ""), "4M");
}

TEST(ArgParser, EqualsValue) {
  auto a = make({"--n=4M"});
  EXPECT_EQ(a.get("n", ""), "4M");
}

TEST(ArgParser, BareFlag) {
  auto a = make({"--full"});
  EXPECT_TRUE(a.has("full"));
  EXPECT_FALSE(a.has("quick"));
}

TEST(ArgParser, FlagFollowedByOption) {
  auto a = make({"--full", "--n", "8"});
  EXPECT_TRUE(a.has("full"));
  EXPECT_EQ(a.get_int("n", 0), 8);
}

TEST(ArgParser, Fallbacks) {
  auto a = make({});
  EXPECT_EQ(a.get("missing", "dflt"), "dflt");
  EXPECT_EQ(a.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(a.get_double("missing", 1.5), 1.5);
}

TEST(ArgParser, CountsList) {
  auto a = make({"--sizes", "1M,4M,64K"});
  const auto v = a.get_counts("sizes", "");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1ull << 20);
  EXPECT_EQ(v[2], 64ull << 10);
}

TEST(ArgParser, IntsList) {
  auto a = make({"--procs", "16,32,64"});
  const auto v = a.get_ints("procs", "");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], 32);
}

TEST(ArgParser, ListFallbackUsed) {
  auto a = make({});
  const auto v = a.get_ints("procs", "1,2");
  ASSERT_EQ(v.size(), 2u);
}

TEST(ArgParser, CountsListReportsEveryBadItemInOneError) {
  auto a = make({"--sizes", "1M,bogus,4M,1Q"});
  try {
    (void)a.get_counts("sizes", "");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--sizes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'bogus'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'1Q'"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("'1M'"), std::string::npos) << msg;  // good items absent
  }
}

TEST(ArgParser, IntsListReportsEveryBadItemInOneError) {
  auto a = make({"--procs", "16,x,32,y"});
  try {
    (void)a.get_ints("procs", "");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'x'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'y'"), std::string::npos) << msg;
  }
}

TEST(ArgParser, IntsListRejectsTrailingCharacters) {
  auto a = make({"--procs", "12x"});
  EXPECT_THROW(a.get_ints("procs", ""), Error);
}

TEST(ArgParser, IntRejectsTrailingCharactersNamingTheFlag) {
  auto a = make({"--radix", "8x"});
  try {
    (void)a.get_int("radix", 0);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--radix"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'8x'"), std::string::npos) << msg;
  }
}

TEST(ArgParser, IntRejectsGarbageNamingTheFlag) {
  auto a = make({"--radix", "abc"});
  try {
    (void)a.get_int("radix", 0);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--radix"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("stoll"), std::string::npos) << msg;
  }
}

TEST(ArgParser, DoubleParsesWholeValuesOnly) {
  auto a = make({"--rate", "0.10", "--seconds", "20", "--bad", "0.1s"});
  EXPECT_DOUBLE_EQ(a.get_double("rate", 0), 0.10);
  EXPECT_DOUBLE_EQ(a.get_double("seconds", 0), 20);
  EXPECT_THROW((void)a.get_double("bad", 0), Error);
}

TEST(ArgParser, RejectsNonOption) {
  EXPECT_THROW(make({"positional"}), Error);
}

TEST(ArgParser, CheckKnownFlagsUnknown) {
  auto a = make({"--typo", "1"});
  EXPECT_THROW(a.check_known({"n", "procs"}), Error);
  auto b = make({"--n", "1"});
  EXPECT_NO_THROW(b.check_known({"n"}));
}

}  // namespace
}  // namespace dsm
