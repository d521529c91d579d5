// dsm::json_escape / json_unescape: the escaping primitive every JSON
// emitter in the tree shares (service metrics, trace files, bench
// artifacts, the quarantine file). The contract under test: escape of a
// hostile string embeds verbatim inside a JSON string literal, and
// unescape inverts escape byte-exactly.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/fsio.hpp"

namespace dsm {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world 123"), "hello world 123");
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("C:\\tmp\\x"), "C:\\\\tmp\\\\x");
}

TEST(JsonEscape, EscapesControlCharacters) {
  // Every control byte uses the uniform \u00XX form.
  EXPECT_EQ(json_escape("a\nb"), "a\\u000ab");
  EXPECT_EQ(json_escape("a\tb"), "a\\u0009b");
  EXPECT_EQ(json_escape("a\rb"), "a\\u000db");
  EXPECT_EQ(json_escape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(json_escape(std::string("\x00", 1)), "\\u0000");
}

TEST(JsonEscape, OutputContainsNoRawSpecials) {
  // The property that makes embedding safe: no raw quote, no raw control
  // byte, and every backslash starts a valid escape.
  const std::string hostile =
      "path \"C:\\x\"\n\ttail\x1f" + std::string(1, '\0') + "end";
  const std::string e = json_escape(hostile);
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(e[i]), 0x20u);
    if (e[i] == '\\') {  // escape payload may legitimately be '"' or '\'
      ++i;
      continue;
    }
    EXPECT_NE(e[i], '"');
  }
}

TEST(JsonUnescape, InvertsEscapeOnHostileStrings) {
  const std::string hostile_cases[] = {
      "plain",
      "quote \" backslash \\ slash /",
      "newline\nreturn\rtab\tbell\b\f",
      std::string("nul\x00mid", 7),
      "ctrl\x01\x02\x1e\x1f",
      "trailing backslash \\",
      "json inside: {\"k\": [1, 2]}",
      "utf8 bytes: \xc3\xa9\xe2\x82\xac",  // passed through untouched
  };
  for (const std::string& s : hostile_cases) {
    EXPECT_EQ(json_unescape(json_escape(s)), s) << json_escape(s);
  }
}

TEST(JsonUnescape, LenientOnForeignEscapes) {
  // Inputs json_escape never produces must not throw or drop bytes.
  EXPECT_EQ(json_unescape("a\\qb"), "a\\qb");   // unknown escape kept
  EXPECT_EQ(json_unescape("tail\\"), "tail\\");  // dangling backslash kept
  EXPECT_EQ(json_unescape("\\u00"), "\\u00");    // truncated \u kept
  EXPECT_EQ(json_unescape("\\u0041"), "A");      // full \u resolved
  // Short forms other emitters use resolve too.
  EXPECT_EQ(json_unescape("a\\nb\\tc\\rd\\be\\ff\\/g"), "a\nb\tc\rd\be\ff/g");
}

// The shared primitive is also the safety net for files: a hostile error
// string written through an emitter and read back must survive an on-disk
// round trip through the atomic writer.
TEST(JsonEscape, HostileStringSurvivesAtomicFileRoundTrip) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/json_roundtrip.json";
  const std::string hostile =
      "fault at \"phase:\\local_sort\"\n\tcode=\x02" +
      std::string(1, '\0') + "end";
  const std::string doc = "{\"error\": \"" + json_escape(hostile) + "\"}";
  ASSERT_TRUE(try_write_file_atomic(path, doc).ok());
  Result<std::string> back = try_read_file(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, doc);
  // Extract the literal back out and unescape: byte-identical payload.
  const std::size_t a = back->find(": \"") + 3;
  const std::size_t b = back->rfind("\"}");
  EXPECT_EQ(json_unescape(back->substr(a, b - a)), hostile);
}

}  // namespace
}  // namespace dsm
