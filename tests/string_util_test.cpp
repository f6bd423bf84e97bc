#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cctype>

namespace mate {
namespace {

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("MuHaMMad"), "muhammad");
  EXPECT_EQ(ToLower("ABC-123"), "abc-123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-space"), "no-space");
}

TEST(StringUtilTest, NormalizeValue) {
  EXPECT_EQ(NormalizeValue("  Muhammad "), "muhammad");
  EXPECT_EQ(NormalizeValue("US"), "us");
  EXPECT_EQ(NormalizeValue(" 60K"), "60k");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split(",b,", ','), (std::vector<std::string>{"", "b", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  std::string original = "x|y||z";
  EXPECT_EQ(Join(Split(original, '|'), "|"), original);
}

TEST(StringUtilTest, IsAllDigits) {
  EXPECT_TRUE(IsAllDigits("0123456789"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_FALSE(IsAllDigits("12a"));
  EXPECT_FALSE(IsAllDigits("-12"));
}

TEST(StringUtilTest, ParseSmallUint) {
  unsigned value = 99;
  EXPECT_TRUE(ParseSmallUint("0", 1024, &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseSmallUint("1024", 1024, &value));
  EXPECT_EQ(value, 1024u);

  value = 99;
  EXPECT_FALSE(ParseSmallUint("1025", 1024, &value));
  EXPECT_FALSE(ParseSmallUint("", 1024, &value));
  EXPECT_FALSE(ParseSmallUint("abc", 1024, &value));
  EXPECT_FALSE(ParseSmallUint("-1", 1024, &value));
  EXPECT_FALSE(ParseSmallUint("12 ", 1024, &value));
  // 2^32 and far beyond must not wrap into range.
  EXPECT_FALSE(ParseSmallUint("4294967296", 1024, &value));
  EXPECT_FALSE(ParseSmallUint("99999999999999999999", 1024, &value));
  EXPECT_EQ(value, 99u);  // untouched on every failure
}

TEST(StringUtilTest, AsciiPredicatesMatchNormalizeValueOnEveryByte) {
  // One definition of space and case for NormalizeValue, Trim and ToLower,
  // equal to the "C" locale's isspace/tolower, which the library never
  // changes.
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const std::string one(1, c);
    const std::string padded = " " + one + "\t";
    EXPECT_EQ(IsAsciiSpace(c), std::isspace(b) != 0) << b;
    EXPECT_EQ(AsciiToLower(c), static_cast<char>(std::tolower(b))) << b;
    const std::string norm = NormalizeValue(padded);
    EXPECT_EQ(norm, IsAsciiSpace(c) ? "" : std::string(1, AsciiToLower(c)))
        << b;
    EXPECT_EQ(ToLower(Trim(padded)), norm) << b;
  }
  // Bytes >= 0x80 are not folded: UTF-8 "É" (C3 89) is not "é" (C3 A9).
  EXPECT_EQ(NormalizeValue("\xC3\x89"), "\xC3\x89");
  EXPECT_NE(NormalizeValue("\xC3\x89"), NormalizeValue("\xC3\xA9"));
}

TEST(StringUtilTest, FormatKeyCombo) {
  EXPECT_EQ(FormatKeyCombo({"muhammad", "lee", "us"}), "muhammad|lee|us");
}

}  // namespace
}  // namespace mate
