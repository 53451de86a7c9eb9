#include "cli/args.h"

#include <gtest/gtest.h>

namespace bb::cli {
namespace {

Args ParseVec(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "backbuster");
  return Args::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, ParsesCommand) {
  const Args a = ParseVec({"simulate"});
  EXPECT_EQ(a.command(), "simulate");
  EXPECT_TRUE(a.errors().empty());
}

TEST(ArgsTest, NoCommandIsEmpty) {
  const Args a = ParseVec({"--out", "x.bbv"});
  EXPECT_EQ(a.command(), "");
  EXPECT_EQ(a.Get("out", ""), "x.bbv");
}

TEST(ArgsTest, KeyValuePairsBothSyntaxes) {
  const Args a = ParseVec({"attack", "--in", "call.bbv", "--phi=6.5"});
  EXPECT_EQ(a.Get("in", ""), "call.bbv");
  EXPECT_DOUBLE_EQ(a.GetDouble("phi", 0.0), 6.5);
}

TEST(ArgsTest, BooleanFlags) {
  const Args a = ParseVec({"simulate", "--dynamic", "--out", "x"});
  EXPECT_TRUE(a.Has("dynamic"));
  EXPECT_FALSE(a.Has("static"));
  EXPECT_EQ(a.Get("out", ""), "x");
}

TEST(ArgsTest, TrailingFlagIsBoolean) {
  const Args a = ParseVec({"simulate", "--verbose"});
  EXPECT_TRUE(a.Has("verbose"));
}

TEST(ArgsTest, TypedAccessorsRejectGarbage) {
  const Args a = ParseVec({"x", "--n", "12", "--bad", "twelve", "--r", "0.5",
                           "--phi", "xyz", "--window", "7x", "--big",
                           "99999999999999999999999"});
  EXPECT_EQ(a.GetInt("n"), 12);
  EXPECT_DOUBLE_EQ(a.GetDouble("r", 1.0), 0.5);
  EXPECT_FALSE(a.GetInt("missing").has_value());
  EXPECT_EQ(a.GetInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(a.GetDouble("missing", 2.5), 2.5);
  EXPECT_TRUE(a.errors().empty());  // absent keys are not errors

  // A present but malformed value still yields the fallback, and records an
  // error naming the key so the caller can refuse the command.
  EXPECT_FALSE(a.GetInt("bad").has_value());
  EXPECT_EQ(a.GetInt("window", 64), 64);
  EXPECT_DOUBLE_EQ(a.GetDouble("phi", 3.0), 3.0);
  EXPECT_FALSE(a.GetInt("big").has_value());  // out of range for long
  ASSERT_EQ(a.errors().size(), 4u);
  EXPECT_NE(a.errors()[0].find("--bad"), std::string::npos);
  EXPECT_NE(a.errors()[0].find("twelve"), std::string::npos);
  EXPECT_NE(a.errors()[1].find("--window"), std::string::npos);
  EXPECT_NE(a.errors()[2].find("--phi"), std::string::npos);
  EXPECT_NE(a.errors()[3].find("--big"), std::string::npos);
}

TEST(ArgsTest, DanglingNumericKeyIsAnError) {
  // "--window" with no value parses as an empty string, which is not an
  // integer.
  const Args a = ParseVec({"x", "--window"});
  EXPECT_EQ(a.GetInt("window", 64), 64);
  ASSERT_EQ(a.errors().size(), 1u);
  EXPECT_NE(a.errors()[0].find("--window"), std::string::npos);
}

TEST(ArgsTest, MalformedTokensAreErrors) {
  const Args a = ParseVec({"x", "-single", "ok"});
  EXPECT_FALSE(a.errors().empty());
}

TEST(ArgsTest, UnconsumedKeysTracksTypos) {
  const Args a = ParseVec({"x", "--good", "1", "--typo", "2"});
  (void)a.Get("good");
  const auto leftover = a.UnconsumedKeys();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "typo");
}

TEST(ArgsTest, EqualsSyntaxWithEmptyValue) {
  const Args a = ParseVec({"x", "--name="});
  EXPECT_TRUE(a.Has("name"));
  EXPECT_EQ(a.Get("name", "zz"), "");
}

TEST(ArgsTest, HasMarksKeyConsumed) {
  // Regression: Has() used to leave the key unconsumed, so flags probed
  // only via Has() (e.g. backbuster's --dynamic) were later rejected as
  // unknown options.
  const Args a = ParseVec({"simulate", "--dynamic"});
  EXPECT_TRUE(a.Has("dynamic"));
  EXPECT_TRUE(a.UnconsumedKeys().empty());
}

Args ParseBool(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "backbuster");
  return Args::Parse(static_cast<int>(argv.size()), argv.data(),
                     {"verbose", "dynamic"});
}

TEST(ArgsTest, DeclaredBooleanFlagDoesNotSwallowNextToken) {
  // Regression: `simulate --verbose out.bbv` used to silently eat
  // `out.bbv` as the value of --verbose.
  const Args a = ParseBool({"simulate", "--verbose", "out.bbv"});
  EXPECT_TRUE(a.GetFlag("verbose"));
  EXPECT_EQ(a.Get("verbose", "sentinel"), "");
  // The stray positional is surfaced as a parse error, not lost.
  ASSERT_EQ(a.errors().size(), 1u);
  EXPECT_NE(a.errors()[0].find("out.bbv"), std::string::npos);
}

TEST(ArgsTest, DeclaredBooleanFlagBeforeRealOption) {
  const Args a = ParseBool({"simulate", "--dynamic", "--out", "x.bbv"});
  EXPECT_TRUE(a.GetFlag("dynamic"));
  EXPECT_EQ(a.Get("out", ""), "x.bbv");
  EXPECT_TRUE(a.errors().empty());
}

TEST(ArgsTest, DeclaredBooleanFlagRejectsEqualsValue) {
  const Args a = ParseBool({"simulate", "--verbose=1"});
  ASSERT_EQ(a.errors().size(), 1u);
  EXPECT_NE(a.errors()[0].find("verbose"), std::string::npos);
}

TEST(ArgsTest, UndeclaredKeysKeepValueGrammar) {
  const Args a = ParseBool({"simulate", "--out", "x.bbv"});
  EXPECT_EQ(a.Get("out", ""), "x.bbv");
  EXPECT_TRUE(a.errors().empty());
}

}  // namespace
}  // namespace bb::cli
