#include "base/flags.h"

#include <cstdlib>

#include "gtest/gtest.h"

#include "base/runtime_flags.h"

namespace dhgcn {
namespace {

struct ParsedFlags {
  int64_t count = 5;
  double rate = 0.5;
  std::string name = "default";
  bool verbose = false;
};

Status ParseInto(ParsedFlags& values, std::vector<const char*> args) {
  FlagSet flags("test");
  flags.AddInt64("count", &values.count, "a count");
  flags.AddDouble("rate", &values.rate, "a rate");
  flags.AddString("name", &values.name, "a name");
  flags.AddBool("verbose", &values.verbose, "verbosity");
  args.insert(args.begin(), "prog");
  return flags.Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagsTest, DefaultsSurviveEmptyParse) {
  ParsedFlags values;
  ASSERT_TRUE(ParseInto(values, {}).ok());
  EXPECT_EQ(values.count, 5);
  EXPECT_DOUBLE_EQ(values.rate, 0.5);
  EXPECT_EQ(values.name, "default");
  EXPECT_FALSE(values.verbose);
}

TEST(FlagsTest, EqualsSyntax) {
  ParsedFlags values;
  ASSERT_TRUE(
      ParseInto(values, {"--count=42", "--rate=0.25", "--name=foo"}).ok());
  EXPECT_EQ(values.count, 42);
  EXPECT_DOUBLE_EQ(values.rate, 0.25);
  EXPECT_EQ(values.name, "foo");
}

TEST(FlagsTest, SpaceSyntax) {
  ParsedFlags values;
  ASSERT_TRUE(ParseInto(values, {"--count", "7", "--name", "bar"}).ok());
  EXPECT_EQ(values.count, 7);
  EXPECT_EQ(values.name, "bar");
}

TEST(FlagsTest, BareBoolSetsTrue) {
  ParsedFlags values;
  ASSERT_TRUE(ParseInto(values, {"--verbose"}).ok());
  EXPECT_TRUE(values.verbose);
}

TEST(FlagsTest, BoolExplicitValues) {
  ParsedFlags values;
  ASSERT_TRUE(ParseInto(values, {"--verbose=true"}).ok());
  EXPECT_TRUE(values.verbose);
  ASSERT_TRUE(ParseInto(values, {"--verbose=false"}).ok());
  EXPECT_FALSE(values.verbose);
  ASSERT_TRUE(ParseInto(values, {"--verbose=1"}).ok());
  EXPECT_TRUE(values.verbose);
  EXPECT_FALSE(ParseInto(values, {"--verbose=maybe"}).ok());
}

TEST(FlagsTest, NegativeNumbers) {
  ParsedFlags values;
  ASSERT_TRUE(ParseInto(values, {"--count=-3", "--rate=-1.5"}).ok());
  EXPECT_EQ(values.count, -3);
  EXPECT_DOUBLE_EQ(values.rate, -1.5);
}

TEST(FlagsTest, UnknownFlagFails) {
  ParsedFlags values;
  Status status = ParseInto(values, {"--bogus=1"});
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("bogus"), std::string::npos);
}

TEST(FlagsTest, BadIntegerFails) {
  ParsedFlags values;
  EXPECT_FALSE(ParseInto(values, {"--count=abc"}).ok());
  EXPECT_FALSE(ParseInto(values, {"--count=12x"}).ok());
}

TEST(FlagsTest, MissingValueFails) {
  ParsedFlags values;
  EXPECT_FALSE(ParseInto(values, {"--count"}).ok());
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  FlagSet flags("test");
  int64_t count = 0;
  flags.AddInt64("count", &count, "a count");
  const char* args[] = {"prog", "first", "--count=3", "second"};
  ASSERT_TRUE(flags.Parse(4, args).ok());
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "first");
  EXPECT_EQ(flags.positional()[1], "second");
}

TEST(FlagsTest, UsageListsFlagsAndDefaults) {
  FlagSet flags("mytool");
  int64_t epochs = 10;
  flags.AddInt64("epochs", &epochs, "training epochs");
  std::string usage = flags.Usage();
  EXPECT_NE(usage.find("mytool"), std::string::npos);
  EXPECT_NE(usage.find("--epochs"), std::string::npos);
  EXPECT_NE(usage.find("training epochs"), std::string::npos);
  EXPECT_NE(usage.find("default: 10"), std::string::npos);
}

// --- RuntimeFlags: the knobs both CLI tools share -----------------------------

// Parses `args` into a FlagSet with only RuntimeFlags registered, then
// applies them. None of these cases passes --threads > 0, so the
// process-wide pool is left alone.
Status ParseAndApply(RuntimeFlags& rt, std::vector<const char*> args) {
  FlagSet flags("test");
  rt.Register(&flags);
  args.insert(args.begin(), "prog");
  DHGCN_RETURN_IF_ERROR(
      flags.Parse(static_cast<int>(args.size()), args.data()));
  return rt.Apply();
}

TEST(RuntimeFlagsTest, NegativeThreadsRejected) {
  RuntimeFlags rt;
  Status status = ParseAndApply(rt, {"--threads", "-1"});
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("--threads"), std::string::npos);
}

TEST(RuntimeFlagsTest, PrecisionFlagResolves) {
  RuntimeFlags rt;
  ASSERT_TRUE(ParseAndApply(rt, {"--precision", "int8"}).ok());
  EXPECT_EQ(rt.resolved_precision, Precision::kInt8);

  RuntimeFlags bogus;
  EXPECT_TRUE(
      ParseAndApply(bogus, {"--precision=bogus"}).IsInvalidArgument());
}

TEST(RuntimeFlagsTest, FlagTextBeatsPrecisionEnvironment) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — single-threaded test setup.
  ASSERT_EQ(setenv("DHGCN_PRECISION", "int8", /*overwrite=*/1), 0);
  RuntimeFlags flag_wins;
  ASSERT_TRUE(ParseAndApply(flag_wins, {"--precision", "fp32"}).ok());
  EXPECT_EQ(flag_wins.resolved_precision, Precision::kFp32);

  RuntimeFlags env_only;
  ASSERT_TRUE(ParseAndApply(env_only, {}).ok());
  EXPECT_EQ(env_only.resolved_precision, Precision::kInt8);
}

TEST(RuntimeFlagsTest, SparseRoutingFlagsAreUnknown) {
  // Sparse routing is a property of the operand density, not a knob.
  RuntimeFlags rt;
  for (const char* flag : {"--sparse=off", "--sparse_threshold=0.5"}) {
    Status status = ParseAndApply(rt, {flag});
    EXPECT_TRUE(status.IsInvalidArgument()) << flag;
    EXPECT_NE(status.message().find("unknown"), std::string::npos) << flag;
  }
}

}  // namespace
}  // namespace dhgcn
