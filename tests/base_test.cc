#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "gtest/gtest.h"

#include "base/check.h"
#include "base/result.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/string_util.h"
#include "base/timer.h"

namespace dhgcn {
namespace {

// --- Status ---------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
  EXPECT_TRUE(status.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad k");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(status.message(), "bad k");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
}

TEST(StatusTest, CopySharesErrorState) {
  Status original = Status::Internal("boom");
  Status copy = original;
  EXPECT_EQ(copy.ToString(), original.ToString());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInvalidArgument),
            "InvalidArgument");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

// --- Result ---------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::NotFound("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(ResultTest, MoveValueTransfersOwnership) {
  Result<std::vector<int>> result = std::vector<int>{1, 2, 3};
  std::vector<int> value = result.MoveValue();
  EXPECT_EQ(value.size(), 3u);
}

namespace status_macro_helpers {

Result<int> MaybeValue(bool ok) {
  if (ok) return 7;
  return Status::InvalidArgument("nope");
}

Status UseAssignOrReturn(bool ok, int* out) {
  DHGCN_ASSIGN_OR_RETURN(int value, MaybeValue(ok));
  *out = value;
  return Status::OK();
}

Status UseReturnIfError(bool ok) {
  DHGCN_RETURN_IF_ERROR(UseAssignOrReturn(ok, &*std::make_unique<int>(0)));
  return Status::OK();
}

}  // namespace status_macro_helpers

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(status_macro_helpers::UseAssignOrReturn(true, &out).ok());
  EXPECT_EQ(out, 7);
  Status failed = status_macro_helpers::UseAssignOrReturn(false, &out);
  EXPECT_TRUE(failed.IsInvalidArgument());
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(status_macro_helpers::UseReturnIfError(true).ok());
  EXPECT_FALSE(status_macro_helpers::UseReturnIfError(false).ok());
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool any_different = false;
  for (int i = 0; i < 16 && !any_different; ++i) {
    any_different = a.Uniform() != b.Uniform();
  }
  EXPECT_TRUE(any_different);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntHitsAllValues) {
  Rng rng(6);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(7);
  std::vector<int64_t> perm = rng.Permutation(50);
  ASSERT_EQ(perm.size(), 50u);
  std::vector<int64_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (int64_t i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, PermutationZeroEmpty) {
  Rng rng(7);
  EXPECT_TRUE(rng.Permutation(0).empty());
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int64_t> sample = rng.SampleWithoutReplacement(25, 10);
    ASSERT_EQ(sample.size(), 10u);
    std::set<int64_t> distinct(sample.begin(), sample.end());
    EXPECT_EQ(distinct.size(), 10u);
    for (int64_t v : sample) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 25);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(9);
  std::vector<int64_t> sample = rng.SampleWithoutReplacement(6, 6);
  std::sort(sample.begin(), sample.end());
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(sample[static_cast<size_t>(i)], i);
}

TEST(RngTest, NormalWithZeroStddevReturnsMeanAndAdvancesLikeADraw) {
  Rng flat(21), spread(21);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(flat.Normal(2.5f, 0.0f), 2.5f);
    EXPECT_TRUE(std::isfinite(spread.Normal(2.5f, 1.0f)));
  }
  EXPECT_EQ(flat.SerializeState(), spread.SerializeState());
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(13);
  Rng child = parent.Split();
  // The child stream should not reproduce the parent stream.
  Rng parent_again(13);
  // lint: allow-discard — Split() is called to advance the parent state.
  (void)parent_again.Split();
  bool differs = false;
  for (int i = 0; i < 8 && !differs; ++i) {
    differs = child.Uniform() != parent.Uniform();
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, BernoulliRespectsProbabilityRoughly) {
  Rng rng(21);
  int hits = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.25f) ? 1 : 0;
  double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.25, 0.04);
}

TEST(RngTest, NormalHasRoughMoments) {
  Rng rng(31);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 8000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(2.0f, 3.0f);
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.15);
  EXPECT_NEAR(var, 9.0, 0.8);
}

// --- String utils -----------------------------------------------------------

TEST(StringUtilTest, StrCatMixedTypes) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(StringUtilTest, StrJoin) {
  std::vector<int> items = {1, 2, 3};
  EXPECT_EQ(StrJoin(items, ", "), "1, 2, 3");
  EXPECT_EQ(StrJoin(std::vector<int>{}, ","), "");
}

TEST(StringUtilTest, StrSplitKeepsEmptyFields) {
  std::vector<std::string> parts = StrSplit("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, FormatFixedAndPercent) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFixed(2.0, 0), "2");
  EXPECT_EQ(FormatPercent(0.875), "87.5");
  EXPECT_EQ(FormatPercent(1.0), "100.0");
}

// --- Timer ------------------------------------------------------------------

TEST(TimerTest, ElapsedIsMonotonic) {
  WallTimer timer;
  double t1 = timer.ElapsedSeconds();
  double t2 = timer.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  timer.Reset();
  EXPECT_GE(timer.ElapsedMillis(), 0.0);
}

// --- Check macros (death tests) ---------------------------------------------

TEST(CheckDeathTest, CheckFailsOnFalse) {
  EXPECT_DEATH(DHGCN_CHECK(1 == 2), "DHGCN_CHECK failed");
}

TEST(CheckDeathTest, CheckEqReportsValues) {
  int a = 3, b = 4;
  EXPECT_DEATH(DHGCN_CHECK_EQ(a, b), "3 vs. 4");
}

TEST(CheckDeathTest, CheckOkAbortsOnError) {
  EXPECT_DEATH(DHGCN_CHECK_OK(Status::Internal("kaput")), "kaput");
}

}  // namespace
}  // namespace dhgcn
