// Tests for the common substrate: Status/Result and math utilities.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "dpcluster/common/math_util.h"
#include "dpcluster/common/status.h"
#include "test_util.h"

namespace dpcluster {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad t");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad t");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad t");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNoPrivateAnswer), "NoPrivateAnswer");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted), "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded), "DeadlineExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NoPrivateAnswer("suppressed");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNoPrivateAnswer);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<double>> r = std::vector<double>{1.0, 2.0};
  ASSERT_TRUE(r.ok());
  std::vector<double> v = std::move(r).value();
  EXPECT_EQ(v.size(), 2u);
}

// Reading the value of an error Result is a programming error: every
// accessor aborts and names the status instead of reading an empty optional.
TEST(ResultDeathTest, AccessorsOnAnErrorAbortNamingTheStatus) {
  const Result<std::vector<double>> r = Status::NoPrivateAnswer("suppressed");
  EXPECT_DEATH((void)r.value(), "ok\\(\\): NoPrivateAnswer: suppressed");
  EXPECT_DEATH((void)*r, "NoPrivateAnswer: suppressed");
  EXPECT_DEATH((void)r->size(), "NoPrivateAnswer: suppressed");
  Result<std::vector<double>> moved = Status::Internal("gone");
  EXPECT_DEATH((void)std::move(moved).value(), "Internal: gone");
}

Status FailsThrough() {
  DPC_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::OK();
}

Result<int> AssignsThrough() {
  DPC_ASSIGN_OR_RETURN(int v, Result<int>(7));
  return v + 1;
}

Result<int> AssignsError() {
  DPC_ASSIGN_OR_RETURN(int v, Result<int>(Status::Internal("nope")));
  return v;
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThrough().code(), StatusCode::kInternal);
}

TEST(StatusMacrosTest, AssignOrReturnPropagatesValueAndError) {
  auto ok = AssignsThrough();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 8);
  EXPECT_EQ(AssignsError().status().code(), StatusCode::kInternal);
}

TEST(MathUtilTest, IteratedLogKnownValues) {
  EXPECT_EQ(IteratedLog(0.5), 0);
  EXPECT_EQ(IteratedLog(1.0), 0);
  EXPECT_EQ(IteratedLog(2.0), 1);
  EXPECT_EQ(IteratedLog(4.0), 2);
  EXPECT_EQ(IteratedLog(16.0), 3);
  EXPECT_EQ(IteratedLog(65536.0), 4);
  EXPECT_EQ(IteratedLog(std::pow(2.0, 100.0)), 5);
}

TEST(MathUtilTest, TowerMatchesIteratedLog) {
  // log*(tower(j)) == j for the representable range.
  for (int j = 0; j <= 4; ++j) {
    EXPECT_EQ(IteratedLog(Tower(j)), j) << "j=" << j;
  }
  EXPECT_TRUE(std::isinf(Tower(6)));
}

TEST(MathUtilTest, FloorCeilLog2) {
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(FloorLog2(3), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  for (int p = 1; p < 62; ++p) {
    const std::uint64_t v = std::uint64_t{1} << p;
    EXPECT_EQ(FloorLog2(v), p);
    EXPECT_EQ(CeilLog2(v), p);
    EXPECT_EQ(FloorLog2(v + 1), p);
    EXPECT_EQ(CeilLog2(v + 1), p + 1);
  }
}

TEST(MathUtilTest, LogSumExpStable) {
  const double vals[] = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(vals), 1000.0 + std::log(2.0), 1e-9);
  const double tiny[] = {-1000.0, -1000.0, -1000.0};
  EXPECT_NEAR(LogSumExp(tiny), -1000.0 + std::log(3.0), 1e-9);
  EXPECT_TRUE(std::isinf(LogSumExp({})));
}

TEST(MathUtilTest, PaperGammaScalesInverselyWithEpsilon) {
  const double g1 = PaperGamma(1e6, 1.0, 0.1, 1e-9);
  const double g2 = PaperGamma(1e6, 2.0, 0.1, 1e-9);
  EXPECT_GT(g1, 0.0);
  EXPECT_NEAR(g1 / g2, 2.0, 1e-9);
  // The verbatim constant is astronomically large — that is the point of the
  // practical preset (DESIGN.md substitution #2).
  EXPECT_GT(g1, 1e6);
}

TEST(MathUtilTest, PaperGammaGrowsWithDomain) {
  EXPECT_LE(PaperGamma(1e3, 1.0, 0.1, 1e-9), PaperGamma(1e18, 1.0, 0.1, 1e-9));
}

}  // namespace
}  // namespace dpcluster
