// Tests for GoodCenter (Algorithm 2, Lemma 4.12): given the cluster radius,
// the released center must sit near the planted cluster.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dpcluster/core/good_center.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/geo/ball.h"
#include "dpcluster/la/vector_ops.h"
#include "test_util.h"

namespace dpcluster {
namespace {

GoodCenterOptions TestOptions(double eps) {
  GoodCenterOptions o;
  o.params = {eps, 1e-8};
  o.beta = 0.1;
  return o;
}

TEST(GoodCenterOptionsTest, Validation) {
  GoodCenterOptions o = TestOptions(1.0);
  EXPECT_OK(o.Validate());
  o.params.delta = 0.0;
  EXPECT_FALSE(o.Validate().ok());
  o = TestOptions(1.0);
  o.box_side_factor = 2.0;
  EXPECT_FALSE(o.Validate().ok());
  o = TestOptions(1.0);
  o.interval_multiplier = 1.0;
  EXPECT_FALSE(o.Validate().ok());
  o = TestOptions(1.0);
  o.jl_constant = 0.0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(GoodCenterOptionsTest, PaperConstantsPreset) {
  const GoodCenterOptions paper = GoodCenterOptions::PaperConstants();
  EXPECT_DOUBLE_EQ(paper.jl_constant, 46.0);
  EXPECT_DOUBLE_EQ(paper.box_side_factor, 300.0);
  EXPECT_DOUBLE_EQ(paper.threshold_offset_factor, 100.0);
  EXPECT_EQ(paper.max_jl_dim, 0u);
  EXPECT_OK(paper.Validate());
}

TEST(GoodCenterTest, ValidatesArguments) {
  Rng rng(1);
  const PointSet empty(2);
  EXPECT_FALSE(GoodCenter(rng, empty, 1, 0.1, TestOptions(1.0)).ok());
  const PointSet s = testing_util::MakePointSet(2, {0.5, 0.5});
  EXPECT_FALSE(GoodCenter(rng, s, 0, 0.1, TestOptions(1.0)).ok());
  EXPECT_FALSE(GoodCenter(rng, s, 2, 0.1, TestOptions(1.0)).ok());
  EXPECT_FALSE(GoodCenter(rng, s, 1, 0.0, TestOptions(1.0)).ok());
  EXPECT_FALSE(GoodCenter(rng, s, 1, -1.0, TestOptions(1.0)).ok());
}

class GoodCenterDimTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoodCenterDimTest, CenterLandsNearPlantedCluster) {
  const std::size_t d = GetParam();
  Rng rng(100 + d);
  const std::size_t n = d >= 8 ? 6000 : 2500;
  const std::size_t t = d >= 8 ? 4000 : 1200;
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = n, .dim = d, .levels = 1u << 16,
                             .cluster_radius = 0.02,
                             .cluster_fraction = (t + 0.5) / n}));

  const GoodCenterOptions options = TestOptions(4.0);
  int near = 0;
  const int trials = 4;
  for (int trial = 0; trial < trials; ++trial) {
    ASSERT_OK_AND_ASSIGN(
        GoodCenterResult result,
        GoodCenter(rng, w.points, w.t, w.primary().radius, options));
    ASSERT_EQ(result.center.size(), d);
    // The effective radius around the released center that recaptures ~80% of
    // the cluster size; the proof bound is O(r sqrt(k)) and in practice the
    // center sits essentially on the cluster.
    const double tight = RadiusCapturing(
        w.points, result.center,
        static_cast<std::size_t>(0.8 * static_cast<double>(w.t)));
    if (tight <= 12.0 * w.primary().radius) ++near;
    EXPECT_GT(result.jl_dim, 1u);
    EXPECT_GE(result.rounds_used, 1u);
    EXPECT_GT(result.guarantee_radius, 0.0);
  }
  EXPECT_GE(near, trials - 1) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Dims, GoodCenterDimTest,
                         ::testing::Values<std::size_t>(1, 2, 4, 8));

TEST(GoodCenterTest, DiagnosticsAreConsistent) {
  Rng rng(5);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 2000, .dim = 2, .cluster_radius = 0.02,
                             .cluster_fraction = (1000 + 0.5) / 2000}));
  ASSERT_OK_AND_ASSIGN(GoodCenterResult result,
                       GoodCenter(rng, w.points, w.t, 0.02, TestOptions(4.0)));
  // The noisy box count should be near t (the cluster fits in one box).
  EXPECT_GT(result.noisy_box_count, 0.5 * static_cast<double>(w.t));
  EXPECT_GT(result.noisy_inlier_count, 0.0);
  EXPECT_GT(result.noise_sigma, 0.0);
  // Guarantee radius formula: (sqrt(2) * box_side + 1) * r * sqrt(k).
  const GoodCenterOptions o = TestOptions(4.0);
  const double expect = (std::sqrt(2.0) * o.box_side_factor + 1.0) * 0.02 *
                        std::sqrt(static_cast<double>(result.jl_dim));
  EXPECT_NEAR(result.guarantee_radius, expect, 1e-9);
}

TEST(GoodCenterTest, OverlyTightRadiusTimesOutOrFails) {
  // If no ball of radius r holds t points, the retry loop must not succeed
  // spuriously: expect DeadlineExceeded (or a NoPrivateAnswer downstream).
  Rng rng(6);
  PointSet s = testing_util::UniformCube(rng, 400, 2);
  GoodCenterOptions options = TestOptions(2.0);
  options.max_rounds = 50;
  const auto result = GoodCenter(rng, s, 300, 1e-6, options);
  EXPECT_FALSE(result.ok());
}

TEST(GoodCenterTest, RespectsMaxJlDimCap) {
  Rng rng(7);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 1500, .dim = 4,
                             .cluster_fraction = (900 + 0.5) / 1500}));
  GoodCenterOptions options = TestOptions(4.0);
  options.max_jl_dim = 6;
  ASSERT_OK_AND_ASSIGN(GoodCenterResult result,
                       GoodCenter(rng, w.points, w.t, 0.02, options));
  EXPECT_LE(result.jl_dim, 6u);
}

}  // namespace
}  // namespace dpcluster
