// Tests for outlier screening (Section 1.1 application).

#include <gtest/gtest.h>

#include <cmath>

#include "dpcluster/core/outlier.h"
#include "dpcluster/data/registry.h"
#include "test_util.h"

namespace dpcluster {
namespace {

OutlierScreenOptions TestOptions(double eps) {
  OutlierScreenOptions o;
  o.inlier_fraction = 0.9;
  o.one_cluster.params = {eps, 1e-8};
  o.one_cluster.beta = 0.1;
  return o;
}

TEST(OutlierScreenOptionsTest, Validation) {
  OutlierScreenOptions o = TestOptions(1.0);
  EXPECT_OK(o.Validate());
  o.inlier_fraction = 0.0;
  EXPECT_FALSE(o.Validate().ok());
  o = TestOptions(1.0);
  o.inlier_fraction = 1.5;
  EXPECT_FALSE(o.Validate().ok());
  o = TestOptions(1.0);
  o.inflation = 0.5;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(OutlierScreenTest, KeepsInliersDropsOutliers) {
  Rng rng(1);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "outlier_contaminated", .n = 2000,
                             .levels = 1024, .cluster_radius = 0.02,
                             .noise_fraction = 0.1}));
  ASSERT_OK_AND_ASSIGN(OutlierScreen screen,
                       BuildOutlierScreen(rng, w.points, w.domain, TestOptions(8.0)));
  const PointSet inliers = screen.Inliers(w.points);
  // Should keep most of the 90% planted inliers.
  EXPECT_GE(inliers.size(), static_cast<std::size_t>(0.6 * 0.9 * 2000));
  // The planted cluster center must be classified as an inlier.
  EXPECT_TRUE(screen.IsInlier(w.primary().center));
}

TEST(OutlierScreenTest, ScreeningShrinksDiameter) {
  // The motivation from the paper: restricting to the refined ball reduces
  // the data diameter (hence downstream sensitivity) by a large factor.
  Rng rng(2);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "outlier_contaminated", .n = 2000,
                             .levels = 1024, .cluster_radius = 0.02,
                             .noise_fraction = 0.1}));
  ASSERT_OK_AND_ASSIGN(OutlierScreen screen,
                       BuildOutlierScreen(rng, w.points, w.domain, TestOptions(8.0)));
  EXPECT_LT(2.0 * screen.ball.radius, 0.5 * std::sqrt(2.0));
}

TEST(OutlierScreenTest, RefinementOffKeepsGuaranteeRadius) {
  Rng rng(11);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "outlier_contaminated", .n = 1500,
                             .levels = 1024, .cluster_radius = 0.02,
                             .noise_fraction = 0.1}));
  OutlierScreenOptions o = TestOptions(8.0);
  o.refine.epsilon = 0.0;
  ASSERT_OK_AND_ASSIGN(OutlierScreen screen,
                       BuildOutlierScreen(rng, w.points, w.domain, o));
  EXPECT_DOUBLE_EQ(screen.ball.radius, screen.pipeline.ball.radius);
}

TEST(OutlierScreenTest, InflationWidensTheBall) {
  Rng rng(3);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "outlier_contaminated", .n = 1500,
                             .levels = 1024, .cluster_radius = 0.02,
                             .noise_fraction = 0.1}));
  OutlierScreenOptions o = TestOptions(8.0);
  o.inflation = 2.0;
  o.refine.epsilon = 0.0;  // Keep the pipeline radius so the factor is exact.
  ASSERT_OK_AND_ASSIGN(OutlierScreen screen,
                       BuildOutlierScreen(rng, w.points, w.domain, o));
  EXPECT_DOUBLE_EQ(screen.ball.radius, screen.pipeline.ball.radius * 2.0);
}

TEST(OutlierScreenTest, EmptyDatasetRejected) {
  Rng rng(4);
  const PointSet empty(2);
  const GridDomain domain(64, 2);
  EXPECT_FALSE(BuildOutlierScreen(rng, empty, domain, TestOptions(1.0)).ok());
}

}  // namespace
}  // namespace dpcluster
