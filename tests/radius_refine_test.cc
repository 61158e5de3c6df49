// Tests for the private radius refinement used by the outlier screen, the
// k-cluster rounds, and the noisy-mean baseline.

#include <gtest/gtest.h>

#include <cmath>

#include "dpcluster/core/radius_refine.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/geo/ball.h"
#include "test_util.h"

namespace dpcluster {
namespace {

TEST(RadiusRefineTest, ValidatesArguments) {
  Rng rng(1);
  const GridDomain domain(256, 2);
  const PointSet s = testing_util::MakePointSet(2, {0.5, 0.5});
  const std::vector<double> c2 = {0.5, 0.5};
  const std::vector<double> c1 = {0.5};
  RadiusRefineOptions bad;
  bad.epsilon = 0.0;
  EXPECT_FALSE(RefineRadius(rng, s, c2, 1, domain, bad).ok());
  bad = RadiusRefineOptions{};
  bad.beta = 1.0;
  EXPECT_FALSE(RefineRadius(rng, s, c2, 1, domain, bad).ok());
  EXPECT_FALSE(RefineRadius(rng, s, c1, 1, domain, RadiusRefineOptions{}).ok());
  EXPECT_FALSE(RefineRadius(rng, s, c2, 0, domain, RadiusRefineOptions{}).ok());
  EXPECT_FALSE(RefineRadius(rng, s, c2, 2, domain, RadiusRefineOptions{}).ok());
}

TEST(RadiusRefineTest, TightOnPlantedClusterCenter) {
  Rng rng(2);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 2000, .dim = 2, .cluster_radius = 0.03,
                             .cluster_fraction = (1000 + 0.5) / 2000}));
  RadiusRefineOptions options;
  options.epsilon = 2.0;
  int good = 0;
  const int trials = 5;
  for (int trial = 0; trial < trials; ++trial) {
    ASSERT_OK_AND_ASSIGN(double r,
                         RefineRadius(rng, w.points, w.primary().center, w.t,
                                      w.domain, options));
    // Within a small factor of the planted radius and capturing ~t points.
    if (r <= 2.0 * w.primary().radius &&
        CountWithin(w.points, w.primary().center, r) >=
            static_cast<std::size_t>(0.8 * static_cast<double>(w.t))) {
      ++good;
    }
  }
  EXPECT_GE(good, trials - 1);
}

TEST(RadiusRefineTest, MonotoneInT) {
  Rng rng(3);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 1500, .dim = 2, .cluster_radius = 0.02,
                             .cluster_fraction = (500 + 0.5) / 1500}));
  RadiusRefineOptions options;
  options.epsilon = 4.0;
  ASSERT_OK_AND_ASSIGN(double r_small, RefineRadius(rng, w.points,
                                                    w.primary().center, 300,
                                                    w.domain, options));
  ASSERT_OK_AND_ASSIGN(double r_big, RefineRadius(rng, w.points,
                                                  w.primary().center, 1400,
                                                  w.domain, options));
  // Capturing nearly all points (incl. the uniform background) needs a much
  // larger ball than capturing part of the cluster.
  EXPECT_LT(r_small, r_big);
}

TEST(RadiusRefineTest, OffClusterCenterNeedsLargerRadius) {
  Rng rng(4);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 1500, .dim = 2, .cluster_radius = 0.02,
                             .cluster_fraction = (900 + 0.5) / 1500}));
  RadiusRefineOptions options;
  options.epsilon = 4.0;
  ASSERT_OK_AND_ASSIGN(double r_on, RefineRadius(rng, w.points,
                                                 w.primary().center, w.t,
                                                 w.domain, options));
  std::vector<double> off = w.primary().center;
  off[0] = w.domain.Snap(off[0] < 0.5 ? off[0] + 0.4 : off[0] - 0.4);
  ASSERT_OK_AND_ASSIGN(double r_off,
                       RefineRadius(rng, w.points, off, w.t, w.domain, options));
  EXPECT_GT(r_off, 2.0 * r_on);
}

TEST(RadiusRefineTest, LowEpsilonStillReturnsGridRadius) {
  Rng rng(5);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 800, .dim = 1,
                             .cluster_fraction = (400 + 0.5) / 800}));
  RadiusRefineOptions options;
  options.epsilon = 0.05;  // Very noisy; result valid but loose.
  ASSERT_OK_AND_ASSIGN(double r,
                       RefineRadius(rng, w.points, w.primary().center, w.t,
                                    w.domain, options));
  EXPECT_GE(r, 0.0);
  EXPECT_LE(r, w.domain.RadiusFromIndex(w.domain.RadiusGridSize() - 1));
}

}  // namespace
}  // namespace dpcluster
