// Tests for the Table 1 baselines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dpcluster/baselines/exp_mech_baseline.h"
#include "dpcluster/baselines/noisy_mean_baseline.h"
#include "dpcluster/baselines/nonprivate_baseline.h"
#include "dpcluster/baselines/threshold_release_1d.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/geo/minimal_ball.h"
#include "dpcluster/la/vector_ops.h"
#include "test_util.h"

namespace dpcluster {
namespace {

TEST(NoisyMeanBaselineTest, WorksOnMajorityCluster) {
  Rng rng(1);
  // t = 1800: a strong majority.
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 2000, .dim = 2, .cluster_radius = 0.04,
                             .cluster_fraction = (1800 + 0.5) / 2000}));
  NoisyMeanBaselineOptions o;
  o.params = {2.0, 1e-8};
  ASSERT_OK_AND_ASSIGN(Ball ball, NoisyMeanBaseline(rng, w.points, w.t, w.domain, o));
  // The mean of a 90% cluster sits near the planted center.
  EXPECT_LT(Distance(ball.center, w.primary().center), 0.15);
  EXPECT_GE(CountInBall(w.points, ball), w.t / 2);
}

TEST(NoisyMeanBaselineTest, FailsOnMinorityClusters) {
  // Two 30% clusters at opposite corners: the global mean lands between them,
  // so the smallest t-heavy ball around it is large — the failure mode
  // Table 1 row 1 documents.
  Rng rng(2);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "near_tie", .n = 2000, .levels = 1024,
                             .cluster_radius = 0.03, .cluster_fraction = 0.3,
                             .tie_margin = 0}));
  NoisyMeanBaselineOptions o;
  o.params = {2.0, 1e-8};
  ASSERT_OK_AND_ASSIGN(Ball ball, NoisyMeanBaseline(rng, w.points, w.t, w.domain, o));
  // Radius must blow up well past the planted radius to reach t points.
  EXPECT_GT(ball.radius, 5.0 * 0.03);
}

TEST(ExpMechBaselineTest, NearOptimalRadiusOnTinyGrid) {
  Rng rng(3);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 600, .dim = 1, .levels = 256,
                             .cluster_radius = 0.03,
                             .cluster_fraction = (250 + 0.5) / 600}));
  ExpMechBaselineOptions o;
  o.params = {4.0, 0.0};
  ASSERT_OK_AND_ASSIGN(Ball ball, ExpMechBaseline(rng, w.points, w.t, w.domain, o));
  ASSERT_OK_AND_ASSIGN(Ball opt, SmallestInterval1D(w.points, w.t));
  // w ~ 1 up to grid granularity and the noisy count margin.
  EXPECT_LE(ball.radius, 3.0 * opt.radius + 0.05);
  EXPECT_GE(CountInBall(w.points, ball),
            static_cast<std::size_t>(0.5 * static_cast<double>(w.t)));
}

TEST(ExpMechBaselineTest, RefusesLargeGrids) {
  Rng rng(4);
  const GridDomain domain(1u << 12, 3);  // 2^36 centers.
  const PointSet s = testing_util::MakePointSet(3, {0.5, 0.5, 0.5});
  ExpMechBaselineOptions o;
  EXPECT_EQ(ExpMechBaseline(rng, s, 1, domain, o).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ThresholdRelease1DTest, PrefixCountsTrackTruth) {
  Rng rng(5);
  const GridDomain domain(1024, 1);
  PointSet s = testing_util::UniformCube(rng, 4000, 1);
  domain.SnapAll(s);
  ThresholdRelease1DOptions o;
  o.params = {2.0, 0.0};
  ASSERT_OK_AND_ASSIGN(ThresholdRelease1D release,
                       ThresholdRelease1D::Build(rng, s, domain, o));
  // Compare released prefix counts against the truth at several levels.
  for (std::uint64_t level : {100ull, 400ull, 800ull, 1023ull}) {
    std::size_t truth = 0;
    const double bound = static_cast<double>(level) * domain.step() + 1e-12;
    for (std::size_t i = 0; i < s.size(); ++i) truth += (s[i][0] <= bound);
    EXPECT_NEAR(release.PrefixCount(level), static_cast<double>(truth),
                release.ErrorBound() + 50.0)
        << "level=" << level;
  }
}

TEST(ThresholdRelease1DTest, FindsPlantedIntervalWithUnitW) {
  Rng rng(6);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 4000, .dim = 1, .levels = 1024,
                             .cluster_radius = 0.03,
                             .cluster_fraction = (1500 + 0.5) / 4000}));
  ThresholdRelease1DOptions o;
  o.params = {2.0, 0.0};
  ASSERT_OK_AND_ASSIGN(ThresholdRelease1D release,
                       ThresholdRelease1D::Build(rng, w.points, w.domain, o));
  ASSERT_OK_AND_ASSIGN(Ball ball, release.SmallestHeavyInterval(w.t));
  ASSERT_OK_AND_ASSIGN(Ball opt, SmallestInterval1D(w.points, w.t));
  // Query release solves d=1 with w = 1 (up to the count error slack).
  EXPECT_LE(ball.radius, 2.0 * opt.radius + 0.05);
}

TEST(ThresholdRelease1DTest, IntervalCountsAreConsistent) {
  Rng rng(7);
  const GridDomain domain(256, 1);
  PointSet s = testing_util::UniformCube(rng, 1000, 1);
  domain.SnapAll(s);
  ThresholdRelease1DOptions o;
  o.params = {4.0, 0.0};
  ASSERT_OK_AND_ASSIGN(ThresholdRelease1D release,
                       ThresholdRelease1D::Build(rng, s, domain, o));
  // Disjoint intervals sum to the enclosing one (post-processed consistency).
  const double whole = release.IntervalCount(0, 255);
  const double left = release.IntervalCount(0, 100);
  const double right = release.IntervalCount(101, 255);
  EXPECT_NEAR(whole, left + right, 1e-9);
  // Monotone prefixes.
  EXPECT_LE(release.PrefixCount(10), release.PrefixCount(200) + 1e-9);
}

TEST(ThresholdRelease1DTest, RejectsWrongDimension) {
  Rng rng(8);
  const GridDomain domain(64, 2);
  const PointSet s = testing_util::MakePointSet(2, {0.5, 0.5});
  ThresholdRelease1DOptions o;
  EXPECT_FALSE(ThresholdRelease1D::Build(rng, s, domain, o).ok());
}

TEST(NonPrivateBaselineTest, LocalSearchImprovesOnTwoApprox) {
  Rng rng(9);
  const PointSet s = testing_util::UniformCube(rng, 150, 2);
  const std::size_t t = 60;
  ASSERT_OK_AND_ASSIGN(Ball two, NonPrivateTwoApprox(s, t));
  ASSERT_OK_AND_ASSIGN(Ball fine, NonPrivateLocalSearch(s, t, 0.25));
  EXPECT_LE(fine.radius, two.radius + 1e-12);
  EXPECT_GE(CountInBall(s, fine), t);
}

TEST(NonPrivateBaselineTest, BestEffortUsesExact1D) {
  const PointSet s = testing_util::MakePointSet(1, {0.0, 0.1, 0.2, 0.9});
  ASSERT_OK_AND_ASSIGN(Ball b, NonPrivateBestEffort(s, 3));
  EXPECT_NEAR(b.radius, 0.1, 1e-12);
}

}  // namespace
}  // namespace dpcluster
