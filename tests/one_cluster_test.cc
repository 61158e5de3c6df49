// End-to-end tests for OneCluster (Theorem 3.2).

#include <gtest/gtest.h>

#include <cmath>

#include "dpcluster/core/one_cluster.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/workload/metrics.h"
#include "test_util.h"

namespace dpcluster {
namespace {

OneClusterOptions TestOptions(double eps) {
  OneClusterOptions o;
  o.params = {eps, 1e-8};
  o.beta = 0.1;
  return o;
}

TEST(OneClusterOptionsTest, Validation) {
  OneClusterOptions o = TestOptions(1.0);
  EXPECT_OK(o.Validate());
  o.radius_budget_fraction = 0.0;
  EXPECT_FALSE(o.Validate().ok());
  o = TestOptions(1.0);
  o.radius_budget_fraction = 1.0;
  EXPECT_FALSE(o.Validate().ok());
  o = TestOptions(1.0);
  o.params.delta = 0.0;
  EXPECT_FALSE(o.Validate().ok());
}

class OneClusterDimTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OneClusterDimTest, RecoversPlantedCluster) {
  const std::size_t d = GetParam();
  Rng rng(31 + d);
  const std::size_t n = d >= 4 ? 3000 : 1200;
  const std::size_t t = d >= 4 ? 2000 : 700;
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = n, .dim = d, .levels = 1024,
                             .cluster_radius = 0.015,
                             .cluster_fraction = (t + 0.5) / n}));
  const OneClusterOptions options = TestOptions(8.0);

  int good = 0;
  const int trials = 3;
  for (int trial = 0; trial < trials; ++trial) {
    ASSERT_OK_AND_ASSIGN(OneClusterResult result,
                         OneCluster(rng, w.points, w.t, w.domain, options));
    ASSERT_OK_AND_ASSIGN(EvalMetrics m, Evaluate(w.points, w.t, result.ball));
    // The released ball radius claim must capture most of t.
    if (static_cast<double>(m.captured) >=
        0.6 * static_cast<double>(w.t)) {
      ++good;
    }
    // The radius phase is a 4-approximation (+ grid slack).
    EXPECT_LE(result.radius_stage.radius,
              4.0 * 2.0 * m.r_opt_lower * 2.0 + 4.0 * w.domain.RadiusFromIndex(1));
  }
  EXPECT_GE(good, trials - 1) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Dims, OneClusterDimTest,
                         ::testing::Values<std::size_t>(1, 2, 4));

TEST(OneClusterTest, MinorityClusterIsFound) {
  // Two equal 30% clusters: no majority — the setting the paper's algorithm
  // handles and the noisy-mean baseline cannot.
  Rng rng(3);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "near_tie", .n = 1600, .levels = 1024,
                             .cluster_radius = 0.015, .cluster_fraction = 0.3,
                             .tie_margin = 0}));
  const OneClusterOptions options = TestOptions(8.0);
  ASSERT_OK_AND_ASSIGN(OneClusterResult result,
                       OneCluster(rng, w.points, w.t, w.domain, options));
  ASSERT_OK_AND_ASSIGN(EvalMetrics m, Evaluate(w.points, w.t, result.ball));
  EXPECT_GE(static_cast<double>(m.captured), 0.5 * static_cast<double>(w.t));
  // The effective center must sit on ONE of the two planted balls, not in the
  // middle: a ball of 5 planted radii around the released center must capture
  // >= t/2 points.
  EXPECT_LE(RadiusCapturing(w.points, result.ball.center, w.t / 2),
            5.0 * 0.015 + 0.1);
}

TEST(OneClusterTest, ZeroRadiusDataset) {
  // All points identical: radius stage fires the zero shortcut and the pipeline
  // must still produce a center essentially on the duplicates.
  Rng rng(4);
  const GridDomain domain(1024, 2);
  PointSet s(2);
  const std::vector<double> dup = {0.25, 0.75};
  for (int i = 0; i < 1200; ++i) s.Add(dup);
  const OneClusterOptions options = TestOptions(8.0);
  ASSERT_OK_AND_ASSIGN(OneClusterResult result,
                       OneCluster(rng, s, 1000, domain, options));
  EXPECT_LT(Distance(result.ball.center, dup), 0.05);
}

TEST(OneClusterTest, BallRadiusClampedToCubeDiameter) {
  Rng rng(5);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 1000, .dim = 2,
                             .cluster_fraction = (600 + 0.5) / 1000}));
  ASSERT_OK_AND_ASSIGN(OneClusterResult result,
                       OneCluster(rng, w.points, w.t, w.domain, TestOptions(8.0)));
  EXPECT_LE(result.ball.radius, std::sqrt(2.0) + 1e-9);
}

TEST(OneClusterTest, RecommendedMinTIsActionable) {
  const GridDomain domain(1u << 16, 4);
  const OneClusterOptions options = TestOptions(2.0);
  const double min_t = RecommendedMinT(4000, domain, options);
  EXPECT_GT(min_t, 0.0);
  // Shrinks with epsilon.
  EXPECT_LT(RecommendedMinT(4000, domain, TestOptions(8.0)), min_t);
  // Grows with dimension (the sqrt(d)/eps term).
  const GridDomain wide(1u << 16, 64);
  EXPECT_GT(RecommendedMinT(4000, wide, options), min_t);
}

TEST(OneClusterTest, BudgetSplitRespectedInDiagnostics) {
  Rng rng(6);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 1200, .dim = 2,
                             .cluster_fraction = (700 + 0.5) / 1200}));
  OneClusterOptions options = TestOptions(8.0);
  options.radius_budget_fraction = 0.25;
  ASSERT_OK_AND_ASSIGN(OneClusterResult result,
                       OneCluster(rng, w.points, w.t, w.domain, options));
  // With only a quarter of the budget, the radius stage's Gamma must be larger
  // than with the default half.
  OneClusterOptions even = TestOptions(8.0);
  GoodRadiusOptions r25 = options.radius;
  r25.params = options.params.Fraction(0.25);
  GoodRadiusOptions r50 = even.radius;
  r50.params = even.params.Fraction(0.5);
  EXPECT_GT(GoodRadiusGamma(w.domain, r25), GoodRadiusGamma(w.domain, r50));
  EXPECT_GT(result.center_stage.jl_dim, 0u);
}

}  // namespace
}  // namespace dpcluster
