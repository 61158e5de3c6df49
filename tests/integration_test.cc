// Cross-module integration tests: full pipelines composed the way the
// examples and benches use them, plus determinism checks.

#include <gtest/gtest.h>

#include <cmath>

#include "dpcluster/core/one_cluster.h"
#include "dpcluster/core/outlier.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/dp/noisy_average.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/sa/estimators.h"
#include "dpcluster/sa/sample_aggregate.h"
#include "dpcluster/workload/metrics.h"
#include "test_util.h"

namespace dpcluster {
namespace {

TEST(IntegrationTest, DeterministicGivenSeed) {
  const ScenarioSpec spec{.n = 900, .dim = 2,
                          .cluster_fraction = (500 + 0.5) / 900};
  OneClusterOptions options;
  options.params = {8.0, 1e-8};
  options.beta = 0.1;

  Rng rng_a(77);
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance wa,
                       GenerateScenario(rng_a, spec));
  Rng rng_b(77);
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance wb,
                       GenerateScenario(rng_b, spec));

  ASSERT_OK_AND_ASSIGN(OneClusterResult a,
                       OneCluster(rng_a, wa.points, wa.t, wa.domain, options));
  ASSERT_OK_AND_ASSIGN(OneClusterResult b,
                       OneCluster(rng_b, wb.points, wb.t, wb.domain, options));
  ASSERT_EQ(a.ball.center.size(), b.ball.center.size());
  for (std::size_t i = 0; i < a.ball.center.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.ball.center[i], b.ball.center[i]);
  }
  EXPECT_DOUBLE_EQ(a.ball.radius, b.ball.radius);
}

TEST(IntegrationTest, OutlierScreeningImprovesDownstreamMean) {
  // The Section 1.1 motivation, end to end: estimate a private mean with and
  // without first screening outliers; the screened estimate must be closer to
  // the clean-cluster mean because its reach (sensitivity) is far smaller.
  Rng rng(5);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "outlier_contaminated", .n = 4000,
                             .cluster_radius = 0.02, .noise_fraction = 0.1}));

  // Without screening: NoisyAverage over the whole cube.
  const std::vector<double> cube_center = {0.5, 0.5};
  ASSERT_OK_AND_ASSIGN(
      NoisyAverageOutput raw,
      NoisyAverage(rng, w.points, cube_center, std::sqrt(2.0) / 2.0, {1.0, 1e-8}));

  // With screening (same total privacy story: screen + average).
  OutlierScreenOptions so;
  so.inlier_fraction = 0.9;
  so.inflation = 1.0;
  so.one_cluster.params = {8.0, 1e-8};
  so.one_cluster.beta = 0.1;
  ASSERT_OK_AND_ASSIGN(OutlierScreen screen,
                       BuildOutlierScreen(rng, w.points, w.domain, so));
  ASSERT_OK_AND_ASSIGN(
      NoisyAverageOutput screened,
      NoisyAverage(rng, w.points, screen.ball.center, screen.ball.radius,
                   {1.0, 1e-8}));

  // The clean mean is essentially the planted center.
  const double err_raw = Distance(raw.average, w.primary().center);
  const double err_screened = Distance(screened.average, w.primary().center);
  // Screening restricts to the cluster ball: both less bias (outliers dropped)
  // and less noise (smaller reach). It should win comfortably.
  EXPECT_LT(err_screened, err_raw + 0.05);
  EXPECT_LT(err_screened, 0.2);
}

TEST(IntegrationTest, SampleAggregateOverClusteredEstimates) {
  // SA where the estimator itself is a cluster-center finder: blocks of
  // clustered data produce tightly concentrated estimates; the 1-cluster
  // aggregator must find them even though a naive mean would be dragged by
  // the contaminated blocks.
  Rng rng(6);
  const std::size_t n = 30000;
  PointSet s(1);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = (i % 10 == 0) ? rng.NextDouble()  // 10% junk rows.
                                   : 0.42 + 0.01 * (rng.NextDouble() - 0.5);
    s.Add(std::vector<double>{x});
  }
  SampleAggregateOptions options;
  options.params = {8.0, 1e-8};
  options.beta = 0.2;
  options.block_size = 10;
  options.alpha = 0.9;
  const GridDomain out_domain(1u << 12, 1);
  ASSERT_OK_AND_ASSIGN(
      SampleAggregateResult result,
      SampleAggregate(rng, s, MedianEstimator(), out_domain, options));
  EXPECT_NEAR(result.point[0], 0.42, 0.05);
}

TEST(IntegrationTest, MetricsRoundTripOnPipelineOutput) {
  Rng rng(7);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 1000, .dim = 2,
                             .cluster_fraction = (600 + 0.5) / 1000}));
  OneClusterOptions options;
  options.params = {8.0, 1e-8};
  ASSERT_OK_AND_ASSIGN(OneClusterResult result,
                       OneCluster(rng, w.points, w.t, w.domain, options));
  ASSERT_OK_AND_ASSIGN(EvalMetrics m, Evaluate(w.points, w.t, result.ball));
  EXPECT_EQ(static_cast<double>(w.t) - static_cast<double>(m.captured), m.delta);
  EXPECT_GE(m.w_reported, 0.0);
  EXPECT_GE(m.tight_radius, 0.0);
}

}  // namespace
}  // namespace dpcluster
