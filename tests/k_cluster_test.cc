// Tests for the iterated k-cluster heuristic (Observation 3.5).

#include <gtest/gtest.h>

#include <cmath>

#include "dpcluster/core/k_cluster.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/dp/accountant.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/random/distributions.h"
#include "test_util.h"

namespace dpcluster {
namespace {

KClusterOptions TestOptions(double eps, std::size_t k) {
  KClusterOptions o;
  o.params = {eps, 1e-8};
  o.beta = 0.2;
  o.k = k;
  return o;
}

TEST(KClusterOptionsTest, Validation) {
  KClusterOptions o = TestOptions(1.0, 2);
  EXPECT_OK(o.Validate());
  o.k = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = TestOptions(1.0, 2);
  o.params.delta = 0.0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(KClusterOptionsTest, RejectsOutOfRangeFractions) {
  // refine_fraction must lie in [0,1): 1 would starve the per-round solver.
  KClusterOptions o = TestOptions(1.0, 2);
  o.refine_fraction = 1.0;
  EXPECT_FALSE(o.Validate().ok());
  o.refine_fraction = -0.1;
  EXPECT_FALSE(o.Validate().ok());
  o.refine_fraction = 0.0;  // disabled refinement is fine
  EXPECT_OK(o.Validate());

  // The nested 1-cluster budget split must lie in (0,1).
  o = TestOptions(1.0, 2);
  o.one_cluster.radius_budget_fraction = 0.0;
  EXPECT_FALSE(o.Validate().ok());
  o.one_cluster.radius_budget_fraction = 1.0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(KClusterTest, CoversTwoPlantedClusters) {
  Rng rng(1);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "near_tie", .n = 2000, .levels = 1024,
                             .cluster_radius = 0.015, .cluster_fraction = 0.45,
                             .tie_margin = 0}));
  KClusterOptions options = TestOptions(16.0, 2);
  // Each round should swallow one whole planted cluster (t = cluster size) so
  // the refined removal ball covers it.
  options.per_round_t = w.t;
  ASSERT_OK_AND_ASSIGN(KClusterResult result,
                       KCluster(rng, w.points, w.domain, options));
  ASSERT_GE(result.rounds.size(), 1u);
  // Most points should be covered by the union of the found balls.
  EXPECT_LT(result.uncovered, w.points.size() / 2);
}

TEST(KClusterTest, RoundsFindDistinctClusters) {
  Rng rng(2);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "near_tie", .n = 2400, .levels = 1024,
                             .cluster_radius = 0.015, .cluster_fraction = 0.48,
                             .tie_margin = 0}));
  KClusterOptions options = TestOptions(16.0, 2);
  options.per_round_t = w.t * 3 / 4;
  ASSERT_OK_AND_ASSIGN(KClusterResult result,
                       KCluster(rng, w.points, w.domain, options));
  if (result.rounds.size() == 2) {
    const auto& c0 = result.rounds[0].ball.center;
    const auto& c1 = result.rounds[1].ball.center;
    // The two found centers should straddle the two planted balls at 0.25^d
    // and 0.75^d, i.e. be far apart.
    EXPECT_GT(Distance(c0, c1), 0.3);
  }
}

TEST(KClusterTest, BestEffortSkipsImpossibleRounds) {
  Rng rng(3);
  // A single tight cluster of 900 points; ask for k = 3 rounds of 900 each:
  // round 1 eats the cluster, later rounds lack points and must be skipped
  // (not fail the whole call).
  const GridDomain domain(1024, 2);
  PointSet s(2);
  for (int i = 0; i < 900; ++i) {
    s.Add(SampleBall(rng, std::vector<double>{0.5, 0.5}, 0.015));
  }
  domain.SnapAll(s);
  KClusterOptions options = TestOptions(24.0, 3);
  options.per_round_t = 900;
  options.best_effort = true;
  ASSERT_OK_AND_ASSIGN(KClusterResult result, KCluster(rng, s, domain, options));
  EXPECT_GE(result.rounds.size(), 1u);
  EXPECT_LE(result.rounds.size(), 3u);
}

TEST(KClusterTest, AdvancedCompositionGivesLargerPerRoundBudget) {
  // Not a behavioural test — verifies the budget arithmetic through the
  // resulting Gamma of the radius stage (smaller with advanced composition
  // for large k).
  // Advanced composition only overtakes basic once k >> ln(1/delta).
  const std::size_t k = 4096;
  KClusterOptions basic = TestOptions(2.0, k);
  KClusterOptions advanced = TestOptions(2.0, k);
  advanced.advanced_composition = true;

  const double eps_basic = basic.params.epsilon / static_cast<double>(k);
  const double slack = advanced.params.delta / 2.0;
  const double eps_adv =
      InverseAdvancedEpsilon(advanced.params.epsilon, k, slack);
  EXPECT_GT(eps_adv, eps_basic);
}

}  // namespace
}  // namespace dpcluster
