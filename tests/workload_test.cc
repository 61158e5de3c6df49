// Tests for the generated workloads, metrics, and table printer.

#include <gtest/gtest.h>

#include <cmath>

#include "dpcluster/data/registry.h"
#include "dpcluster/geo/ball.h"
#include "dpcluster/workload/metrics.h"
#include "dpcluster/workload/table.h"
#include "test_util.h"

namespace dpcluster {
namespace {

TEST(SyntheticTest, PlantedClusterHoldsTPoints) {
  Rng rng(1);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 1000, .dim = 3, .cluster_radius = 0.05,
                             .cluster_fraction = (400 + 0.5) / 1000}));
  EXPECT_EQ(w.points.size(), 1000u);
  EXPECT_EQ(w.t, 400u);
  // Snapping can push points a hair outside; allow half a grid diagonal.
  Ball slightly = w.primary();
  slightly.radius += w.domain.step() * std::sqrt(3.0);
  EXPECT_GE(CountInBall(w.points, slightly), w.t);
}

TEST(SyntheticTest, PointsAreOnGrid) {
  Rng rng(2);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 200, .dim = 2, .levels = 128,
                             .cluster_fraction = (50 + 0.5) / 200}));
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_TRUE(w.domain.OnGrid(w.points[i][j]));
    }
  }
}

TEST(SyntheticTest, TwoClustersAreBothPopulated) {
  Rng rng(3);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "near_tie", .n = 1000, .levels = 512,
                             .cluster_radius = 0.04, .cluster_fraction = 0.3,
                             .tie_margin = 0}));
  ASSERT_EQ(w.true_balls.size(), 2u);
  for (const Ball& planted : w.true_balls) {
    Ball slightly = planted;
    slightly.radius += w.domain.step() * std::sqrt(2.0);
    EXPECT_GE(CountInBall(w.points, slightly), w.t);
  }
}

TEST(SyntheticTest, GaussianMixtureHasKClusters) {
  Rng rng(4);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "gaussian_mixture", .n = 1200,
                             .levels = 512, .k = 3, .sigma = 0.02,
                             .noise_fraction = 0.1}));
  EXPECT_EQ(w.true_balls.size(), 3u);
  EXPECT_EQ(w.points.size(), 1200u);
  // Each nominal 2-sigma ball should hold most of its per-cluster mass.
  for (const Ball& planted : w.true_balls) {
    EXPECT_GE(CountInBall(w.points, planted),
              static_cast<std::size_t>(0.7 * static_cast<double>(w.t)));
  }
}

TEST(SyntheticTest, OutlierContamination) {
  Rng rng(5);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "outlier_contaminated", .n = 1000,
                             .levels = 512, .cluster_radius = 0.05,
                             .noise_fraction = 0.1}));
  Ball slightly = w.primary();
  slightly.radius += w.domain.step() * std::sqrt(2.0);
  const std::size_t inside = CountInBall(w.points, slightly);
  EXPECT_GE(inside, 900u);
  EXPECT_LT(inside, 1000u);  // Outliers exist.
}

TEST(SyntheticTest, ShellClusterAvoidsItsOwnCenter) {
  Rng rng(6);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "annulus", .n = 800, .dim = 8,
                             .levels = 512, .cluster_radius = 0.2,
                             .cluster_fraction = (500 + 0.5) / 800,
                             .shell_thickness = 0}));
  // Few points near the shell's center (adversarial-for-mean workload).
  EXPECT_LT(CountWithin(w.points, w.primary().center, 0.1), 100u);
  Ball shell = w.primary();
  shell.radius += w.domain.step() * std::sqrt(8.0) + 1e-9;
  EXPECT_GE(CountInBall(w.points, shell), w.t);
}

TEST(MetricsTest, EvaluateOnHandMadeExample) {
  const PointSet s = testing_util::MakePointSet(1, {0.0, 0.1, 0.2, 0.9, 1.0});
  Ball found;
  found.center = {0.1};
  found.radius = 0.1;
  ASSERT_OK_AND_ASSIGN(EvalMetrics m, Evaluate(s, 3, found));
  EXPECT_EQ(m.captured, 3u);
  EXPECT_DOUBLE_EQ(m.delta, 0.0);
  EXPECT_DOUBLE_EQ(m.r_opt_lower, 0.1);  // Exact 1D optimum.
  EXPECT_DOUBLE_EQ(m.w_reported, 1.0);
  EXPECT_DOUBLE_EQ(m.tight_radius, 0.1);
  EXPECT_DOUBLE_EQ(m.w_effective, 1.0);
}

TEST(MetricsTest, DeltaCanBeNegativeWhenOverCapturing) {
  const PointSet s = testing_util::MakePointSet(1, {0.0, 0.1, 0.2});
  Ball found;
  found.center = {0.1};
  found.radius = 1.0;
  ASSERT_OK_AND_ASSIGN(EvalMetrics m, Evaluate(s, 2, found));
  EXPECT_EQ(m.captured, 3u);
  EXPECT_DOUBLE_EQ(m.delta, -1.0);
}

TEST(MetricsTest, RejectsDimensionMismatch) {
  const PointSet s = testing_util::MakePointSet(2, {0.0, 0.0});
  Ball found;
  found.center = {0.1};
  EXPECT_FALSE(Evaluate(s, 1, found).ok());
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable table({"method", "delta", "w"});
  table.AddRow({"this work", "12.0", "1.5"});
  table.AddRow({"exp-mech", "3.0", "1.0"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("method"), std::string::npos);
  EXPECT_NE(out.find("this work"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // Header line comes first.
  EXPECT_LT(out.find("method"), out.find("this work"));
}

TEST(TextTableTest, Formatting) {
  EXPECT_EQ(TextTable::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::Fmt(2.0, 0), "2");
  EXPECT_EQ(TextTable::FmtInt(1234), "1234");
}

}  // namespace
}  // namespace dpcluster
