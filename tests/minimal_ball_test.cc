// Tests for the non-private minimal-ball substrate (Section 3, facts 1-3).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "dpcluster/data/registry.h"
#include "dpcluster/geo/minimal_ball.h"
#include "reference/minimal_ball_reference.h"
#include "test_util.h"

namespace dpcluster {
namespace {

using testing_util::MakePointSet;

TEST(SmallestInterval1DTest, ExactOnHandExample) {
  const PointSet s = MakePointSet(1, {0.0, 0.1, 0.2, 0.9, 1.0});
  ASSERT_OK_AND_ASSIGN(Ball b, SmallestInterval1D(s, 3));
  EXPECT_NEAR(b.radius, 0.1, 1e-12);
  EXPECT_NEAR(b.center[0], 0.1, 1e-12);
}

TEST(SmallestInterval1DTest, FullSetAndSingleton) {
  const PointSet s = MakePointSet(1, {3.0, 1.0, 2.0});
  ASSERT_OK_AND_ASSIGN(Ball all, SmallestInterval1D(s, 3));
  EXPECT_NEAR(all.radius, 1.0, 1e-12);
  ASSERT_OK_AND_ASSIGN(Ball one, SmallestInterval1D(s, 1));
  EXPECT_NEAR(one.radius, 0.0, 1e-12);
}

TEST(SmallestInterval1DTest, RejectsBadArgs) {
  const PointSet s1 = MakePointSet(1, {0.0});
  EXPECT_EQ(SmallestInterval1D(s1, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SmallestInterval1D(s1, 2).status().code(),
            StatusCode::kInvalidArgument);
  const PointSet s2 = MakePointSet(2, {0.0, 0.0});
  EXPECT_EQ(SmallestInterval1D(s2, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SmallestInterval1DTest, MatchesBruteForceOnRandomData) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const PointSet s = testing_util::UniformCube(rng, 40, 1);
    const std::size_t t = 2 + rng.NextUint64(30);
    ASSERT_OK_AND_ASSIGN(Ball fast, SmallestInterval1D(s, t));
    // Brute force: all O(n^2) intervals defined by point pairs.
    double best = 1e18;
    for (std::size_t i = 0; i < s.size(); ++i) {
      for (std::size_t j = 0; j < s.size(); ++j) {
        const double lo = s[i][0];
        const double hi = s[j][0];
        if (hi < lo) continue;
        std::size_t count = 0;
        for (std::size_t q = 0; q < s.size(); ++q) {
          if (s[q][0] >= lo - 1e-15 && s[q][0] <= hi + 1e-15) ++count;
        }
        if (count >= t) best = std::min(best, (hi - lo) / 2.0);
      }
    }
    EXPECT_NEAR(fast.radius, best, 1e-9);
  }
}

TEST(TwoApproxTest, CapturesTPoints) {
  Rng rng(2);
  const PointSet s = testing_util::UniformCube(rng, 60, 3);
  for (std::size_t t : {1u, 10u, 30u, 60u}) {
    ASSERT_OK_AND_ASSIGN(Ball b, TwoApproxSmallestBall(s, t));
    EXPECT_GE(CountInBall(s, b), t);
  }
}

TEST(TwoApproxTest, WithinFactorTwoOfGridOptimum) {
  Rng rng(3);
  const GridDomain domain(9, 2);
  for (int trial = 0; trial < 10; ++trial) {
    PointSet s = testing_util::UniformCube(rng, 25, 2);
    domain.SnapAll(s);
    const std::size_t t = 5 + rng.NextUint64(15);
    ASSERT_OK_AND_ASSIGN(Ball two, TwoApproxSmallestBall(s, t));
    ASSERT_OK_AND_ASSIGN(Ball grid,
                         GridRestrictedSmallestBall(s, t, domain, 10000));
    // Grid centers include strong candidates; the classical bound says the
    // input-centered ball is at most twice the true optimum, and the true
    // optimum is at most the grid optimum.
    EXPECT_LE(two.radius, 2.0 * grid.radius + 1e-9);
  }
}

void ExpectSameBallBytes(const Ball& expected, const Ball& actual,
                         const std::string& context) {
  EXPECT_EQ(std::memcmp(&expected.radius, &actual.radius, sizeof(double)), 0)
      << context << " radius " << expected.radius << " vs " << actual.radius;
  ASSERT_EQ(expected.center.size(), actual.center.size()) << context;
  EXPECT_EQ(std::memcmp(expected.center.data(), actual.center.data(),
                        expected.center.size() * sizeof(double)),
            0)
      << context << " center";
}

// The grid branch-and-bound must return the brute-force scan's radius and
// center byte for byte (lowest index on ties) on every scenario family, at
// the t edges, at low and high dimension, and on data the grid cannot take
// at face value: duplicate rows and coordinates below zero.
TEST(TwoApproxTest, MatchesBruteForceOracleAcrossScenarioFamilies) {
  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  const std::vector<std::string> families = registry.Names();
  ASSERT_EQ(families.size(), 9u);
  std::uint64_t seed = 40;
  for (const std::string& family : families) {
    for (const std::size_t dim :
         {std::size_t{2}, std::size_t{8}, std::size_t{32}}) {
      ScenarioSpec spec;
      spec.scenario = family;
      spec.n = 240;
      spec.dim = dim;
      Rng rng(++seed);
      ASSERT_OK_AND_ASSIGN(const ScenarioFamily* generator,
                           registry.Lookup(family));
      ASSERT_OK_AND_ASSIGN(ScenarioInstance instance,
                           generator->Generate(rng, spec));
      // Variant: every 5th row duplicated at the end, and the cube shifted
      // to straddle zero.
      PointSet shifted(dim);
      std::vector<double> row(dim);
      const auto add_shifted = [&](std::size_t i) {
        for (std::size_t c = 0; c < dim; ++c) {
          row[c] = instance.points[i][c] - 0.5 * instance.domain.axis_length();
        }
        shifted.Add(row);
      };
      for (std::size_t i = 0; i < instance.points.size(); ++i) add_shifted(i);
      for (std::size_t i = 0; i < instance.points.size(); i += 5) {
        add_shifted(i);
      }
      for (const PointSet* points : {&instance.points, &shifted}) {
        const std::size_t n = points->size();
        for (const std::size_t t :
             {std::size_t{1}, std::size_t{2}, n / 4, n / 4 + 1, n / 2, n}) {
          const std::string context =
              family + " d=" + std::to_string(dim) + " n=" +
              std::to_string(n) + " t=" + std::to_string(t);
          ASSERT_OK_AND_ASSIGN(Ball fast, TwoApproxSmallestBall(*points, t));
          ExpectSameBallBytes(
              reference::BruteForceTwoApproxSmallestBall(*points, t), fast,
              context);
          ASSERT_OK_AND_ASSIGN(double lower, OptRadiusLowerBound(*points, t));
          EXPECT_EQ(lower, fast.radius / 2.0) << context;
        }
      }
    }
  }
}

// The grid is sized for the CountWithin calls at the running best radius
// (~(t-1)/256 points per cell), which only gets fine at large n: at
// n=4096, d=2 the t range below spans one to hundreds of cells per best
// ball. The result must still be the brute-force scan's, byte for byte.
TEST(TwoApproxTest, MatchesBruteForceOracleAtResidentScale) {
  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  std::uint64_t seed = 60;
  for (const std::string family : {"planted_cluster", "gaussian_mixture"}) {
    ScenarioSpec spec;
    spec.scenario = family;
    spec.n = 4096;
    spec.dim = 2;
    Rng rng(++seed);
    ASSERT_OK_AND_ASSIGN(const ScenarioFamily* generator,
                         registry.Lookup(family));
    ASSERT_OK_AND_ASSIGN(ScenarioInstance instance,
                         generator->Generate(rng, spec));
    const std::size_t n = instance.points.size();
    ASSERT_EQ(n, 4096u);
    for (const std::size_t t :
         {std::size_t{2}, n / 8, n / 4 + 1, n * 3 / 10}) {
      const std::string context = family + " t=" + std::to_string(t);
      ASSERT_OK_AND_ASSIGN(Ball fast,
                           TwoApproxSmallestBall(instance.points, t));
      ExpectSameBallBytes(
          reference::BruteForceTwoApproxSmallestBall(instance.points, t), fast,
          context);
    }
  }
}

TEST(TwoApproxTest, TiesGoToTheLowestIndexAndAllDuplicatesHaveRadiusZero) {
  // Four corners of a square: every center captures 2 points at radius 1.
  const PointSet square =
      MakePointSet(2, {0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0});
  ASSERT_OK_AND_ASSIGN(Ball b, TwoApproxSmallestBall(square, 2));
  EXPECT_EQ(b.radius, 1.0);
  EXPECT_EQ(b.center, (std::vector<double>{0.0, 0.0}));
  const PointSet same = MakePointSet(2, {-3.0, 2.0, -3.0, 2.0, -3.0, 2.0});
  ASSERT_OK_AND_ASSIGN(Ball zero, TwoApproxSmallestBall(same, 3));
  EXPECT_EQ(zero.radius, 0.0);
  EXPECT_EQ(zero.center, (std::vector<double>{-3.0, 2.0}));
}

TEST(GridRestrictedTest, ExactOnTinyInstance) {
  // Points at 0 and 1; t = 2: best grid center is 0.5 with radius 0.5.
  const GridDomain domain(3, 1);  // Levels {0, .5, 1}.
  const PointSet s = MakePointSet(1, {0.0, 1.0});
  ASSERT_OK_AND_ASSIGN(Ball b, GridRestrictedSmallestBall(s, 2, domain, 100));
  EXPECT_NEAR(b.radius, 0.5, 1e-12);
  EXPECT_NEAR(b.center[0], 0.5, 1e-12);
}

TEST(GridRestrictedTest, RefusesHugeGrids) {
  const GridDomain domain(1024, 3);
  const PointSet s = MakePointSet(3, {0.0, 0.0, 0.0});
  EXPECT_EQ(GridRestrictedSmallestBall(s, 1, domain, 1000).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(OptRadiusLowerBoundTest, SandwichesTrueOptimum1D) {
  const PointSet s = MakePointSet(1, {0.0, 0.2, 0.25, 0.3, 1.0});
  ASSERT_OK_AND_ASSIGN(double lb, OptRadiusLowerBound(s, 3));
  EXPECT_NEAR(lb, 0.05, 1e-12);  // Exact in 1D.
}

TEST(OptRadiusLowerBoundTest, LowerBoundsTwoApprox) {
  Rng rng(4);
  const PointSet s = testing_util::UniformCube(rng, 50, 4);
  const std::size_t t = 20;
  ASSERT_OK_AND_ASSIGN(double lb, OptRadiusLowerBound(s, t));
  ASSERT_OK_AND_ASSIGN(Ball two, TwoApproxSmallestBall(s, t));
  EXPECT_LE(lb, two.radius + 1e-12);
  EXPECT_GE(lb, two.radius / 2.0 - 1e-12);
}

}  // namespace
}  // namespace dpcluster
