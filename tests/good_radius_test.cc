// Tests for GoodRadius (Algorithm 1, Lemmas 3.6 / 4.6): the returned radius
// must be within a constant factor of r_opt and must support a ~t-heavy ball.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "dpcluster/core/good_radius.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/geo/ball.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/minimal_ball.h"
#include "dpcluster/la/vector_ops.h"
#include "test_util.h"

namespace dpcluster {
namespace {

// Largest ball count achievable at radius r with centers at input points.
std::size_t BestCountAtRadius(const PointSet& s, double r) {
  std::size_t best = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    best = std::max(best, CountWithin(s, s[i], r));
  }
  return best;
}

GoodRadiusOptions TestOptions(double eps) {
  GoodRadiusOptions o;
  o.params = {eps, 1e-8};
  o.beta = 0.1;
  return o;
}

TEST(GoodRadiusTest, ValidatesArguments) {
  Rng rng(1);
  const GridDomain domain(64, 2);
  const PointSet empty(2);
  EXPECT_FALSE(GoodRadius(rng, empty, 1, domain, TestOptions(1.0)).ok());
  const PointSet s = testing_util::MakePointSet(2, {0.5, 0.5});
  EXPECT_FALSE(GoodRadius(rng, s, 0, domain, TestOptions(1.0)).ok());
  EXPECT_FALSE(GoodRadius(rng, s, 2, domain, TestOptions(1.0)).ok());
  const PointSet wrong = testing_util::MakePointSet(1, {0.5});
  EXPECT_FALSE(GoodRadius(rng, wrong, 1, domain, TestOptions(1.0)).ok());
}

TEST(GoodRadiusTest, GammaShrinksWithEpsilonAndPaperConstantsAreHuge) {
  const GridDomain domain(1024, 2);
  GoodRadiusOptions o1 = TestOptions(1.0);
  GoodRadiusOptions o4 = TestOptions(4.0);
  EXPECT_GT(GoodRadiusGamma(domain, o1), GoodRadiusGamma(domain, o4));
  GoodRadiusOptions paper = TestOptions(1.0);
  paper.paper_constants = true;
  EXPECT_GT(GoodRadiusGamma(domain, paper), GoodRadiusGamma(domain, o1) * 100);
}

class GoodRadiusEngineTest
    : public ::testing::TestWithParam<GoodRadiusOptions::Engine> {};

TEST_P(GoodRadiusEngineTest, FindsRadiusNearOptimalOnPlantedCluster) {
  Rng rng(7);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 700, .dim = 2, .levels = 1024,
                             .cluster_radius = 0.04,
                             .cluster_fraction = (320 + 0.5) / 700}));

  GoodRadiusOptions options = TestOptions(2.0);
  options.engine = GetParam();
  const double gamma = GoodRadiusGamma(w.domain, options);
  ASSERT_LT(4.0 * gamma, static_cast<double>(w.t))
      << "test parameters must satisfy t > 4*Gamma (gamma=" << gamma << ")";

  int radius_ok = 0;
  int count_ok = 0;
  const int trials = 5;
  for (int trial = 0; trial < trials; ++trial) {
    ASSERT_OK_AND_ASSIGN(GoodRadiusResult result,
                         GoodRadius(rng, w.points, w.t, w.domain, options));
    // (2) r <= 4 r_opt, with grid-step slack. r_opt <= 2-approx radius.
    ASSERT_OK_AND_ASSIGN(Ball two, TwoApproxSmallestBall(w.points, w.t));
    const double slack = 2.0 * w.domain.RadiusFromIndex(1);
    if (result.radius <= 4.0 * two.radius + slack) ++radius_ok;
    // (1) some ball of radius r holds >= t - 4*Gamma - noise points.
    const double floor = static_cast<double>(w.t) - 4.0 * result.gamma -
                         (8.0 / options.params.epsilon) * std::log(20.0);
    if (static_cast<double>(BestCountAtRadius(w.points, result.radius)) >=
        floor) {
      ++count_ok;
    }
  }
  EXPECT_GE(radius_ok, trials - 1);
  EXPECT_GE(count_ok, trials - 1);
}

TEST_P(GoodRadiusEngineTest, ZeroRadiusClusterDetected) {
  Rng rng(8);
  const GridDomain domain(1024, 2);
  PointSet s(2);
  const std::vector<double> dup = {0.5, 0.5};
  for (int i = 0; i < 500; ++i) s.Add(dup);
  std::vector<double> p(2);
  for (int i = 0; i < 100; ++i) {
    p[0] = domain.Snap(rng.NextDouble());
    p[1] = domain.Snap(rng.NextDouble());
    s.Add(p);
  }
  GoodRadiusOptions options = TestOptions(2.0);
  options.engine = GetParam();
  ASSERT_OK_AND_ASSIGN(GoodRadiusResult result,
                       GoodRadius(rng, s, 400, domain, options));
  // Either the shortcut fires or the returned radius is (near) zero.
  EXPECT_LE(result.radius, 4.0 * domain.RadiusFromIndex(2));
}

INSTANTIATE_TEST_SUITE_P(Engines, GoodRadiusEngineTest,
                         ::testing::Values(GoodRadiusOptions::Engine::kRecConcave,
                                           GoodRadiusOptions::Engine::kSparseVector));

TEST(GoodRadiusTest, PaperStructureRecursionStillWorks) {
  // base_domain_size 32 forces the log*-style recursion; utility is looser
  // (bigger Gamma) but the radius bound must still hold.
  Rng rng(9);
  // t = 700: large enough to clear the bigger Gamma.
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 900, .dim = 2, .levels = 256,
                             .cluster_radius = 0.05,
                             .cluster_fraction = (700 + 0.5) / 900}));

  GoodRadiusOptions options = TestOptions(8.0);
  options.rec_concave.base_domain_size = 32;
  const double gamma = GoodRadiusGamma(w.domain, options);
  ASSERT_LT(4.0 * gamma, static_cast<double>(w.t));
  ASSERT_OK_AND_ASSIGN(GoodRadiusResult result,
                       GoodRadius(rng, w.points, w.t, w.domain, options));
  ASSERT_OK_AND_ASSIGN(Ball two, TwoApproxSmallestBall(w.points, w.t));
  EXPECT_LE(result.radius, 4.0 * two.radius + 2.0 * w.domain.RadiusFromIndex(1));
}

TEST(GoodRadiusTest, ProfileCapSurfacesAsResourceExhausted) {
  Rng rng(10);
  const GridDomain domain(64, 2);
  PointSet s = testing_util::UniformCube(rng, 50, 2);
  domain.SnapAll(s);
  GoodRadiusOptions options = TestOptions(1.0);
  options.max_profile_points = 10;
  EXPECT_EQ(GoodRadius(rng, s, 5, domain, options).status().code(),
            StatusCode::kResourceExhausted);
}

// The SparseVector engine reads the exact closed-ball L(r, S): a pair whose
// distance exceeds a solution-grid radius by less than one float ulp is
// outside that ball. Here |p - q| = 0.22839355758... lies just above
// r_1871 = 0.2283935546875, so L(r_1871) = 1 and the smallest radius whose
// ball holds both points (L = t = 2) is r_1872. With eps = 1e9 the noise is
// negligible and the binary search lands on exactly that index.
TEST(GoodRadiusTest, SparseVectorCountsOnlyPairsInsideTheBall) {
  const GridDomain domain(4096, 2);
  const double step = domain.step();
  const PointSet s = testing_util::MakePointSet(
      2, {3489 * step, 3405 * step, 2567 * step, 3248 * step});
  ASSERT_GT(Distance(s[0], s[1]), domain.RadiusFromIndex(1871));
  ASSERT_LE(Distance(s[0], s[1]), domain.RadiusFromIndex(1872));
  GoodRadiusOptions options = TestOptions(1e9);
  options.engine = GoodRadiusOptions::Engine::kSparseVector;
  Rng rng(5);
  ASSERT_OK_AND_ASSIGN(GoodRadiusResult result,
                       GoodRadius(rng, s, 2, domain, options));
  EXPECT_EQ(result.grid_index, 1872u);
}

// The index overload must release exactly the bytes of the PointSet entry
// point — on the full data and on a post-deletion active view — for both
// engines and both event generators.
TEST(GoodRadiusTest, IndexOverloadBitIdenticalToPointSet) {
  Rng data_rng(11);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(data_rng, {.n = 600, .dim = 2, .levels = 1u << 10,
                                  .cluster_radius = 0.03,
                                  .cluster_fraction = (150 + 0.5) / 600}));

  ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                       IndexedDataset::Create(w.points, w.domain));
  // Deactivate a scattered third so the index serves a genuine subset.
  std::vector<std::uint32_t> removed;
  for (std::size_t i = 0; i < w.points.size(); i += 3) {
    removed.push_back(static_cast<std::uint32_t>(i));
  }
  index.Remove(removed);
  const PointSet view = index.ActiveView();
  const std::size_t t = 100;

  for (const auto engine : {GoodRadiusOptions::Engine::kRecConcave,
                            GoodRadiusOptions::Engine::kSparseVector}) {
    for (const auto profile_index :
         {ProfileIndex::kGrid, ProfileIndex::kExact}) {
      GoodRadiusOptions options = TestOptions(4.0);
      options.engine = engine;
      options.profile_index = profile_index;
      Rng rng_view(77);
      Rng rng_index(77);
      ASSERT_OK_AND_ASSIGN(GoodRadiusResult want,
                           GoodRadius(rng_view, view, t, w.domain, options));
      ASSERT_OK_AND_ASSIGN(GoodRadiusResult got,
                           GoodRadius(rng_index, index, t, options));
      const std::string context =
          std::string(" engine=") +
          (engine == GoodRadiusOptions::Engine::kRecConcave ? "rc" : "sv") +
          (profile_index == ProfileIndex::kExact ? " exact" : " grid");
      EXPECT_EQ(got.radius, want.radius) << context;
      EXPECT_EQ(got.grid_index, want.grid_index) << context;
      EXPECT_EQ(got.gamma, want.gamma) << context;
      EXPECT_EQ(got.zero_radius_shortcut, want.zero_radius_shortcut)
          << context;
    }
  }
}

}  // namespace
}  // namespace dpcluster
