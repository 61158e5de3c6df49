// Tests for the scenario subsystem (src/dpcluster/data/): registry behavior
// and, for every registered family, statistical sanity — structural
// invariants, grid/bounds discipline, seed determinism, and ground-truth
// recoverability.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>

#include "dpcluster/data/registry.h"
#include "dpcluster/data/scenario.h"
#include "dpcluster/geo/ball.h"
#include "dpcluster/la/vector_ops.h"
#include "test_util.h"

namespace dpcluster {
namespace {

ScenarioSpec SmallSpec(const std::string& scenario) {
  ScenarioSpec spec;
  spec.scenario = scenario;
  spec.n = 600;
  spec.dim = 3;
  spec.levels = 1u << 10;
  return spec;
}

// Snapping moves each point by at most half a grid diagonal.
double SnapTolerance(const GridDomain& domain) {
  return 0.5 * domain.step() * std::sqrt(static_cast<double>(domain.dim())) +
         1e-12;
}

// ------------------------------------------------------------- registry ---

TEST(ScenarioRegistryTest, GlobalHasAllBuiltinFamilies) {
  const auto names = ScenarioRegistry::Global().Names();
  const std::set<std::string> have(names.begin(), names.end());
  for (const char* expected :
       {"planted_cluster", "gaussian_mixture", "outlier_contaminated",
        "heavy_tailed", "axis_degenerate", "grid_snapped", "annulus",
        "near_tie", "streaming"}) {
    EXPECT_TRUE(have.count(expected)) << "missing family " << expected;
  }
  EXPECT_GE(names.size(), 8u);
}

TEST(ScenarioRegistryTest, LookupUnknownIsNotFound) {
  const auto result = ScenarioRegistry::Global().Lookup("no_such_scenario");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // The error names the registered families, like the algorithm registry.
  EXPECT_NE(result.status().message().find("planted_cluster"),
            std::string::npos);
}

TEST(ScenarioRegistryTest, DuplicateRegistrationRejected) {
  ScenarioRegistry registry;
  ASSERT_OK(RegisterBuiltinScenarios(registry));
  const std::size_t size = registry.size();
  // Re-registering the built-ins is a no-op (names already present).
  ASSERT_OK(RegisterBuiltinScenarios(registry));
  EXPECT_EQ(registry.size(), size);
}

TEST(ScenarioRegistryTest, GenerateRejectsInvalidSharedSpec) {
  Rng rng(1);
  ScenarioSpec spec = SmallSpec("planted_cluster");
  spec.cluster_fraction = 0.0;
  EXPECT_FALSE(GenerateScenario(rng, spec).ok());
  spec = SmallSpec("planted_cluster");
  spec.levels = 1;
  EXPECT_FALSE(GenerateScenario(rng, spec).ok());
}

TEST(ScenarioRegistryTest, FamilySpecValidationRuns) {
  Rng rng(1);
  ScenarioSpec spec = SmallSpec("gaussian_mixture");
  spec.imbalance = 0.5;  // must be >= 1
  EXPECT_FALSE(GenerateScenario(rng, spec).ok());
  spec = SmallSpec("near_tie");
  spec.cluster_fraction = 0.9;  // needs 2t - 1 <= n
  EXPECT_FALSE(GenerateScenario(rng, spec).ok());
  spec = SmallSpec("grid_snapped");
  spec.snap_levels = 1u << 20;  // coarser-than-domain snap grid only
  EXPECT_FALSE(GenerateScenario(rng, spec).ok());
}

// ------------------------------------------------- every-family sanity ---

class EveryFamilyTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    Scenarios, EveryFamilyTest,
    ::testing::ValuesIn(ScenarioRegistry::Global().Names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// Structural invariants and domain bounds: n points, labels aligned, exactly
// t primary points, everything snapped onto the grid inside the cube.
TEST_P(EveryFamilyTest, BoundsAndInvariants) {
  Rng rng(7);
  ASSERT_OK_AND_ASSIGN(ScenarioInstance instance,
                       GenerateScenario(rng, SmallSpec(GetParam())));
  EXPECT_EQ(instance.scenario, GetParam());
  EXPECT_EQ(instance.points.size(), 600u);
  EXPECT_EQ(instance.points.dim(), 3u);
  EXPECT_OK(instance.CheckInvariants());
  EXPECT_EQ(instance.LabelCount(0), instance.t);
  for (std::size_t i = 0; i < instance.points.size(); ++i) {
    for (std::size_t j = 0; j < instance.points.dim(); ++j) {
      const double x = instance.points[i][j];
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, instance.domain.axis_length());
      EXPECT_TRUE(instance.domain.OnGrid(x));
    }
  }
}

// Identical seeds must give bit-identical instances; different seeds must not.
TEST_P(EveryFamilyTest, DeterministicAcrossIdenticalSeeds) {
  const ScenarioSpec spec = SmallSpec(GetParam());
  Rng rng_a(42);
  Rng rng_b(42);
  Rng rng_c(43);
  ASSERT_OK_AND_ASSIGN(ScenarioInstance a, GenerateScenario(rng_a, spec));
  ASSERT_OK_AND_ASSIGN(ScenarioInstance b, GenerateScenario(rng_b, spec));
  ASSERT_OK_AND_ASSIGN(ScenarioInstance c, GenerateScenario(rng_c, spec));
  ASSERT_EQ(a.points.size(), b.points.size());
  EXPECT_TRUE(std::equal(a.points.Data().begin(), a.points.Data().end(),
                         b.points.Data().begin()));
  EXPECT_EQ(a.labels, b.labels);
  ASSERT_EQ(a.true_balls.size(), b.true_balls.size());
  for (std::size_t i = 0; i < a.true_balls.size(); ++i) {
    EXPECT_EQ(a.true_balls[i].center, b.true_balls[i].center);
    EXPECT_EQ(a.true_balls[i].radius, b.true_balls[i].radius);
  }
  EXPECT_FALSE(std::equal(a.points.Data().begin(), a.points.Data().end(),
                          c.points.Data().begin()));
}

// FNV-1a over the bytes of `data`, folded into `hash`.
template <typename T>
std::uint64_t Fnv1a(std::uint64_t hash, std::span<const T> data) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  for (std::size_t i = 0; i < data.size_bytes(); ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ULL;
  }
  return hash;
}

// Every test, bench, example and the daemon benchmark draw their data from
// these families, so a change to any family's draws would move all of them
// at once. Pin one instance per family: a fixed seed and spec, hashed over
// the point bytes, t, the labels and the ball centers. A failure here means
// the generated data changed; regenerate the constant only on purpose.
TEST_P(EveryFamilyTest, MatchesGoldenDigest) {
  const std::map<std::string, std::uint64_t> golden = {
      {"annulus", 0xe95b6f10ed7c35a0ULL},
      {"axis_degenerate", 0x8b492a1041d7b827ULL},
      {"gaussian_mixture", 0x19a93da7e845d632ULL},
      {"grid_snapped", 0x3ada7dc3c5e5abcfULL},
      {"heavy_tailed", 0x6e55d26c665f56c5ULL},
      {"near_tie", 0xb8bd034d61ffecb9ULL},
      {"outlier_contaminated", 0x5caad2fcf3eb3706ULL},
      {"planted_cluster", 0xa4e43014925712f3ULL},
      {"streaming", 0x17ea333b68bd0bb2ULL},
  };
  Rng rng(2016);
  ASSERT_OK_AND_ASSIGN(ScenarioInstance instance,
                       GenerateScenario(rng, SmallSpec(GetParam())));
  std::uint64_t hash = 14695981039346656037ULL;
  hash = Fnv1a(hash, instance.points.Data());
  const std::uint64_t t = instance.t;
  hash = Fnv1a(hash, std::span<const std::uint64_t>(&t, 1));
  hash = Fnv1a(hash, std::span<const int>(instance.labels));
  for (const Ball& ball : instance.true_balls) {
    hash = Fnv1a(hash, std::span<const double>(ball.center));
  }
  const auto it = golden.find(GetParam());
  ASSERT_NE(it, golden.end()) << "no golden digest for " << GetParam();
  EXPECT_EQ(hash, it->second) << GetParam() << " digest 0x" << std::hex
                              << hash;
}

// Ground-truth recoverability: the primary ball (+ snap tolerance) holds the
// great majority of the points it claims. Gaussian tails may clip a little;
// every other family plants points inside the ball by construction.
TEST_P(EveryFamilyTest, PrimaryBallRecoversItsPoints) {
  Rng rng(11);
  ASSERT_OK_AND_ASSIGN(ScenarioInstance instance,
                       GenerateScenario(rng, SmallSpec(GetParam())));
  Ball inflated = instance.primary();
  inflated.radius += SnapTolerance(instance.domain);
  std::size_t recovered = 0;
  for (std::size_t i = 0; i < instance.points.size(); ++i) {
    if (instance.labels[i] == 0 && inflated.Contains(instance.points[i])) {
      ++recovered;
    }
  }
  const double fraction =
      static_cast<double>(recovered) / static_cast<double>(instance.t);
  EXPECT_GE(fraction, GetParam() == "gaussian_mixture" ? 0.7 : 0.999)
      << "primary ball recovered only " << recovered << "/" << instance.t;
}

// ------------------------------------------------- family-specific shape ---

TEST(ScenarioShapeTest, GaussianMixtureImbalanceOrdersComponents) {
  Rng rng(3);
  ScenarioSpec spec = SmallSpec("gaussian_mixture");
  spec.n = 1000;
  spec.k = 3;
  spec.imbalance = 4.0;
  spec.noise_fraction = 0.1;
  ASSERT_OK_AND_ASSIGN(ScenarioInstance instance, GenerateScenario(rng, spec));
  ASSERT_EQ(instance.true_balls.size(), 3u);
  // Component 0 (the primary) is the smallest; sizes grow with the index.
  const std::size_t c0 = instance.LabelCount(0);
  const std::size_t c2 = instance.LabelCount(2);
  EXPECT_EQ(c0, instance.t);
  EXPECT_GE(c2, 3 * c0);  // imbalance 4 with rounding slack
}

TEST(ScenarioShapeTest, OutlierContaminationStaysOutsideTheExclusionZone) {
  Rng rng(4);
  ScenarioSpec spec = SmallSpec("outlier_contaminated");
  spec.noise_fraction = 0.2;
  ASSERT_OK_AND_ASSIGN(ScenarioInstance instance, GenerateScenario(rng, spec));
  const Ball& primary = instance.primary();
  for (std::size_t i = 0; i < instance.points.size(); ++i) {
    if (instance.labels[i] != -1) continue;
    EXPECT_GT(Distance(instance.points[i], primary.center),
              2.0 * primary.radius);
  }
}

TEST(ScenarioShapeTest, HeavyTailedHasStragglersBeyondTheCore) {
  Rng rng(5);
  ScenarioSpec spec = SmallSpec("heavy_tailed");
  spec.tail_index = 1.2;
  ASSERT_OK_AND_ASSIGN(ScenarioInstance instance, GenerateScenario(rng, spec));
  const Ball& primary = instance.primary();
  std::size_t far = 0;
  for (std::size_t i = 0; i < instance.points.size(); ++i) {
    if (Distance(instance.points[i], primary.center) > 3.0 * primary.radius) {
      ++far;
    }
  }
  EXPECT_GT(far, 0u) << "heavy tail produced no stragglers";
}

TEST(ScenarioShapeTest, AxisDegenerateClusterIsLowRank) {
  Rng rng(6);
  ScenarioSpec spec = SmallSpec("axis_degenerate");
  spec.dim = 4;
  spec.intrinsic_dim = 1;
  ASSERT_OK_AND_ASSIGN(ScenarioInstance instance, GenerateScenario(rng, spec));
  // Cluster points vary in exactly intrinsic_dim coordinates (up to grid
  // snapping): the others are frozen at the center's value.
  std::size_t varying = 0;
  for (std::size_t j = 0; j < spec.dim; ++j) {
    double lo = instance.domain.axis_length();
    double hi = 0.0;
    for (std::size_t i = 0; i < instance.points.size(); ++i) {
      if (instance.labels[i] != 0) continue;
      lo = std::min(lo, instance.points[i][j]);
      hi = std::max(hi, instance.points[i][j]);
    }
    if (hi - lo > 2.0 * instance.domain.step()) ++varying;
  }
  EXPECT_EQ(varying, 1u);
}

TEST(ScenarioShapeTest, GridSnappedCollapsesToFewSites) {
  Rng rng(8);
  ScenarioSpec spec = SmallSpec("grid_snapped");
  spec.snap_levels = 5;
  ASSERT_OK_AND_ASSIGN(ScenarioInstance instance, GenerateScenario(rng, spec));
  // Every coordinate lies on the coarse 5-level sub-grid => at most 5^3
  // distinct sites for 600 points: duplicates everywhere.
  std::set<std::vector<double>> sites;
  for (std::size_t i = 0; i < instance.points.size(); ++i) {
    const auto row = instance.points[i];
    sites.emplace(row.begin(), row.end());
  }
  EXPECT_LE(sites.size(), 125u);
}

TEST(ScenarioShapeTest, AnnulusAvoidsItsOwnCenter) {
  Rng rng(9);
  ScenarioSpec spec = SmallSpec("annulus");
  spec.cluster_radius = 0.2;
  spec.shell_thickness = 0.1;
  ASSERT_OK_AND_ASSIGN(ScenarioInstance instance, GenerateScenario(rng, spec));
  const Ball& primary = instance.primary();
  const double tolerance = SnapTolerance(instance.domain);
  for (std::size_t i = 0; i < instance.points.size(); ++i) {
    if (instance.labels[i] != 0) continue;
    const double r = Distance(instance.points[i], primary.center);
    EXPECT_GE(r, 0.9 * primary.radius - tolerance);
    EXPECT_LE(r, primary.radius + tolerance);
  }
}

TEST(ScenarioShapeTest, NearTieDecoyHoldsOneFewerPoint) {
  Rng rng(10);
  ScenarioSpec spec = SmallSpec("near_tie");
  ASSERT_OK_AND_ASSIGN(ScenarioInstance instance, GenerateScenario(rng, spec));
  ASSERT_EQ(instance.true_balls.size(), 2u);
  EXPECT_EQ(instance.LabelCount(0), instance.t);
  EXPECT_EQ(instance.LabelCount(1), instance.t - 1);
  // The decoy is the tighter ball.
  EXPECT_LT(instance.true_balls[1].radius, instance.true_balls[0].radius);
  // The two clusters are far apart relative to their radii.
  EXPECT_GT(Distance(instance.true_balls[0].center,
                     instance.true_balls[1].center),
            4.0 * instance.true_balls[0].radius);
}

}  // namespace
}  // namespace dpcluster
