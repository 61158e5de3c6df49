// Tests for RadiusProfile: the exact L(r, S) step function must agree with the
// direct definition at every radius.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "dpcluster/core/radius_profile.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/parallel/thread_pool.h"
#include "reference/pairwise_reference.h"
#include "test_util.h"

namespace dpcluster {
namespace {

using testing_util::ExpectSameProfile;
using testing_util::MakePointSet;

TEST(RadiusProfileTest, ValidatesArguments) {
  const GridDomain domain(16, 2);
  const PointSet empty(2);
  EXPECT_FALSE(RadiusProfile::Build(empty, 1, domain, 100).ok());
  const PointSet s = MakePointSet(2, {0.0, 0.0, 1.0, 1.0});
  EXPECT_FALSE(RadiusProfile::Build(s, 0, domain, 100).ok());
  EXPECT_FALSE(RadiusProfile::Build(s, 3, domain, 100).ok());
  EXPECT_EQ(RadiusProfile::Build(s, 1, domain, 1).status().code(),
            StatusCode::kResourceExhausted);
  const PointSet wrong_dim = MakePointSet(1, {0.0});
  EXPECT_FALSE(RadiusProfile::Build(wrong_dim, 1, domain, 100).ok());
}

// The profile against the exact all-pairs oracle at every `stride`-th
// solution-grid radius and at its half (the quality's first term).
void ExpectMatchesOracle(const PointSet& s, std::size_t t,
                         const GridDomain& domain, std::uint64_t stride) {
  ASSERT_OK_AND_ASSIGN(RadiusProfile profile,
                       RadiusProfile::Build(s, t, domain, s.size()));
  const reference::PairwiseRows pd(s);
  for (std::uint64_t g = 0; g < domain.RadiusGridSize(); g += stride) {
    const double r = domain.RadiusFromIndex(g);
    EXPECT_NEAR(profile.LAtSolutionIndex(g), pd.CappedTopAverage(r, t), 1e-9)
        << "g=" << g << " t=" << t;
    EXPECT_NEAR(profile.LAtHalfSolutionIndex(g),
                pd.CappedTopAverage(r / 2.0, t), 1e-9)
        << "half g=" << g << " t=" << t;
  }
}

TEST(RadiusProfileTest, MatchesDirectEvaluation) {
  Rng rng(1);
  const GridDomain domain(64, 2);
  for (int trial = 0; trial < 8; ++trial) {
    PointSet s = testing_util::UniformCube(rng, 30, 2);
    domain.SnapAll(s);
    ExpectMatchesOracle(s, 1 + rng.NextUint64(29), domain, 7);
  }

  // A float tie: the pair lies just outside the solution-grid ball of index
  // 1871, but its distance and that radius round to the same float, so
  // L(r_1871, S) = 1 at t = 2 while a pair distance narrowed to float would
  // land inside and read 2.
  const GridDomain fine(4096, 2);
  const double step = fine.step();
  const PointSet tie = MakePointSet(
      2, {3489 * step, 3405 * step, 2567 * step, 3248 * step});
  const double r1871 = fine.RadiusFromIndex(1871);
  ASSERT_GT(Distance(tie[0], tie[1]), r1871);
  ASSERT_EQ(static_cast<float>(Distance(tie[0], tie[1])),
            static_cast<float>(r1871));
  EXPECT_EQ(reference::PairwiseRows(tie).CappedTopAverage(r1871, 2), 1.0);
  ExpectMatchesOracle(tie, 2, fine, 1);
}

TEST(RadiusProfileTest, ZeroRadiusCountsDuplicates) {
  const GridDomain domain(16, 1);
  // Five copies of the same grid point, one far away; t = 4.
  const PointSet s = MakePointSet(1, {0.5, 0.5, 0.5, 0.5, 0.5, 1.0});
  ASSERT_OK_AND_ASSIGN(RadiusProfile profile, RadiusProfile::Build(s, 4, domain, 10));
  // Balls of radius 0 around the duplicates hold 5 points (capped at 4);
  // the far point holds 1: top-4 average = (4+4+4+4)/4 = 4.
  EXPECT_DOUBLE_EQ(profile.LAtZero(), 4.0);
}

TEST(RadiusProfileTest, MonotoneNonDecreasing) {
  Rng rng(2);
  const GridDomain domain(32, 2);
  PointSet s = testing_util::UniformCube(rng, 25, 2);
  domain.SnapAll(s);
  ASSERT_OK_AND_ASSIGN(RadiusProfile profile, RadiusProfile::Build(s, 10, domain, 100));
  double prev = -1.0;
  for (std::uint64_t g = 0; g < domain.RadiusGridSize(); ++g) {
    const double l = profile.LAtSolutionIndex(g);
    EXPECT_GE(l, prev - 1e-12);
    prev = l;
  }
}

TEST(RadiusProfileTest, SaturatesAtTForLargeRadius) {
  Rng rng(3);
  const GridDomain domain(32, 3);
  PointSet s = testing_util::UniformCube(rng, 20, 3);
  domain.SnapAll(s);
  const std::size_t t = 8;
  ASSERT_OK_AND_ASSIGN(RadiusProfile profile, RadiusProfile::Build(s, t, domain, 100));
  const std::uint64_t last = domain.RadiusGridSize() - 1;
  EXPECT_DOUBLE_EQ(profile.LAtSolutionIndex(last), static_cast<double>(t));
}

TEST(RadiusProfileTest, SensitivityAtMostTwoUnderReplacement) {
  // Lemma 4.5's core property, checked on the materialized profile.
  Rng rng(4);
  const GridDomain domain(32, 2);
  for (int trial = 0; trial < 6; ++trial) {
    PointSet s = testing_util::UniformCube(rng, 20, 2);
    domain.SnapAll(s);
    const std::size_t t = 1 + rng.NextUint64(19);
    PointSet s2 = s;
    std::vector<double> replacement = {domain.Snap(rng.NextDouble()),
                                       domain.Snap(rng.NextDouble())};
    s2.ReplaceRow(rng.NextUint64(s.size()), replacement);

    ASSERT_OK_AND_ASSIGN(RadiusProfile p0, RadiusProfile::Build(s, t, domain, 100));
    ASSERT_OK_AND_ASSIGN(RadiusProfile p1, RadiusProfile::Build(s2, t, domain, 100));
    for (std::uint64_t g = 0; g < domain.RadiusGridSize(); g += 5) {
      EXPECT_LE(std::abs(p0.LAtSolutionIndex(g) - p1.LAtSolutionIndex(g)),
                2.0 + 1e-9)
          << "g=" << g;
    }
  }
}

// The default generator takes the t-NN stream even where the old automatic
// choice fell back to the all-pairs sweep (n >= 512 and t - 1 in (n/4, n]);
// the profile must stay bit-identical to the kExact oracle there, at any
// thread count.
TEST(RadiusProfileTest, DefaultBitIdenticalToExactAboveOldCrossover) {
  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  const std::vector<std::string> families = registry.Names();
  ASSERT_EQ(families.size(), 9u);
  ThreadPool pool(8);
  constexpr std::size_t n = 640;
  std::uint64_t seed = 1300;
  for (const std::string& family : families) {
    for (const std::size_t dim : {std::size_t{2}, std::size_t{32}}) {
      ScenarioSpec spec;
      spec.scenario = family;
      spec.n = n;
      spec.dim = dim;
      Rng rng(++seed);
      ASSERT_OK_AND_ASSIGN(const ScenarioFamily* generator,
                           registry.Lookup(family));
      ASSERT_OK_AND_ASSIGN(ScenarioInstance instance,
                           generator->Generate(rng, spec));
      ASSERT_EQ(instance.points.size(), n) << family;
      for (const std::size_t t :
           {n / 4 + 2, n / 2 + 1, 3 * n / 4 + 1, n}) {
        ASSERT_OK_AND_ASSIGN(
            RadiusProfile exact,
            RadiusProfile::Build(instance.points, t, instance.domain, n,
                                 nullptr, ProfileIndex::kExact));
        const std::string context = family + " d=" + std::to_string(dim) +
                                    " t=" + std::to_string(t);
        for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
          ASSERT_OK_AND_ASSIGN(
              RadiusProfile grid,
              RadiusProfile::Build(instance.points, t, instance.domain, n,
                                   threads));
          ExpectSameProfile(exact, grid,
                            context + (threads ? " (threads=8)" : ""));
        }
      }
    }
  }
}

// The lossless-pruning property: the grid-indexed profile must be
// bit-identical to the exact all-pairs sweep — same StepFunction breakpoints,
// same values — on every scenario family, for t spanning the degenerate
// edges (t=1: no events matter; t=n: nothing is pruned), at any thread count.
TEST(RadiusProfileTest, GridBitIdenticalToExactAcrossScenarioFamilies) {
  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  const std::vector<std::string> families = registry.Names();
  ASSERT_EQ(families.size(), 9u);
  ThreadPool pool(8);
  // |X| = 2^20 makes the fine grid far larger than the t-NN stream at small
  // t, which groups the events by sorting instead of by counting.
  for (const std::uint64_t levels : {std::uint64_t{1} << 8,
                                     std::uint64_t{1} << 20}) {
    std::uint64_t seed = 900;
    for (const std::string& family : families) {
      for (const auto& [n, dim] :
           std::vector<std::pair<std::size_t, std::size_t>>{{64, 1},
                                                            {192, 2},
                                                            {256, 3}}) {
        ScenarioSpec spec;
        spec.scenario = family;
        spec.n = n;
        spec.dim = dim;
        spec.levels = levels;
        Rng rng(++seed);
        ASSERT_OK_AND_ASSIGN(const ScenarioFamily* generator,
                             registry.Lookup(family));
        ASSERT_OK_AND_ASSIGN(ScenarioInstance instance,
                             generator->Generate(rng, spec));
        for (const std::size_t t :
             {std::size_t{1}, std::size_t{2}, instance.t, n / 2, n}) {
          ASSERT_OK_AND_ASSIGN(
              RadiusProfile exact,
              RadiusProfile::Build(instance.points, t, instance.domain, n,
                                   nullptr, ProfileIndex::kExact));
          ASSERT_OK_AND_ASSIGN(
              RadiusProfile grid,
              RadiusProfile::Build(instance.points, t, instance.domain, n,
                                   nullptr, ProfileIndex::kGrid));
          ASSERT_OK_AND_ASSIGN(
              RadiusProfile grid_mt,
              RadiusProfile::Build(instance.points, t, instance.domain, n,
                                   &pool, ProfileIndex::kGrid));
          const std::string context = family + " n=" + std::to_string(n) +
                                      " d=" + std::to_string(dim) +
                                      " t=" + std::to_string(t) +
                                      " |X|=" + std::to_string(levels);
          ExpectSameProfile(exact, grid, context);
          ExpectSameProfile(exact, grid_mt, context + " (threads=8)");
        }
      }
    }
  }
}

// The k_cluster round shape: the dataset's shared grid is first sized by a
// larger t (the one_cluster solve at the key's default t), a round removes a
// ball with RemoveWithin, and the next round builds a cold profile at a
// smaller t over the survivors. The superset rows from that coarse,
// deletion-pruned grid must still give the kExact sweep's bytes, at any
// thread count.
TEST(RadiusProfileTest, GridBitIdenticalToExactOnKClusterRoundShape) {
  ThreadPool pool(8);
  std::uint64_t seed = 1700;
  for (const std::string family : {"gaussian_mixture", "planted_cluster"}) {
    ScenarioSpec spec;
    spec.scenario = family;
    spec.n = 1024;
    spec.dim = 2;
    Rng rng(++seed);
    ASSERT_OK_AND_ASSIGN(const ScenarioFamily* generator,
                         ScenarioRegistry::Global().Lookup(family));
    ASSERT_OK_AND_ASSIGN(ScenarioInstance instance,
                         generator->Generate(rng, spec));
    const std::size_t n = instance.points.size();
    ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                         IndexedDataset::Create(instance.points,
                                                instance.domain));
    const std::size_t first_t = n * 3 / 10;
    ASSERT_OK(RadiusProfile::Build(index, first_t, n).status());
    ASSERT_TRUE(index.grid_built());
    Ball ball;
    ball.center.assign(instance.points[0].begin(), instance.points[0].end());
    ball.radius = 0.2 * instance.domain.axis_length();
    const std::size_t removed = index.RemoveWithin(ball);
    ASSERT_GT(removed, 0u) << family;
    ASSERT_LT(removed + 200, n) << family;
    for (const std::size_t t : {std::size_t{2}, std::size_t{128},
                                std::size_t{200}}) {
      const std::string context = family + " t=" + std::to_string(t) +
                                  " after removing " + std::to_string(removed);
      ASSERT_OK_AND_ASSIGN(
          RadiusProfile exact,
          RadiusProfile::Build(index, t, n, nullptr, ProfileIndex::kExact));
      for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
        ASSERT_OK_AND_ASSIGN(RadiusProfile grid,
                             RadiusProfile::Build(index, t, n, threads));
        ExpectSameProfile(exact, grid,
                          context + (threads ? " (threads=8)" : ""));
      }
    }
  }
}

TEST(RadiusProfileTest, FineGridTwiceSolutionGrid) {
  const GridDomain domain(16, 2);
  const PointSet s = MakePointSet(2, {0.0, 0.0, 1.0, 1.0});
  ASSERT_OK_AND_ASSIGN(RadiusProfile profile, RadiusProfile::Build(s, 1, domain, 10));
  EXPECT_EQ(profile.fine_l().domain_size(),
            2 * (domain.RadiusGridSize() - 1) + 1);
  EXPECT_EQ(profile.solution_grid_size(), domain.RadiusGridSize());
}

}  // namespace
}  // namespace dpcluster
