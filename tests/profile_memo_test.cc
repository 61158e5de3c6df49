// Tests for the radius-profile memo on IndexedDataset: a memoized profile
// must be the very StepFunction a cold build produces (same breakpoints,
// same values) at any thread count, the memo must serve only the full row
// set, Insert and Compact must invalidate it, neither the kExact oracle nor
// the max_points refusal may be bypassed by it, and both GoodRadius engines
// share it.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dpcluster/core/good_radius.h"
#include "dpcluster/core/k_cluster.h"
#include "dpcluster/core/radius_profile.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/parallel/thread_pool.h"
#include "test_util.h"

namespace dpcluster {
namespace {

using Counts = IndexedDataset::ProfileMemoCounts;
using testing_util::ExpectSameProfile;

void ExpectCounts(IndexedDataset& index, std::uint64_t hits,
                  std::uint64_t misses, const std::string& context) {
  const Counts counts = index.TakeProfileMemoCounts();
  EXPECT_EQ(counts.hits, hits) << context;
  EXPECT_EQ(counts.misses, misses) << context;
}

ScenarioInstance Instance(const std::string& family, std::size_t n,
                          std::uint64_t seed) {
  ScenarioSpec spec;
  spec.scenario = family;
  spec.n = n;
  spec.dim = 2;
  Rng rng(seed);
  auto instance = GenerateScenario(rng, spec);
  EXPECT_TRUE(instance.ok()) << family;
  return std::move(instance).value();
}

/// A cold profile: a fresh index over exactly `points`, so nothing is
/// memoized yet.
RadiusProfile ColdProfile(const PointSet& points, const GridDomain& domain,
                          std::size_t t, ThreadPool* pool) {
  auto index = IndexedDataset::Create(points, domain);
  EXPECT_TRUE(index.ok());
  auto profile = RadiusProfile::Build(*index, t, points.size(), pool);
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  return std::move(profile).value();
}

TEST(ProfileMemoTest, HitIsBitIdenticalToColdAcrossFamiliesAndThreads) {
  const std::vector<std::string> families = ScenarioRegistry::Global().Names();
  ASSERT_EQ(families.size(), 9u);
  constexpr std::size_t n = 384;
  std::uint64_t seed = 4100;
  for (const std::string& family : families) {
    const ScenarioInstance instance = Instance(family, n, ++seed);
    ASSERT_EQ(instance.points.size(), n) << family;
    ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                         IndexedDataset::Create(instance.points,
                                                instance.domain));
    for (const std::size_t t : {std::size_t{2}, n / 4, n}) {
      const std::string context = family + " t=" + std::to_string(t);
      ASSERT_OK(RadiusProfile::Build(index, t, n).status());
      ExpectCounts(index, 0, 1, context + " (priming build)");
      for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        ASSERT_OK_AND_ASSIGN(RadiusProfile hit,
                             RadiusProfile::Build(index, t, n, &pool));
        ExpectCounts(index, 1, 0, context);
        ExpectSameProfile(
            ColdProfile(instance.points, instance.domain, t, &pool), hit,
            context + " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(ProfileMemoTest, OnlyTheFullRowSetIsServed) {
  const ScenarioInstance instance = Instance("planted_cluster", 512, 17);
  const std::size_t t = instance.t;
  ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                       IndexedDataset::Create(instance.points, instance.domain));
  ASSERT_OK(RadiusProfile::Build(index, t, 512).status());
  ExpectCounts(index, 0, 1, "priming build");

  // With rows removed the memo does not apply: the build runs cold over the
  // active subset, exactly as a fresh index over ActiveView() would.
  const IndexedDataset::Snapshot full = index.TakeSnapshot();
  index.Remove(std::vector<std::uint32_t>{3, 40, 41, 300});
  ASSERT_OK_AND_ASSIGN(RadiusProfile subset,
                       RadiusProfile::Build(index, t, 512));
  ExpectCounts(index, 0, 1, "subset");
  ExpectSameProfile(ColdProfile(index.ActiveView(), instance.domain, t, nullptr),
                    subset, "subset");

  // Restoring the full active set restores exactly the memoized rows.
  ASSERT_OK(index.Restore(full));
  ASSERT_OK_AND_ASSIGN(RadiusProfile restored,
                       RadiusProfile::Build(index, t, 512));
  ExpectCounts(index, 1, 0, "restored");
  ExpectSameProfile(ColdProfile(instance.points, instance.domain, t, nullptr),
                    restored, "restored");
}

TEST(ProfileMemoTest, FullSetBuildAfterKClusterHitsAndMatchesCold) {
  const ScenarioInstance instance = Instance("gaussian_mixture", 2048, 23);
  const std::size_t t = 512;
  ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                       IndexedDataset::Create(instance.points, instance.domain));
  KClusterOptions options;
  options.params = {16.0, 1e-6};
  options.k = 3;
  options.per_round_t = t;
  options.best_effort = false;
  Rng rng(5);
  ASSERT_OK_AND_ASSIGN(
      KClusterResult covered,
      KCluster(rng, instance.points, instance.domain, options, &index));
  ASSERT_EQ(covered.rounds.size(), options.k);
  // Round 0 memoized the full set at t; later rounds ran over subsets.
  const Counts during = index.TakeProfileMemoCounts();
  EXPECT_EQ(during.hits, 0u);
  EXPECT_EQ(during.misses, options.k);

  ASSERT_EQ(index.active_size(), index.size());  // The guard restored it.
  ASSERT_OK_AND_ASSIGN(RadiusProfile after,
                       RadiusProfile::Build(index, t, index.size()));
  ExpectCounts(index, 1, 0, "after KCluster");
  ExpectSameProfile(ColdProfile(instance.points, instance.domain, t, nullptr),
                    after, "after KCluster");
}

// Both GoodRadius engines read the same memoized L(r, S): a SparseVector
// solve after a RecConcave solve at the same t is a memo hit, and it
// releases the bytes a SparseVector solve over a cold index releases.
TEST(ProfileMemoTest, SparseVectorSolveHitsTheRecConcaveMemo) {
  const ScenarioInstance instance = Instance("planted_cluster", 512, 29);
  const std::size_t t = instance.t;
  ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                       IndexedDataset::Create(instance.points, instance.domain));
  GoodRadiusOptions options;
  options.params = {4.0, 1e-9};
  Rng rc_rng(3);
  ASSERT_OK(GoodRadius(rc_rng, index, t, options).status());
  ExpectCounts(index, 0, 1, "RecConcave solve");

  options.engine = GoodRadiusOptions::Engine::kSparseVector;
  Rng warm_rng(8);
  ASSERT_OK_AND_ASSIGN(GoodRadiusResult warm,
                       GoodRadius(warm_rng, index, t, options));
  ExpectCounts(index, 1, 0, "SparseVector solve");

  ASSERT_OK_AND_ASSIGN(IndexedDataset fresh,
                       IndexedDataset::Create(instance.points, instance.domain));
  Rng cold_rng(8);
  ASSERT_OK_AND_ASSIGN(GoodRadiusResult cold,
                       GoodRadius(cold_rng, fresh, t, options));
  ExpectCounts(fresh, 0, 1, "cold SparseVector solve");
  EXPECT_EQ(warm.grid_index, cold.grid_index);
  EXPECT_EQ(warm.radius, cold.radius);
  EXPECT_EQ(warm.gamma, cold.gamma);
  EXPECT_EQ(warm.zero_radius_shortcut, cold.zero_radius_shortcut);
  EXPECT_EQ(warm_rng(), cold_rng());  // Same draws consumed.
}

TEST(ProfileMemoTest, InsertAndCompactInvalidate) {
  const ScenarioInstance instance = Instance("streaming", 300, 31);
  const GridDomain& domain = instance.domain;
  const std::size_t t = 60;
  ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                       IndexedDataset::Create(instance.points, domain));
  ASSERT_OK(RadiusProfile::Build(index, t, 1000).status());
  ExpectCounts(index, 0, 1, "priming build");

  // An append between two solves: the next build sees the new row.
  for (std::size_t i = 0; i < 8; ++i) {
    std::vector<double> row(instance.points[i].begin(),
                            instance.points[i].end());
    ASSERT_OK(index.Insert(row).status());
  }
  ASSERT_OK_AND_ASSIGN(RadiusProfile appended,
                       RadiusProfile::Build(index, t, 1000));
  ExpectCounts(index, 0, 1, "after Insert");
  ExpectSameProfile(ColdProfile(index.points(), domain, t, nullptr), appended,
                    "after Insert");
  ASSERT_OK(RadiusProfile::Build(index, t, 1000).status());
  ExpectCounts(index, 1, 0, "repeat after Insert");

  // Expire then compact: the surviving rows are a new full set.
  std::vector<std::uint32_t> expired;
  for (std::uint32_t id = 0; id < 40; ++id) expired.push_back(id);
  index.Remove(expired);
  index.Compact();
  ASSERT_EQ(index.active_size(), index.size());
  ASSERT_OK_AND_ASSIGN(RadiusProfile compacted,
                       RadiusProfile::Build(index, t, 1000));
  ExpectCounts(index, 0, 1, "after Compact");
  ExpectSameProfile(ColdProfile(index.points(), domain, t, nullptr), compacted,
                    "after Compact");
}

TEST(ProfileMemoTest, ExactGeneratorNeverReadsTheMemo) {
  const ScenarioInstance instance = Instance("annulus", 200, 41);
  const std::size_t t = 50;
  ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                       IndexedDataset::Create(instance.points, instance.domain));
  ASSERT_OK_AND_ASSIGN(RadiusProfile grid, RadiusProfile::Build(index, t, 200));
  ExpectCounts(index, 0, 1, "priming build");
  ASSERT_OK_AND_ASSIGN(
      RadiusProfile exact,
      RadiusProfile::Build(index, t, 200, nullptr, ProfileIndex::kExact));
  ExpectCounts(index, 0, 0, "kExact");
  ExpectSameProfile(exact, grid, "kExact vs memoized kGrid");
}

TEST(ProfileMemoTest, SmallerMaxPointsStillRefusesAfterMemoizedBuild) {
  const ScenarioInstance instance = Instance("planted_cluster", 256, 43);
  const std::size_t t = instance.t;
  ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                       IndexedDataset::Create(instance.points, instance.domain));
  ASSERT_OK(RadiusProfile::Build(index, t, 256).status());
  ASSERT_OK(RadiusProfile::Build(index, t, 256).status());
  ExpectCounts(index, 1, 1, "memoized");
  EXPECT_EQ(RadiusProfile::Build(index, t, 255).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_FALSE(RadiusProfile::Build(index, 257, 256).ok());
  ExpectCounts(index, 0, 0, "refusals never reach the memo");
}

TEST(ProfileMemoTest, KeepsTheMostRecentlyUsedT) {
  const ScenarioInstance instance = Instance("planted_cluster", 256, 47);
  ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                       IndexedDataset::Create(instance.points, instance.domain));
  const std::size_t cap = IndexedDataset::kProfileMemoCapacity;
  for (std::size_t t = 10; t < 10 + cap; ++t) {
    ASSERT_OK(RadiusProfile::Build(index, t, 256).status());
  }
  ASSERT_OK(RadiusProfile::Build(index, 10, 256).status());  // Refreshes t=10.
  ExpectCounts(index, 1, cap, "filled");
  ASSERT_OK(RadiusProfile::Build(index, 100, 256).status());  // Evicts t=11.
  ASSERT_OK(RadiusProfile::Build(index, 10, 256).status());
  ExpectCounts(index, 1, 1, "t=10 survived");
  ASSERT_OK(RadiusProfile::Build(index, 11, 256).status());
  ExpectCounts(index, 0, 1, "t=11 evicted");
}

}  // namespace
}  // namespace dpcluster
