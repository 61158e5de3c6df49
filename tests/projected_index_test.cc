// Pins the projected candidate index (geo/spatial_grid.cc, kProjected) to the
// exact grid: for every scenario family, at d in {16, 32, 64} and 1/2/8
// threads, k-NN rows and radius counts must be bit-identical between the two
// geometries — before and after structural removals. Also pins the kAuto
// crossover (ResolveIndexGeometry) and the projected target dimension.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dpcluster/data/registry.h"
#include "dpcluster/data/scenario.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/spatial_grid.h"
#include "dpcluster/parallel/thread_pool.h"
#include "dpcluster/random/rng.h"
#include "test_util.h"

namespace dpcluster {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};
constexpr std::size_t kDims[] = {16, 32, 64};

std::vector<std::uint32_t> AllIds(std::size_t n) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint32_t>(i);
  return ids;
}

// Exact and projected answers for one live query set, compared bit for bit.
void ExpectGeometriesAgree(const SpatialGrid& exact, const SpatialGrid& proj,
                           std::span<const std::uint32_t> queries,
                           std::size_t k, double radius, ThreadPool* pool) {
  std::vector<double> knn_exact(queries.size() * k);
  std::vector<double> knn_proj(queries.size() * k);
  exact.BatchKnnDistancesFor(queries, k, knn_exact, pool, /*sorted=*/true);
  proj.BatchKnnDistancesFor(queries, k, knn_proj, pool, /*sorted=*/true);
  for (std::size_t i = 0; i < knn_exact.size(); ++i) {
    ASSERT_EQ(knn_exact[i], knn_proj[i])
        << "knn row " << i / k << " entry " << i % k;
  }
  std::vector<std::size_t> cnt_exact(queries.size());
  std::vector<std::size_t> cnt_proj(queries.size());
  exact.BatchCountWithin(queries, radius, cnt_exact, pool);
  proj.BatchCountWithin(queries, radius, cnt_proj, pool);
  for (std::size_t i = 0; i < cnt_exact.size(); ++i) {
    ASSERT_EQ(cnt_exact[i], cnt_proj[i]) << "count query " << i;
  }
}

TEST(ProjectedIndexTest, BitIdenticalToExactAcrossScenarioFamilies) {
  const auto names = ScenarioRegistry::Global().Names();
  ASSERT_GE(names.size(), 8u);
  for (const std::string& name : names) {
    for (const std::size_t d : kDims) {
      ScenarioSpec spec;
      spec.scenario = name;
      spec.n = 384;
      spec.dim = d;
      spec.levels = 1u << 10;
      Rng rng(0xC0FFEEu + d);
      ASSERT_OK_AND_ASSIGN(const ScenarioFamily* family,
                           ScenarioRegistry::Global().Lookup(name));
      ASSERT_OK_AND_ASSIGN(ScenarioInstance instance,
                           family->Generate(rng, spec));
      const PointSet& s = instance.points;
      const std::size_t n = s.size();
      const std::size_t k = 8;
      // A radius large enough to be non-trivial on every family.
      const double radius = 0.25 * instance.domain.axis_length() *
                            std::sqrt(static_cast<double>(d));

      ASSERT_OK_AND_ASSIGN(
          SpatialGrid exact,
          SpatialGrid::Build(s, instance.domain, k, IndexGeometry::kExact));
      ASSERT_OK_AND_ASSIGN(SpatialGrid proj,
                           SpatialGrid::Build(s, instance.domain, k,
                                              IndexGeometry::kProjected));
      ASSERT_EQ(proj.geometry(), IndexGeometry::kProjected);
      ASSERT_EQ(proj.geom_dim(), ProjectedGridDim(n, d, k));
      ASSERT_GE(proj.geom_dim(), 2u);
      ASSERT_LE(proj.geom_dim(), ProjectedIndexDim(n));

      for (const std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        SCOPED_TRACE(name + " d=" + std::to_string(d) +
                     " threads=" + std::to_string(threads));
        ExpectGeometriesAgree(exact, proj, AllIds(n), k, radius, &pool);
      }

      // Structural removal: drop every third point from both geometries and
      // re-compare over the survivors (serial pool is enough here — thread
      // invariance is covered above).
      std::vector<std::uint32_t> live;
      for (std::size_t i = 0; i < n; ++i) {
        if (i % 3 == 0) {
          exact.Remove(i);
          proj.Remove(i);
        } else {
          live.push_back(static_cast<std::uint32_t>(i));
        }
      }
      SCOPED_TRACE(name + " d=" + std::to_string(d) + " after removal");
      ExpectGeometriesAgree(exact, proj, live, k, radius, nullptr);
    }
  }
}

TEST(ProjectedIndexTest, DuplicateAndDegeneratePointsStayExact) {
  // Many exact duplicates stress the zero-distance ties and the ring-0
  // self-exclusion under the projected bound.
  Rng rng(7);
  const std::size_t d = 32;
  PointSet s = testing_util::UniformCube(rng, 64, d);
  for (std::size_t i = 0; i < 64; ++i) s.Add(s[i % 16]);  // duplicate rows
  GridDomain domain(1u << 12, d);
  domain.SnapAll(s);
  const std::size_t n = s.size();
  ASSERT_OK_AND_ASSIGN(
      SpatialGrid exact,
      SpatialGrid::Build(s, domain, 4, IndexGeometry::kExact));
  ASSERT_OK_AND_ASSIGN(
      SpatialGrid proj,
      SpatialGrid::Build(s, domain, 4, IndexGeometry::kProjected));
  ExpectGeometriesAgree(exact, proj, AllIds(n), /*k=*/6, /*radius=*/1.5,
                        nullptr);
}

TEST(ProjectedIndexTest, IndexedDatasetProjectedOptInMatchesAuto) {
  Rng rng(11);
  const std::size_t d = 48;
  PointSet s = testing_util::UniformCube(rng, 512, d);
  GridDomain domain(1u << 12, d);
  domain.SnapAll(s);
  ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                       IndexedDataset::Create(s, domain));
  EXPECT_EQ(index.index_geometry(), IndexGeometry::kAuto);
  std::vector<double> knn_auto(512 * 4);
  index.BatchKnn(4, knn_auto, nullptr, /*sorted=*/true);
  EXPECT_EQ(index.EnsureGrid(4).geometry(), IndexGeometry::kExact);

  ASSERT_OK_AND_ASSIGN(IndexedDataset proj_index,
                       IndexedDataset::Create(s, domain));
  proj_index.set_index_geometry(IndexGeometry::kProjected);
  std::vector<double> knn_proj(512 * 4);
  proj_index.BatchKnn(4, knn_proj, nullptr, /*sorted=*/true);
  EXPECT_EQ(proj_index.EnsureGrid(4).geometry(), IndexGeometry::kProjected);
  EXPECT_EQ(knn_auto, knn_proj);
}

TEST(ProjectedIndexTest, ResolveIndexGeometryCrossover) {
  // Explicit requests pass through untouched.
  EXPECT_EQ(ResolveIndexGeometry(IndexGeometry::kExact, 4096, 64, 16),
            IndexGeometry::kExact);
  EXPECT_EQ(ResolveIndexGeometry(IndexGeometry::kProjected, 4096, 2, 16),
            IndexGeometry::kProjected);
  // kAuto is kExact at every shape: the blocked dense scan won every
  // measured matchup against the projected filter, including the degenerate
  // one-cell shapes the projection was built for (see ResolveIndexGeometry).
  EXPECT_EQ(ResolveIndexGeometry(IndexGeometry::kAuto, 4096, 2, 16),
            IndexGeometry::kExact);
  EXPECT_EQ(ResolveIndexGeometry(IndexGeometry::kAuto, 4096, 8, 16),
            IndexGeometry::kExact);
  EXPECT_EQ(ResolveIndexGeometry(IndexGeometry::kAuto, 4096, 20, 16),
            IndexGeometry::kExact);
  EXPECT_EQ(ResolveIndexGeometry(IndexGeometry::kAuto, 4096, 64, 16),
            IndexGeometry::kExact);
  EXPECT_EQ(ResolveIndexGeometry(IndexGeometry::kAuto, 16, 20, 4),
            IndexGeometry::kExact);
  // The collapse predicate that widens the subsample cap's t range
  // (good_radius.cc, EffectiveSubsampleCap).
  EXPECT_TRUE(GridCollapsesToSingleCell(4096, 64, 16));
  EXPECT_TRUE(GridCollapsesToSingleCell(4096, 32, 1499));
  EXPECT_FALSE(GridCollapsesToSingleCell(4096, 2, 16));
}

TEST(ProjectedIndexTest, GeometryNamesRoundTrip) {
  for (const IndexGeometry g : {IndexGeometry::kAuto, IndexGeometry::kExact,
                                IndexGeometry::kProjected}) {
    ASSERT_OK_AND_ASSIGN(const IndexGeometry back,
                         IndexGeometryFromName(IndexGeometryName(g)));
    EXPECT_EQ(back, g);
  }
  EXPECT_FALSE(IndexGeometryFromName("bogus").ok());
}

TEST(ProjectedIndexTest, ProjectedIndexDimClamps) {
  EXPECT_EQ(ProjectedIndexDim(2), 4u);
  EXPECT_EQ(ProjectedIndexDim(4096), 8u);
  EXPECT_GE(ProjectedIndexDim(1u << 30), 12u);
  EXPECT_LE(ProjectedIndexDim(1u << 30), 12u);
}

}  // namespace
}  // namespace dpcluster
