// Tests for geo/SpatialGrid: the expanding ring search must return exactly
// the brute-force k-NN distance multiset — same doubles, bit for bit — for
// every data shape (uniform, duplicate-heavy, degenerate, boundary) and at
// any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dpcluster/geo/spatial_grid.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/parallel/thread_pool.h"
#include "test_util.h"

namespace dpcluster {
namespace {

using testing_util::MakePointSet;

// Ascending brute-force distances from s[query] to every other point.
std::vector<double> BruteForceKnn(const PointSet& s, std::size_t query,
                                  std::size_t k) {
  std::vector<double> dists;
  for (std::size_t j = 0; j < s.size(); ++j) {
    if (j == query) continue;
    dists.push_back(Distance(s[query], s[j]));
  }
  std::sort(dists.begin(), dists.end());
  dists.resize(std::min(k, dists.size()));
  return dists;
}

void ExpectMatchesBruteForce(const PointSet& s, const GridDomain& domain,
                             std::size_t k) {
  ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, k));
  SpatialGrid::Workspace ws;
  std::vector<double> got;
  for (std::size_t i = 0; i < s.size(); ++i) {
    grid.KnnDistances(i, k, ws, got);
    const std::vector<double> want = BruteForceKnn(s, i, k);
    ASSERT_EQ(got.size(), want.size()) << "query=" << i << " k=" << k;
    for (std::size_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(got[j], want[j])
          << "query=" << i << " k=" << k << " rank=" << j;
    }
  }
}

TEST(SpatialGridTest, RingSearchMatchesBruteForceAcrossShapes) {
  Rng rng(101);
  for (const std::size_t d : {1u, 2u, 3u, 8u}) {
    const GridDomain domain(1u << 10, d);
    for (const std::size_t n : {2u, 33u, 257u}) {
      PointSet s = testing_util::UniformCube(rng, n, d);
      domain.SnapAll(s);
      for (const std::size_t k : {std::size_t{1}, std::size_t{5}, n - 1}) {
        ExpectMatchesBruteForce(s, domain, k);
      }
    }
  }
}

TEST(SpatialGridTest, DuplicateHeavyPointsCountAsNeighbors) {
  // Coordinates drawn from three levels only: most points are exact
  // duplicates, so many zero distances must survive self-exclusion.
  Rng rng(102);
  const std::size_t d = 2;
  const GridDomain domain(2, d);  // levels=2: snapping to {0, 1}.
  PointSet s = testing_util::UniformCube(rng, 120, d);
  domain.SnapAll(s);
  for (const std::size_t k : {1u, 10u, 119u}) {
    ExpectMatchesBruteForce(s, domain, k);
  }
}

TEST(SpatialGridTest, AllPointsIdentical) {
  const GridDomain domain(16, 2);
  PointSet s(2);
  const std::vector<double> p = {0.5, 0.5};
  for (int i = 0; i < 50; ++i) s.Add(p);
  ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, 49));
  SpatialGrid::Workspace ws;
  std::vector<double> out;
  grid.KnnDistances(7, 49, ws, out);
  ASSERT_EQ(out.size(), 49u);
  for (const double v : out) EXPECT_EQ(v, 0.0);
}

TEST(SpatialGridTest, BoundaryPointsStayInTheLastCell) {
  // Exact cube corners (coordinate 1.0 lands on the last cell's far edge).
  const GridDomain domain(1u << 10, 2);
  const PointSet s = MakePointSet(
      2, {0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.5, 0.5, 1.0, 1.0});
  for (const std::size_t k : {1u, 3u, 5u}) {
    ExpectMatchesBruteForce(s, domain, k);
  }
}

TEST(SpatialGridTest, DegenerateHighDimensionFallsBackToFullScan) {
  Rng rng(103);
  const std::size_t d = 32;
  const std::size_t k = 20;
  const GridDomain domain(1u << 10, d);
  PointSet s = testing_util::UniformCube(rng, 150, d);
  domain.SnapAll(s);
  // The grid at high d collapses to one cell and every query scans the full
  // live prefix.
  ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, k));
  EXPECT_EQ(grid.cells_per_axis(), 1u);
  ExpectMatchesBruteForce(s, domain, k);

  // The one-cell batch runs the blocked dense pass: rows must equal the
  // per-query path bit for bit, sorted and unsorted (as multisets), at any
  // thread count, and for explicit query lists after a removal.
  SpatialGrid::Workspace ws;
  std::vector<double> row;
  for (const bool sorted : {true, false}) {
    std::vector<double> batch(s.size() * k);
    grid.BatchKnnDistances(k, batch, nullptr, sorted);
    for (std::size_t i = 0; i < s.size(); ++i) {
      grid.KnnDistances(i, k, ws, row, sorted);
      for (std::size_t j = 0; j < k; ++j) {
        ASSERT_EQ(batch[i * k + j], row[j])
            << "sorted=" << sorted << " i=" << i << " j=" << j;
      }
    }
    ThreadPool pool(4);
    std::vector<double> parallel(s.size() * k);
    grid.BatchKnnDistances(k, parallel, &pool, sorted);
    EXPECT_EQ(batch, parallel) << "sorted=" << sorted;
  }

  grid.Remove(17);
  std::vector<std::uint32_t> queries;
  for (std::uint32_t i = 0; i < s.size(); ++i) {
    if (i != 17) queries.push_back(i);
  }
  std::vector<double> batch_for(queries.size() * k);
  grid.BatchKnnDistancesFor(queries, k, batch_for, nullptr);
  for (std::size_t r = 0; r < queries.size(); ++r) {
    grid.KnnDistances(queries[r], k, ws, row);
    for (std::size_t j = 0; j < k; ++j) {
      ASSERT_EQ(batch_for[r * k + j], row[j]) << "r=" << r << " j=" << j;
    }
  }
}

// The collapse predicate that widens the subsample cap's t range
// (good_radius.cc, EffectiveSubsampleCap).
TEST(SpatialGridTest, GridCollapsesToSingleCellAtHighDimension) {
  EXPECT_TRUE(GridCollapsesToSingleCell(4096, 64, 16));
  EXPECT_TRUE(GridCollapsesToSingleCell(4096, 32, 1499));
  EXPECT_FALSE(GridCollapsesToSingleCell(4096, 2, 16));
}

TEST(SpatialGridTest, KLargerThanNMinusOneIsClamped) {
  const GridDomain domain(16, 1);
  const PointSet s = MakePointSet(1, {0.25, 0.75});
  ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, 10));
  SpatialGrid::Workspace ws;
  std::vector<double> out;
  grid.KnnDistances(0, 10, ws, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Distance(s[0], s[1]));
  grid.KnnDistances(0, 0, ws, out);
  EXPECT_TRUE(out.empty());
}

TEST(SpatialGridTest, UnsortedModeReturnsTheSameMultiset) {
  Rng rng(104);
  const GridDomain domain(1u << 10, 3);
  PointSet s = testing_util::UniformCube(rng, 200, 3);
  domain.SnapAll(s);
  ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, 17));
  SpatialGrid::Workspace ws;
  std::vector<double> unsorted;
  for (std::size_t i = 0; i < s.size(); i += 13) {
    grid.KnnDistances(i, 17, ws, unsorted, /*sorted=*/false);
    std::sort(unsorted.begin(), unsorted.end());
    const std::vector<double> want = BruteForceKnn(s, i, 17);
    ASSERT_EQ(unsorted.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(unsorted[j], want[j]) << "query=" << i << " rank=" << j;
    }
  }
}

TEST(SpatialGridTest, BatchBitIdenticalAcrossThreadCounts) {
  Rng rng(105);
  const GridDomain domain(1u << 12, 2);
  PointSet s = testing_util::UniformCube(rng, 500, 2);
  domain.SnapAll(s);
  const std::size_t k = 31;
  ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, k));
  std::vector<double> serial(s.size() * k);
  grid.BatchKnnDistances(k, serial, nullptr);

  // The batch must equal the per-query path and be independent of threads.
  SpatialGrid::Workspace ws;
  std::vector<double> row;
  for (std::size_t i = 0; i < s.size(); ++i) {
    grid.KnnDistances(i, k, ws, row);
    for (std::size_t j = 0; j < k; ++j) {
      ASSERT_EQ(serial[i * k + j], row[j]) << "i=" << i << " j=" << j;
    }
  }
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<double> parallel(s.size() * k);
    grid.BatchKnnDistances(k, parallel, &pool);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dpcluster
