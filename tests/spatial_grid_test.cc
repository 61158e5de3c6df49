// Tests for geo/SpatialGrid: the ring gather must find exactly the
// brute-force k nearest distances — same doubles, bit for bit — for every
// data shape (uniform, duplicate-heavy, degenerate, boundary) and after
// removals. KthNearestDistance must return the k-th of them, and the
// superset rows the radius profile consumes must hold all of them plus only
// extras at or beyond the k-th, at any thread count. Radius counts and
// collections must match a brute-force sweep over the live points.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dpcluster/geo/spatial_grid.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/parallel/thread_pool.h"
#include "test_util.h"

namespace dpcluster {
namespace {

using testing_util::MakePointSet;

// Ascending brute-force distances from s[query] to every other live point.
std::vector<double> BruteForceLiveDistances(const PointSet& s,
                                            const SpatialGrid& grid,
                                            std::size_t query) {
  std::vector<double> dists;
  for (std::size_t j = 0; j < s.size(); ++j) {
    if (j == query || !grid.IsLive(j)) continue;
    dists.push_back(Distance(s[query], s[j]));
  }
  std::sort(dists.begin(), dists.end());
  return dists;
}

std::vector<std::uint32_t> LiveIds(const SpatialGrid& grid) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < grid.size(); ++i) {
    if (grid.IsLive(i)) ids.push_back(i);
  }
  return ids;
}

// KthNearestDistance(i, k) for every live i must be the k-th brute-force
// distance, bit for bit.
void ExpectKthNearest(const PointSet& s, const SpatialGrid& grid,
                      std::size_t k, const std::string& context) {
  SpatialGrid::Workspace ws;
  for (const std::uint32_t i : LiveIds(grid)) {
    const std::vector<double> want = BruteForceLiveDistances(s, grid, i);
    ASSERT_EQ(grid.KthNearestDistance(i, k, ws), want[k - 1])
        << context << " query=" << i;
  }
}

// BatchKnnSupersetFor over `queries` must give, per row: the exact k
// smallest live distances as its k smallest values (same doubles), extras
// only at or beyond the k-th, a length in [min(k, live-1), 2k] — and the
// same bytes at 1, 2 and 8 threads.
void ExpectSupersetRows(const PointSet& s, const SpatialGrid& grid,
                        std::span<const std::uint32_t> queries, std::size_t k,
                        const std::string& context) {
  SpatialGrid::KnnRows serial;
  grid.BatchKnnSupersetFor(queries, k, serial, nullptr);
  ASSERT_EQ(serial.offsets.size(), queries.size() + 1) << context;
  ASSERT_EQ(serial.offsets.back(), serial.values.size()) << context;
  for (std::size_t r = 0; r < queries.size(); ++r) {
    std::vector<double> row(
        serial.values.begin() + static_cast<std::ptrdiff_t>(serial.offsets[r]),
        serial.values.begin() +
            static_cast<std::ptrdiff_t>(serial.offsets[r + 1]));
    const std::vector<double> all =
        BruteForceLiveDistances(s, grid, queries[r]);
    const std::size_t want_k = std::min(k, all.size());
    ASSERT_GE(row.size(), want_k) << context << " row=" << r;
    ASSERT_LE(row.size(), SpatialGrid::kMaxSupersetSlack * k)
        << context << " row=" << r;
    std::sort(row.begin(), row.end());
    for (std::size_t j = 0; j < want_k; ++j) {
      ASSERT_EQ(row[j], all[j]) << context << " row=" << r << " rank=" << j;
    }
    for (std::size_t j = want_k; j < row.size(); ++j) {
      ASSERT_GE(row[j], all[want_k - 1])
          << context << " row=" << r << " extra=" << j;
    }
  }
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    SpatialGrid::KnnRows parallel;
    grid.BatchKnnSupersetFor(queries, k, parallel, &pool);
    EXPECT_EQ(serial.offsets, parallel.offsets)
        << context << " threads=" << threads;
    EXPECT_EQ(serial.values, parallel.values)
        << context << " threads=" << threads;
  }
}

// Both k-NN queries over every point of a fresh grid sized for k.
void ExpectMatchesBruteForce(const PointSet& s, const GridDomain& domain,
                             std::size_t k) {
  ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, k));
  const std::string context = "n=" + std::to_string(s.size()) + " d=" +
                              std::to_string(s.dim()) + " k=" +
                              std::to_string(k);
  ExpectKthNearest(s, grid, k, context);
  ExpectSupersetRows(s, grid, testing_util::AllIds(s.size()), k, context);
}

TEST(SpatialGridTest, RingSearchMatchesBruteForceAcrossShapes) {
  Rng rng(101);
  for (const std::size_t d : {1u, 2u, 3u, 8u}) {
    const GridDomain domain(1u << 10, d);
    for (const std::size_t n : {2u, 33u, 257u}) {
      PointSet s = testing_util::UniformCube(rng, n, d);
      domain.SnapAll(s);
      for (const std::size_t k : {std::size_t{1}, std::size_t{5}, n - 1}) {
        if (k > n - 1) continue;
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
  EXPECT_EQ(grid.KthNearestDistance(7, 1, ws), 0.0);
  EXPECT_EQ(grid.KthNearestDistance(7, 49, ws), 0.0);
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
  // The grid at high d collapses to one cell: every query scans the full
  // live prefix, and the superset batch runs the blocked dense pass.
  ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, k));
  EXPECT_EQ(grid.cells_per_axis(), 1u);
  ExpectMatchesBruteForce(s, domain, k);

  grid.Remove(17);
  ExpectKthNearest(s, grid, k, "after removal");
  ExpectSupersetRows(s, grid, LiveIds(grid), k, "after removal");
}

// Removed rows are never neighbors, counted or collected: after deleting a
// scattered third, every query over a live id answers like brute force over
// the live points.
TEST(SpatialGridTest, QueriesSkipRemovedRows) {
  Rng rng(104);
  for (const std::size_t d : {2u, 32u}) {
    const GridDomain domain(1u << 10, d);
    PointSet s = testing_util::UniformCube(rng, 240, d);
    domain.SnapAll(s);
    ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, 16));
    for (std::size_t i = 0; i < s.size(); i += 3) grid.Remove(i);
    const std::vector<std::uint32_t> live = LiveIds(grid);
    for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                live.size() - 1}) {
      ExpectKthNearest(s, grid, k, "d=" + std::to_string(d));
    }
    SpatialGrid::Workspace ws;
    std::vector<std::uint32_t> collected;
    for (const double r : {0.0, 0.05, 0.2, 0.7, 2.0, 6.0}) {
      for (const std::uint32_t i : live) {
        std::vector<std::uint32_t> want;
        for (const std::uint32_t j : live) {
          if (Distance(s[i], s[j]) <= r) want.push_back(j);
        }
        EXPECT_EQ(grid.CountWithin(i, r, ws), want.size())
            << "d=" << d << " r=" << r << " query=" << i;
        collected.clear();
        grid.CollectWithin(i, r, ws, collected);
        std::sort(collected.begin(), collected.end());
        EXPECT_EQ(collected, want) << "d=" << d << " r=" << r
                                   << " query=" << i;
      }
    }
  }
}

TEST(SpatialGridSupersetTest, HoldsExactKnnAcrossShapesAndThreads) {
  Rng rng(106);
  for (const std::size_t d : {1u, 2u, 3u, 8u, 32u}) {
    const GridDomain domain(1u << 10, d);
    for (const std::size_t n : {2u, 65u, 400u}) {
      PointSet s = testing_util::UniformCube(rng, n, d);
      domain.SnapAll(s);
      for (const std::size_t k : {std::size_t{1}, std::size_t{7}, n / 3,
                                  n - 1}) {
        if (k == 0 || k > n - 1) continue;
        // Grids sized for a larger and a smaller neighbor count than asked.
        for (const std::size_t sized_for : {k, 4 * k + 16}) {
          ASSERT_OK_AND_ASSIGN(SpatialGrid grid,
                               SpatialGrid::Build(s, domain, sized_for));
          ExpectSupersetRows(s, grid, testing_util::AllIds(n), k,
                             "d=" + std::to_string(d) + " n=" +
                                 std::to_string(n) + " k=" +
                                 std::to_string(k) + " sized_for=" +
                                 std::to_string(sized_for));
        }
      }
    }
  }
}

TEST(SpatialGridSupersetTest, RemovedRowsAreNeverNeighbors) {
  Rng rng(107);
  for (const std::size_t d : {2u, 32u}) {
    const GridDomain domain(1u << 10, d);
    PointSet s = testing_util::UniformCube(rng, 300, d);
    domain.SnapAll(s);
    ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, 200));
    for (std::size_t i = 0; i < s.size(); i += 3) grid.Remove(i);
    const std::vector<std::uint32_t> live = LiveIds(grid);
    for (const std::size_t k : {std::size_t{1}, std::size_t{40},
                                live.size() - 1}) {
      ExpectSupersetRows(s, grid, live, k,
                         "d=" + std::to_string(d) + " k=" + std::to_string(k));
    }
  }
}

TEST(SpatialGridSupersetTest, AllDuplicatesGiveZeroRows) {
  // Every distance is 0, so the ring guarantee at rho = 0 (squared bound 0)
  // already holds k candidates.
  const GridDomain domain(16, 2);
  PointSet s(2);
  const std::vector<double> p = {0.5, 0.5};
  for (int i = 0; i < 60; ++i) s.Add(p);
  for (const std::size_t sized_for : {std::size_t{1}, std::size_t{59}}) {
    ASSERT_OK_AND_ASSIGN(SpatialGrid grid,
                         SpatialGrid::Build(s, domain, sized_for));
    for (const std::size_t k : {1u, 10u, 59u}) {
      ExpectSupersetRows(s, grid, testing_util::AllIds(s.size()), k,
                         "k=" + std::to_string(k));
    }
  }
}

TEST(SpatialGridSupersetTest, SubnormalDistancesInATinyCube) {
  // A cube 1e-160 wide: squared distances are subnormal, so the histogram's
  // scale (buckets / largest squared distance) overflows to infinity.
  Rng rng(109);
  const GridDomain domain(1u << 10, 2, 1e-160);
  PointSet s = testing_util::UniformCube(rng, 120, 2);
  for (double& x : s.MutableData()) x *= 1e-160;
  domain.SnapAll(s);
  for (const std::size_t sized_for : {std::size_t{1}, std::size_t{119}}) {
    ASSERT_OK_AND_ASSIGN(SpatialGrid grid,
                         SpatialGrid::Build(s, domain, sized_for));
    for (const std::size_t k : {1u, 9u, 60u, 119u}) {
      ExpectSupersetRows(s, grid, testing_util::AllIds(s.size()), k,
                         "k=" + std::to_string(k));
    }
  }
}

TEST(SpatialGridSupersetTest, LatticeTiesOnBucketEdges) {
  // Integer-lattice coordinates: squared distances are integer multiples of
  // one step, so many candidates tie exactly and land on histogram bucket
  // edges, and crowded tie buckets take the exact-selection path.
  Rng rng(108);
  for (const std::uint64_t levels : {std::uint64_t{3}, std::uint64_t{9}}) {
    const GridDomain domain(levels, 2);
    PointSet s = testing_util::UniformCube(rng, 250, 2);
    domain.SnapAll(s);
    for (const std::size_t sized_for : {std::size_t{4}, std::size_t{249}}) {
      ASSERT_OK_AND_ASSIGN(SpatialGrid grid,
                           SpatialGrid::Build(s, domain, sized_for));
      for (const std::size_t k : {1u, 5u, 31u, 100u, 249u}) {
        ExpectSupersetRows(s, grid, testing_util::AllIds(s.size()), k,
                           "levels=" + std::to_string(levels) + " k=" +
                               std::to_string(k));
      }
    }
  }
}

}  // namespace
}  // namespace dpcluster
