// Tests for the IndexedDataset layer (geo/dataset.h): active-set accounting,
// structural deletion on the cached SpatialGrid, Snapshot/Restore, and the
// exactness contract — after any mutation, the cached grid's k-NN rows and
// counts equal brute force over ActiveView(), and the radius profile built
// through the index is bit-identical to one built over a fresh index of
// ActiveView(), at 1 and 8 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "dpcluster/core/radius_profile.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/spatial_grid.h"
#include "dpcluster/parallel/thread_pool.h"
#include "reference/pairwise_reference.h"
#include "test_util.h"

namespace dpcluster {
namespace {

using testing_util::MakePointSet;
using testing_util::SortedKnnRows;

IndexedDataset MakeIndexed(Rng& rng, std::size_t n, std::size_t dim,
                           std::uint64_t levels = 1u << 8) {
  const GridDomain domain(levels, dim);
  PointSet s = testing_util::UniformCube(rng, n, dim);
  domain.SnapAll(s);
  auto index = IndexedDataset::Create(std::move(s), domain);
  EXPECT_OK(index.status());
  return std::move(*index);
}

// Removes every index = 0 mod 3 (a deterministic, scattered third).
std::vector<std::uint32_t> EveryThird(std::size_t n) {
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < n; i += 3) {
    ids.push_back(static_cast<std::uint32_t>(i));
  }
  return ids;
}

// The exactness contract over the current active set, at 1 and 8 threads:
// for each k, the index's exact k-NN rows equal brute force over
// ActiveView(), KthNearestDistance agrees with the k-th column, and the
// radius profile at t = k + 1 equals the one a fresh index over ActiveView()
// builds.
void ExpectMatchesFreshRebuild(const IndexedDataset& index,
                               std::span<const std::size_t> ks,
                               const std::string& context) {
  const PointSet view = index.ActiveView();
  const reference::PairwiseRows pairs(view);
  ASSERT_OK_AND_ASSIGN(IndexedDataset fresh,
                       IndexedDataset::Create(view, index.domain()));
  const std::span<const std::uint32_t> ids = index.ActiveIds();
  SpatialGrid::Workspace ws;
  for (const std::size_t k : ks) {
    const std::string at = context + " k=" + std::to_string(k);
    const std::vector<double> want = pairs.NearestRows(k);
    for (std::size_t r = 0; r < ids.size(); ++r) {
      ASSERT_EQ(index.EnsureGrid(k).KthNearestDistance(ids[r], k, ws),
                want[r * k + k - 1])
          << at << " row=" << r;
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      ThreadPool pool(threads);
      EXPECT_EQ(SortedKnnRows(index, k, &pool), want)
          << at << " threads=" << threads;
      ASSERT_OK_AND_ASSIGN(
          RadiusProfile via_index,
          RadiusProfile::Build(index, k + 1, index.size(), &pool));
      ASSERT_OK_AND_ASSIGN(
          RadiusProfile via_fresh,
          RadiusProfile::Build(fresh, k + 1, index.size(), &pool));
      testing_util::ExpectSameProfile(
          via_index, via_fresh, at + " threads=" + std::to_string(threads));
    }
  }
}

// SpatialGrid::CountWithin per active id equals brute force over
// ActiveView().
void ExpectCountsMatchBruteForce(const IndexedDataset& index, double r) {
  const PointSet view = index.ActiveView();
  const reference::PairwiseRows pairs(view);
  const SpatialGrid& grid = index.EnsureGrid(16);
  const std::span<const std::uint32_t> ids = index.ActiveIds();
  SpatialGrid::Workspace ws;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(grid.CountWithin(ids[i], r, ws), pairs.CountWithin(i, r))
        << "r=" << r << " i=" << i;
  }
}

TEST(IndexedDatasetTest, CreateValidatesDimensions) {
  const GridDomain domain(16, 2);
  EXPECT_FALSE(
      IndexedDataset::Create(MakePointSet(1, {0.5}), domain).ok());
  EXPECT_OK(
      IndexedDataset::Create(MakePointSet(2, {0.5, 0.5}), domain).status());
}

TEST(IndexedDatasetTest, ActiveAccounting) {
  Rng rng(1);
  IndexedDataset index = MakeIndexed(rng, 30, 2);
  EXPECT_EQ(index.size(), 30u);
  EXPECT_EQ(index.active_size(), 30u);
  EXPECT_EQ(index.ActiveIds().size(), 30u);

  index.Remove(std::size_t{7});
  index.Remove(std::size_t{0});
  EXPECT_EQ(index.active_size(), 28u);
  EXPECT_FALSE(index.IsActive(7));
  EXPECT_TRUE(index.IsActive(1));

  // ActiveIds stays ascending and skips exactly the removed rows.
  const auto ids = index.ActiveIds();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(ids.front(), 1u);
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 7u) == ids.end());

  // ActiveView materializes the same rows PointSet::Subset would.
  const PointSet view = index.ActiveView();
  ASSERT_EQ(view.size(), 28u);
  std::vector<std::size_t> expect_ids(ids.begin(), ids.end());
  const PointSet subset = index.points().Subset(expect_ids);
  for (std::size_t r = 0; r < view.size(); ++r) {
    const auto a = view[r];
    const auto b = subset[r];
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "row=" << r;
  }
}

TEST(IndexedDatasetTest, SnapshotRestoreRoundTrips) {
  Rng rng(2);
  IndexedDataset index = MakeIndexed(rng, 64, 2);
  // Build the grid before mutating so Restore must repair it too.
  const std::vector<double> knn = SortedKnnRows(index, 3, nullptr);

  const IndexedDataset::Snapshot full = index.TakeSnapshot();
  index.Remove(EveryThird(64));
  const std::size_t after_removal = index.active_size();
  ASSERT_LT(after_removal, 64u);
  const IndexedDataset::Snapshot partial = index.TakeSnapshot();

  index.RestoreAll();
  EXPECT_EQ(index.active_size(), 64u);
  // Bit-identical to the pre-removal rows.
  EXPECT_EQ(SortedKnnRows(index, 3, nullptr), knn);

  ASSERT_OK(index.Restore(partial));
  EXPECT_EQ(index.active_size(), after_removal);
  ASSERT_OK(index.Restore(full));
  EXPECT_EQ(index.active_size(), 64u);

  // A snapshot from a different dataset is rejected.
  Rng other_rng(3);
  IndexedDataset other = MakeIndexed(other_rng, 10, 2);
  EXPECT_FALSE(index.Restore(other.TakeSnapshot()).ok());
}

// The core exactness contract after any deletion pattern, across dimensions
// (high d exercises the occupied-scan fallback and the dense batch).
TEST(IndexedDatasetTest, KnnAfterRemovalMatchesFreshRebuild) {
  std::uint64_t seed = 100;
  for (const auto& [n, dim] : std::vector<std::pair<std::size_t, std::size_t>>{
           {80, 1}, {150, 2}, {200, 3}, {120, 32}}) {
    Rng rng(++seed);
    IndexedDataset index = MakeIndexed(rng, n, dim);
    // Build the grid over the full data, then delete a third.
    index.EnsureGrid(2);
    index.Remove(EveryThird(n));
    const std::size_t m = index.active_size();
    const std::size_t ks[] = {1, 5, m - 1};
    ExpectMatchesFreshRebuild(index, ks,
                              "n=" + std::to_string(n) +
                                  " d=" + std::to_string(dim));
  }
}

TEST(IndexedDatasetTest, CountWithinMatchesBruteForce) {
  Rng rng(5);
  IndexedDataset index = MakeIndexed(rng, 180, 2);
  index.Remove(EveryThird(180));
  for (const double r : {0.0, 0.05, 0.2, 0.7, 2.0}) {
    ExpectCountsMatchBruteForce(index, r);
  }
}

TEST(IndexedDatasetTest, RemoveWithinMatchesBallContains) {
  Rng rng(6);
  IndexedDataset index = MakeIndexed(rng, 200, 2);
  Ball ball;
  ball.center = {0.5, 0.5};
  ball.radius = 0.25;
  std::size_t expect = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    if (ball.Contains(index.points()[i])) ++expect;
  }
  EXPECT_EQ(index.RemoveWithin(ball), expect);
  EXPECT_EQ(index.active_size(), 200u - expect);
  for (const std::uint32_t id : index.ActiveIds()) {
    EXPECT_FALSE(ball.Contains(index.points()[id]));
  }
  // Idempotent: nothing left to remove.
  EXPECT_EQ(index.RemoveWithin(ball), 0u);
}

// Structural insertion: after interleaved Insert / Remove / Snapshot /
// Restore, the index must still answer like brute force over ActiveView and
// build the profile a fresh index builds — same bytes, any thread count (the
// other half of the deletion contract).
TEST(IndexedDatasetTest, InsertMatchesFreshRebuild) {
  std::uint64_t seed = 200;
  for (const auto& [n, dim] : std::vector<std::pair<std::size_t, std::size_t>>{
           {90, 1}, {160, 2}, {120, 3}, {100, 32}}) {
    Rng rng(++seed);
    const GridDomain domain(1u << 8, dim);
    PointSet all = testing_util::UniformCube(rng, n, dim);
    domain.SnapAll(all);

    // Start from the first two thirds, warm the grid, then stream edits.
    const std::size_t n0 = (2 * n) / 3;
    PointSet head(dim);
    for (std::size_t i = 0; i < n0; ++i) head.Add(all[i]);
    ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                         IndexedDataset::Create(std::move(head), domain));
    index.EnsureGrid(2);

    const IndexedDataset::Snapshot snap = index.TakeSnapshot();
    index.Remove(EveryThird(n0));
    for (std::size_t i = n0; i < n; ++i) {
      ASSERT_OK_AND_ASSIGN(const std::size_t id, index.Insert(all[i]));
      EXPECT_EQ(id, i);
    }
    // Rewind the head removals; the streamed-in tail stays active.
    ASSERT_OK(index.Restore(snap));
    EXPECT_EQ(index.active_size(), n);
    index.Remove(EveryThird(n0));
    // The grid survived the whole interleaving without a rebuild.
    EXPECT_TRUE(index.grid_built());

    const std::size_t m = index.active_size();
    const std::size_t ks[] = {1, 4, m - 1};
    ExpectMatchesFreshRebuild(index, ks,
                              "n=" + std::to_string(n) +
                                  " d=" + std::to_string(dim));
    ExpectCountsMatchBruteForce(index, 0.2);
  }
}

TEST(IndexedDatasetTest, InsertValidatesItsArguments) {
  Rng rng(20);
  IndexedDataset index = MakeIndexed(rng, 30, 2);
  const std::vector<double> bad_dim{0.5};
  EXPECT_FALSE(index.Insert(bad_dim).ok());
  const std::vector<double> outside{0.5, 1.5};
  EXPECT_FALSE(index.Insert(outside).ok());
  const std::vector<double> zero_weight{0.5, 0.5};
  EXPECT_FALSE(index.Insert(zero_weight, 0).ok());
  EXPECT_EQ(index.size(), 30u);

  // A weighted insert into an unweighted dataset materializes all-ones.
  EXPECT_FALSE(index.weighted());
  ASSERT_OK_AND_ASSIGN(const std::size_t id, index.Insert(zero_weight, 3));
  EXPECT_EQ(id, 30u);
  EXPECT_TRUE(index.weighted());
  EXPECT_EQ(index.weight(0), 1u);
  EXPECT_EQ(index.weight(30), 3u);
  EXPECT_EQ(index.active_mass(), 33u);
  EXPECT_EQ(index.total_mass(), 33u);
}

TEST(IndexedDatasetTest, CompactRenumbersActiveRows) {
  Rng rng(21);
  IndexedDataset index = MakeIndexed(rng, 80, 2);
  index.EnsureGrid(2);
  index.Remove(EveryThird(80));
  const PointSet before = index.ActiveView();
  const IndexedDataset::Snapshot stale = index.TakeSnapshot();

  const std::vector<std::uint32_t> old_ids = index.Compact();
  EXPECT_EQ(index.size(), index.active_size());
  EXPECT_EQ(index.active_size(), before.size());
  ASSERT_EQ(old_ids.size(), before.size());
  EXPECT_TRUE(std::is_sorted(old_ids.begin(), old_ids.end()));
  // Row new_id holds the bytes old row old_ids[new_id] held.
  for (std::size_t i = 0; i < before.size(); ++i) {
    const auto got = index.points()[i];
    const auto want = before[i];
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin())) << i;
  }
  // Queries over the compacted storage equal the pre-compaction view.
  EXPECT_EQ(SortedKnnRows(index, 3, nullptr),
            reference::PairwiseRows(before).NearestRows(3));
  // Snapshots from before the renumbering no longer apply.
  EXPECT_FALSE(index.Restore(stale).ok());
}

}  // namespace
}  // namespace dpcluster
