// Tests for the IndexedDataset layer (geo/dataset.h): active-set accounting,
// structural deletion on the cached SpatialGrid, Snapshot/Restore, and the
// exactness contract — every query over the active points must be
// bit-identical to rebuilding a fresh index over ActiveView().

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/pairwise.h"
#include "dpcluster/geo/spatial_grid.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/parallel/thread_pool.h"
#include "test_util.h"

namespace dpcluster {
namespace {

using testing_util::MakePointSet;

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
  std::vector<double> knn(64 * 3);
  index.BatchKnn(3, knn, nullptr);

  const IndexedDataset::Snapshot full = index.TakeSnapshot();
  index.Remove(EveryThird(64));
  const std::size_t after_removal = index.active_size();
  ASSERT_LT(after_removal, 64u);
  const IndexedDataset::Snapshot partial = index.TakeSnapshot();

  index.RestoreAll();
  EXPECT_EQ(index.active_size(), 64u);
  std::vector<double> knn_restored(64 * 3);
  index.BatchKnn(3, knn_restored, nullptr);
  EXPECT_EQ(knn, knn_restored);  // Bit-identical to the pre-removal batch.

  ASSERT_OK(index.Restore(partial));
  EXPECT_EQ(index.active_size(), after_removal);
  ASSERT_OK(index.Restore(full));
  EXPECT_EQ(index.active_size(), 64u);

  // A snapshot from a different dataset is rejected.
  Rng other_rng(3);
  IndexedDataset other = MakeIndexed(other_rng, 10, 2);
  EXPECT_FALSE(index.Restore(other.TakeSnapshot()).ok());
}

// The core exactness contract: after any deletion pattern, BatchKnn over the
// active points equals a fresh SpatialGrid built from ActiveView — same
// bytes — across dimensions (high d exercises the occupied-scan fallback)
// and thread counts.
TEST(IndexedDatasetTest, KnnAfterRemovalMatchesFreshRebuild) {
  std::uint64_t seed = 100;
  for (const auto& [n, dim] : std::vector<std::pair<std::size_t, std::size_t>>{
           {80, 1}, {150, 2}, {200, 3}, {120, 32}}) {
    Rng rng(++seed);
    IndexedDataset index = MakeIndexed(rng, n, dim);
    // Warm the grid with full data, then delete a third.
    std::vector<double> warm(n * 2);
    index.BatchKnn(2, warm, nullptr);
    index.Remove(EveryThird(n));

    const PointSet view = index.ActiveView();
    const std::size_t m = index.active_size();
    for (const std::size_t k : {std::size_t{1}, std::size_t{5}, m - 1}) {
      ASSERT_OK_AND_ASSIGN(SpatialGrid fresh,
                           SpatialGrid::Build(view, index.domain(), k));
      std::vector<double> got(m * k);
      std::vector<double> want(m * k);
      fresh.BatchKnnDistances(k, want, nullptr, /*sorted=*/true);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ThreadPool pool(threads);
        index.BatchKnn(k, got, &pool, /*sorted=*/true);
        EXPECT_EQ(got, want) << "n=" << n << " d=" << dim << " k=" << k
                             << " threads=" << threads;
      }
    }
  }
}

TEST(IndexedDatasetTest, BatchCountWithinMatchesBruteForce) {
  Rng rng(5);
  IndexedDataset index = MakeIndexed(rng, 180, 2);
  index.Remove(EveryThird(180));
  const PointSet view = index.ActiveView();
  const std::size_t m = index.active_size();
  for (const double r : {0.0, 0.05, 0.2, 0.7, 2.0}) {
    std::vector<std::size_t> got(m);
    index.BatchCountWithin(r, got, nullptr);
    for (std::size_t i = 0; i < m; ++i) {
      std::size_t want = 0;
      for (std::size_t j = 0; j < m; ++j) {
        if (Distance(view[i], view[j]) <= r) ++want;
      }
      EXPECT_EQ(got[i], want) << "r=" << r << " i=" << i;
    }
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

// KnnCappedCounts must agree with the PairwiseDistances matrix it replaces:
// identical CappedTopAverage at every queried radius (the two backends narrow
// their distances to float with the same inclusive rounding).
TEST(KnnCappedCountsTest, CappedTopAverageMatchesPairwiseMatrix) {
  std::uint64_t seed = 40;
  for (const auto& [n, dim] : std::vector<std::pair<std::size_t, std::size_t>>{
           {60, 1}, {120, 2}, {90, 5}}) {
    Rng rng(++seed);
    const GridDomain domain(1u << 8, dim);
    PointSet s = testing_util::UniformCube(rng, n, dim);
    domain.SnapAll(s);
    ASSERT_OK_AND_ASSIGN(PairwiseDistances matrix,
                         PairwiseDistances::Compute(s, n));
    ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                         IndexedDataset::Create(s, domain));
    for (const std::size_t t : {std::size_t{1}, std::size_t{2}, n / 8, n / 2}) {
      ASSERT_OK_AND_ASSIGN(KnnCappedCounts counts,
                           KnnCappedCounts::Build(index, t, n));
      for (std::uint64_t g = 0; g < domain.RadiusGridSize(); g += 97) {
        const double r = domain.RadiusFromIndex(g);
        EXPECT_EQ(counts.CappedTopAverage(r, t), matrix.CappedTopAverage(r, t))
            << "n=" << n << " d=" << dim << " t=" << t << " g=" << g;
      }
    }
  }
}

TEST(KnnCappedCountsTest, CountsSaturateAndIncludeDuplicates) {
  // Five duplicates and one far point, as in the pairwise tests.
  const GridDomain domain(16, 1);
  const PointSet s = MakePointSet(1, {0.5, 0.5, 0.5, 0.5, 0.5, 1.0});
  ASSERT_OK_AND_ASSIGN(IndexedDataset index, IndexedDataset::Create(s, domain));
  ASSERT_OK_AND_ASSIGN(KnnCappedCounts counts,
                       KnnCappedCounts::Build(index, 4, 10));
  // At r=0 the duplicates see 5 points, capped at 4; the far point sees 1.
  EXPECT_EQ(counts.CountWithinCapped(0, 0.0), 4u);
  EXPECT_EQ(counts.CountWithinCapped(5, 0.0), 1u);
  EXPECT_DOUBLE_EQ(counts.CappedTopAverage(0.0, 4), 4.0);
  // Negative radius counts nothing.
  EXPECT_EQ(counts.CountWithinCapped(0, -1.0), 0u);
  // A radius covering everything saturates every count.
  EXPECT_DOUBLE_EQ(counts.CappedTopAverage(1.0, 4), 4.0);
}

TEST(KnnCappedCountsTest, RespectsMaxPointsCap) {
  Rng rng(8);
  IndexedDataset index = MakeIndexed(rng, 20, 2);
  EXPECT_EQ(KnnCappedCounts::Build(index, 4, 10).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_FALSE(KnnCappedCounts::Build(index, 0, 100).ok());
  EXPECT_FALSE(KnnCappedCounts::Build(index, 21, 100).ok());
  EXPECT_OK(KnnCappedCounts::Build(index, 20, 100).status());
}

// After deletions, the capped counts must equal a PairwiseDistances matrix
// built over the surviving points — the contract KCluster's SparseVector
// rounds rely on.
TEST(KnnCappedCountsTest, AgreesWithMatrixAfterRemoval) {
  Rng rng(9);
  IndexedDataset index = MakeIndexed(rng, 140, 2);
  index.Remove(EveryThird(140));
  const PointSet view = index.ActiveView();
  const std::size_t m = index.active_size();
  ASSERT_OK_AND_ASSIGN(PairwiseDistances matrix,
                       PairwiseDistances::Compute(view, m));
  const std::size_t t = m / 6;
  ASSERT_OK_AND_ASSIGN(KnnCappedCounts counts,
                       KnnCappedCounts::Build(index, t, m));
  for (std::uint64_t g = 0; g < index.domain().RadiusGridSize(); g += 61) {
    const double r = index.domain().RadiusFromIndex(g);
    EXPECT_EQ(counts.CappedTopAverage(r, t), matrix.CappedTopAverage(r, t))
        << "g=" << g;
  }
}

// Structural insertion: after interleaved Insert / Remove / Snapshot /
// Restore, every query must still equal a fresh grid built over ActiveView —
// same bytes, any thread count (the other half of the deletion contract).
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
    std::vector<double> warm(n0 * 2);
    index.BatchKnn(2, warm, nullptr);
    ASSERT_TRUE(index.grid_built());

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

    const PointSet view = index.ActiveView();
    const std::size_t m = index.active_size();
    for (const std::size_t k : {std::size_t{1}, std::size_t{4}, m - 1}) {
      ASSERT_OK_AND_ASSIGN(SpatialGrid fresh,
                           SpatialGrid::Build(view, domain, k));
      std::vector<double> want(m * k);
      fresh.BatchKnnDistances(k, want, nullptr, /*sorted=*/true);
      std::vector<double> got(m * k);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ThreadPool pool(threads);
        index.BatchKnn(k, got, &pool, /*sorted=*/true);
        EXPECT_EQ(got, want) << "n=" << n << " d=" << dim << " k=" << k
                             << " threads=" << threads;
      }
    }
    // Counting queries agree with brute force over the view too.
    std::vector<std::size_t> counts(m);
    index.BatchCountWithin(0.2, counts, nullptr);
    for (std::size_t i = 0; i < m; ++i) {
      std::size_t want = 0;
      for (std::size_t j = 0; j < m; ++j) {
        if (Distance(view[i], view[j]) <= 0.2) ++want;
      }
      EXPECT_EQ(counts[i], want) << "i=" << i;
    }
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
  std::vector<double> warm(80 * 2);
  index.BatchKnn(2, warm, nullptr);
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
  const std::size_t m = index.active_size();
  std::vector<double> got(m * 3);
  std::vector<double> want(m * 3);
  index.BatchKnn(3, got, nullptr);
  ASSERT_OK_AND_ASSIGN(SpatialGrid fresh, SpatialGrid::Build(before,
                                                             index.domain(), 3));
  fresh.BatchKnnDistances(3, want, nullptr, /*sorted=*/true);
  EXPECT_EQ(got, want);
  // Snapshots from before the renumbering no longer apply.
  EXPECT_FALSE(index.Restore(stale).ok());
}

// Streaming maintenance of the t-NN rows: after a batch of edits,
// ApplyBatch must leave the structure answering exactly like a fresh Build
// over the new active set, at any thread count, while recomputing only a
// subset of the surviving rows.
TEST(KnnCappedCountsTest, ApplyBatchMatchesFreshBuild) {
  std::uint64_t seed = 300;
  for (const auto& [n, dim] : std::vector<std::pair<std::size_t, std::size_t>>{
           {120, 2}, {90, 3}}) {
    Rng rng(++seed);
    const GridDomain domain(1u << 8, dim);
    PointSet all = testing_util::UniformCube(rng, n, dim);
    domain.SnapAll(all);
    const std::size_t n0 = (3 * n) / 4;
    PointSet head(dim);
    for (std::size_t i = 0; i < n0; ++i) head.Add(all[i]);
    ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                         IndexedDataset::Create(std::move(head), domain));
    const std::size_t t = n0 / 8;
    ASSERT_OK_AND_ASSIGN(KnnCappedCounts counts,
                         KnnCappedCounts::Build(index, t, n));

    // Three rounds of mixed edits, rows patched after each round.
    std::size_t next = n0;
    std::uint32_t victim = 1;
    for (int round = 0; round < 3; ++round) {
      std::vector<std::uint32_t> added;
      std::vector<std::uint32_t> removed;
      for (std::size_t a = 0; a < n / 10 && next < n; ++a) {
        ASSERT_OK_AND_ASSIGN(const std::size_t id, index.Insert(all[next]));
        added.push_back(static_cast<std::uint32_t>(id));
        ++next;
      }
      for (std::size_t d2 = 0; d2 < n / 16; ++d2, victim += 7) {
        while (!index.IsActive(victim % n0)) ++victim;
        removed.push_back(victim % n0);
        index.Remove(static_cast<std::size_t>(victim % n0));
      }
      ThreadPool pool(round + 1);
      ASSERT_OK(counts.ApplyBatch(index, added, removed, &pool));
      EXPECT_LE(counts.last_invalidated(), index.active_size());

      ASSERT_OK_AND_ASSIGN(KnnCappedCounts fresh,
                           KnnCappedCounts::Build(index, t, n));
      ASSERT_EQ(counts.size(), fresh.size());
      for (std::uint64_t g = 0; g < domain.RadiusGridSize(); g += 53) {
        const double r = domain.RadiusFromIndex(g);
        for (std::size_t rank = 0; rank < counts.size(); rank += 3) {
          ASSERT_EQ(counts.CountWithinCapped(rank, r),
                    fresh.CountWithinCapped(rank, r))
              << "round=" << round << " g=" << g << " rank=" << rank;
        }
        ASSERT_EQ(counts.CappedTopAverage(r, t), fresh.CappedTopAverage(r, t))
            << "round=" << round << " g=" << g;
      }
    }
  }
}

TEST(KnnCappedCountsTest, ApplyBatchRejectsInconsistentEdits) {
  Rng rng(31);
  IndexedDataset index = MakeIndexed(rng, 60, 2);
  ASSERT_OK_AND_ASSIGN(KnnCappedCounts counts,
                       KnnCappedCounts::Build(index, 6, 60));
  // Nothing changed but edits claimed: rejected.
  const std::vector<std::uint32_t> phantom{3};
  EXPECT_FALSE(counts.ApplyBatch(index, {}, phantom).ok());
  EXPECT_FALSE(counts.ApplyBatch(index, phantom, {}).ok());
  // A no-op batch is fine.
  EXPECT_OK(counts.ApplyBatch(index, {}, {}));
  // Removing below cap: rejected (rebuild with a smaller cap instead).
  std::vector<std::uint32_t> most;
  for (std::uint32_t i = 0; i < 56; ++i) most.push_back(i);
  index.Remove(most);
  EXPECT_FALSE(counts.ApplyBatch(index, {}, most).ok());
}

}  // namespace
}  // namespace dpcluster
