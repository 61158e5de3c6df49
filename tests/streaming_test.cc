// Streaming-maintenance property tests: the tentpole contract of the
// incremental index. For every registered scenario family, an IndexedDataset
// that absorbed a stream of Inserts and Removes must answer every query
// what a from-scratch rebuild over its active rows answers — exact k-NN
// rows and counts, and the same radius profile bytes at 1, 2 and 8 threads —
// and GoodRadius over the churned index must release the bytes a
// rebuild-per-batch pipeline produces, with either engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dpcluster/core/good_radius.h"
#include "dpcluster/core/radius_profile.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/data/scenario.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/spatial_grid.h"
#include "dpcluster/parallel/thread_pool.h"
#include "reference/pairwise_reference.h"
#include "test_util.h"

namespace dpcluster {
namespace {

// Streams the tail of `instance` into an index seeded with its head while
// expiring a scattered subset of the head — the arrival/expiry churn the
// service's /v1/stream endpoints produce. Returns the edited index.
IndexedDataset ChurnedIndex(const ScenarioInstance& instance,
                            std::vector<std::uint32_t>* added,
                            std::vector<std::uint32_t>* removed) {
  const std::size_t n = instance.points.size();
  const std::size_t n0 = (2 * n) / 3;
  PointSet head(instance.points.dim());
  for (std::size_t i = 0; i < n0; ++i) head.Add(instance.points[i]);
  auto created = IndexedDataset::Create(std::move(head), instance.domain);
  EXPECT_OK(created.status());
  IndexedDataset index = std::move(*created);
  // Build the grid first so every edit exercises the incremental path.
  index.EnsureGrid(1);

  for (std::size_t i = 0; i < n0; i += 5) {
    index.Remove(i);
    if (removed != nullptr) {
      removed->push_back(static_cast<std::uint32_t>(i));
    }
  }
  for (std::size_t i = n0; i < n; ++i) {
    auto id = index.Insert(instance.points[i]);
    EXPECT_OK(id.status());
    if (added != nullptr) added->push_back(static_cast<std::uint32_t>(*id));
  }
  EXPECT_TRUE(index.grid_built());  // Exact geometry: no rebuild happened.
  return index;
}

class EveryFamilyStreamingTest : public ::testing::TestWithParam<std::string> {
};

// The property test the tentpole is pinned by: insert/expire churn over each
// family's geometry, then bit-identity against a fresh rebuild at 1/2/8
// threads.
TEST_P(EveryFamilyStreamingTest, ChurnMatchesFreshRebuild) {
  ScenarioSpec spec;
  spec.scenario = GetParam();
  spec.n = 240;
  spec.dim = 2;
  spec.levels = std::uint64_t{1} << 10;
  Rng rng(91);
  ASSERT_OK_AND_ASSIGN(ScenarioInstance instance, GenerateScenario(rng, spec));

  IndexedDataset index = ChurnedIndex(instance, nullptr, nullptr);
  const PointSet view = index.ActiveView();
  const reference::PairwiseRows pairs(view);
  const std::size_t k = 6;
  ASSERT_OK_AND_ASSIGN(IndexedDataset fresh,
                       IndexedDataset::Create(view, instance.domain));
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(testing_util::SortedKnnRows(index, k, &pool),
              pairs.NearestRows(k))
        << "threads=" << threads;
    for (const std::size_t t : {k + 1, view.size() / 2}) {
      ASSERT_OK_AND_ASSIGN(RadiusProfile via_index,
                           RadiusProfile::Build(index, t, index.size(), &pool));
      ASSERT_OK_AND_ASSIGN(RadiusProfile via_fresh,
                           RadiusProfile::Build(fresh, t, index.size(), &pool));
      testing_util::ExpectSameProfile(
          via_index, via_fresh,
          "t=" + std::to_string(t) + " threads=" + std::to_string(threads));
    }
  }

  // Counting queries too: brute force over the view is the reference.
  const SpatialGrid& grid = index.EnsureGrid(k);
  const std::span<const std::uint32_t> ids = index.ActiveIds();
  SpatialGrid::Workspace ws;
  const double r = instance.primary().radius;
  for (std::size_t i = 0; i < ids.size(); i += 7) {
    EXPECT_EQ(grid.CountWithin(ids[i], r, ws), pairs.CountWithin(i, r))
        << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, EveryFamilyStreamingTest,
    ::testing::ValuesIn(ScenarioRegistry::Global().Names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// The streaming family's schedule contract: replaying its arrivals and
// expiries through an incremental IndexedDataset must end in exactly the
// instance's points — the survivors in arrival order — with queries
// byte-identical to indexing the final state directly.
TEST(StreamingScenarioTest, ScheduleReplayReproducesTheInstance) {
  ScenarioSpec spec;
  spec.scenario = "streaming";
  spec.n = 400;
  spec.dim = 2;
  spec.ticks = 6;
  Rng rng(3);
  ASSERT_OK_AND_ASSIGN(ScenarioInstance instance, GenerateScenario(rng, spec));
  const StreamSchedule& stream = instance.stream;
  ASSERT_EQ(stream.ticks, 6u);
  ASSERT_EQ(stream.tick_balls.size(), 6u);
  ASSERT_EQ(stream.arrivals.size(), stream.arrival_tick.size());
  ASSERT_EQ(stream.arrivals.size(), stream.expiry_tick.size());
  ASSERT_GT(stream.arrivals.size(), instance.points.size());
  // The primary truth is the final tick's ball.
  EXPECT_EQ(stream.tick_balls.back().center, instance.primary().center);

  ASSERT_OK_AND_ASSIGN(
      IndexedDataset live,
      IndexedDataset::Create(PointSet(spec.dim), instance.domain));
  for (std::size_t u = 0; u < stream.ticks; ++u) {
    for (std::size_t i = 0; i < stream.arrivals.size(); ++i) {
      if (stream.expiry_tick[i] == u) live.Remove(i);
    }
    for (std::size_t i = 0; i < stream.arrivals.size(); ++i) {
      if (stream.arrival_tick[i] == u) {
        ASSERT_OK_AND_ASSIGN(const std::size_t id,
                             live.Insert(stream.arrivals[i]));
        ASSERT_EQ(id, i);  // Arrival order is insertion order.
      }
    }
    if (u == 0) {
      // Build the grid after the first tick so every later edit goes
      // through the incremental structural path, not a rebuild.
      live.EnsureGrid(1);
    }
  }
  EXPECT_TRUE(live.grid_built());
  ASSERT_EQ(live.active_size(), instance.points.size());
  const PointSet replayed = live.ActiveView();
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    const auto got = replayed[i];
    const auto want = instance.points[i];
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin())) << i;
  }

  // Queries through the churned index equal brute force over the instance.
  EXPECT_EQ(testing_util::SortedKnnRows(live, 4, nullptr),
            reference::PairwiseRows(instance.points).NearestRows(4));
}

// End-to-end streaming contract: GoodRadius over the churned live index
// releases the same bytes as the rebuild-per-batch pipeline (a fresh index
// over the surviving rows, same Rng seed), for both engines at any thread
// count.
TEST(StreamingGoodRadiusTest, ChurnedIndexMatchesRebuildPipeline) {
  ScenarioSpec spec;
  spec.scenario = "planted_cluster";
  spec.n = 300;
  spec.dim = 2;
  Rng gen(17);
  ASSERT_OK_AND_ASSIGN(ScenarioInstance instance, GenerateScenario(gen, spec));

  const std::size_t n0 = (2 * spec.n) / 3;
  const std::size_t t = 40;

  // Incremental pipeline: index the head, then expire and append through it.
  PointSet head(instance.points.dim());
  for (std::size_t i = 0; i < n0; ++i) head.Add(instance.points[i]);
  ASSERT_OK_AND_ASSIGN(IndexedDataset live,
                       IndexedDataset::Create(std::move(head),
                                              instance.domain));
  live.EnsureGrid(t - 1);  // Churn the cached grid, not a rebuild.
  for (std::size_t i = 0; i < n0; i += 5) live.Remove(i);
  for (std::size_t i = n0; i < spec.n; ++i) {
    ASSERT_OK(live.Insert(instance.points[i]).status());
  }

  // Rebuild pipeline: a fresh index over the same surviving rows.
  ASSERT_OK_AND_ASSIGN(IndexedDataset rebuilt,
                       IndexedDataset::Create(live.ActiveView(),
                                              instance.domain));
  for (const auto engine : {GoodRadiusOptions::Engine::kRecConcave,
                            GoodRadiusOptions::Engine::kSparseVector}) {
    for (const std::size_t threads : {1, 2, 8}) {
      GoodRadiusOptions options;
      options.engine = engine;
      options.max_profile_points = spec.n;
      options.num_threads = threads;
      Rng rng_a(7);
      ASSERT_OK_AND_ASSIGN(GoodRadiusResult via_live,
                           GoodRadius(rng_a, live, t, options));
      Rng rng_b(7);
      ASSERT_OK_AND_ASSIGN(GoodRadiusResult via_rebuild,
                           GoodRadius(rng_b, rebuilt, t, options));
      const int e = static_cast<int>(engine);
      EXPECT_EQ(via_live.radius, via_rebuild.radius)
          << "engine " << e << " threads " << threads;
      EXPECT_EQ(via_live.grid_index, via_rebuild.grid_index)
          << "engine " << e << " threads " << threads;
      EXPECT_EQ(via_live.gamma, via_rebuild.gamma);
      EXPECT_EQ(via_live.zero_radius_shortcut,
                via_rebuild.zero_radius_shortcut);
    }
  }
}

}  // namespace
}  // namespace dpcluster
