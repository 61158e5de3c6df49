// The k-center coreset layer: construction invariants (weights sum to n,
// coverage radius is the true max assignment distance, duplicates collapse
// losslessly), thread-count bit-identity of the greedy traversal, the knob
// chain through GoodRadius/OneCluster/KCluster, and the service cache's
// coreset lease.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dpcluster/core/good_radius.h"
#include "dpcluster/core/k_cluster.h"
#include "dpcluster/core/one_cluster.h"
#include "dpcluster/coreset/coreset.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/parallel/thread_pool.h"
#include "dpcluster/service/index_cache.h"
#include "test_util.h"

namespace dpcluster {
namespace {

Result<ScenarioInstance> MakeWorkload(std::size_t n,
                                      std::uint64_t seed = 4711) {
  Rng rng(seed);
  return GenerateScenario(rng, {.n = n, .dim = 2, .levels = 1u << 10,
                                .cluster_radius = 0.02,
                                .cluster_fraction = (n / 8 + 0.5) / n});
}

TEST(Coreset, SummaryInvariants) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, MakeWorkload(4096));
  CoresetOptions options;
  options.enabled = true;
  options.target_size = 256;
  ThreadPool pool(4);
  ASSERT_OK_AND_ASSIGN(CoresetSummary summary,
                       BuildCoreset(w.points, w.domain, options, &pool));
  ASSERT_EQ(summary.points.size(), summary.weights.size());
  ASSERT_EQ(summary.points.size(), summary.source_ids.size());
  ASSERT_LE(summary.points.size(), options.target_size);
  EXPECT_EQ(summary.input_size, w.points.size());

  // Weights are positive and sum to n.
  std::uint64_t mass = 0;
  for (const std::uint64_t weight : summary.weights) {
    EXPECT_GE(weight, 1u);
    mass += weight;
  }
  EXPECT_EQ(mass, w.points.size());

  // Every summary row is bit-for-bit its source input row.
  for (std::size_t i = 0; i < summary.points.size(); ++i) {
    const auto row = summary.points[i];
    const auto src = w.points[summary.source_ids[i]];
    for (std::size_t j = 0; j < w.points.dim(); ++j) {
      EXPECT_EQ(row[j], src[j]) << "summary row " << i << " coord " << j;
    }
  }

  // coverage_radius is the true max over inputs of the distance to the
  // nearest summary row (brute force).
  double max_nearest = 0.0;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < summary.points.size(); ++c) {
      best = std::min(best, std::sqrt(SquaredDistanceRows(
                                w.points[i].data(), summary.points[c].data(),
                                w.points.dim())));
    }
    max_nearest = std::max(max_nearest, best);
  }
  EXPECT_NEAR(summary.coverage_radius, max_nearest, 1e-12);
}

TEST(Coreset, BitIdenticalAtAnyThreadCount) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, MakeWorkload(4096));
  CoresetOptions options;
  options.enabled = true;
  options.target_size = 256;
  ThreadPool serial(1);
  ASSERT_OK_AND_ASSIGN(CoresetSummary reference,
                       BuildCoreset(w.points, w.domain, options, &serial));
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    ASSERT_OK_AND_ASSIGN(CoresetSummary summary,
                         BuildCoreset(w.points, w.domain, options, &pool));
    ASSERT_EQ(summary.points.size(), reference.points.size());
    EXPECT_EQ(summary.weights, reference.weights) << "threads " << threads;
    EXPECT_EQ(summary.source_ids, reference.source_ids);
    EXPECT_EQ(summary.coverage_radius, reference.coverage_radius);
    const std::span<const double> a = summary.points.Data();
    const std::span<const double> b = reference.points.Data();
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "threads " << threads;
  }
  // A null pool is the serial reference too.
  ASSERT_OK_AND_ASSIGN(CoresetSummary no_pool,
                       BuildCoreset(w.points, w.domain, options, nullptr));
  EXPECT_EQ(no_pool.weights, reference.weights);
  EXPECT_EQ(no_pool.coverage_radius, reference.coverage_radius);
}

TEST(Coreset, DuplicateHeavyInputCollapsesLosslessly) {
  // 8 distinct rows, each repeated 64 times: the dedup pass alone is the
  // whole coreset (m <= target), coverage radius exactly 0.
  PointSet s(2);
  const GridDomain domain(1u << 10, 2, 1.0);
  for (int rep = 0; rep < 64; ++rep) {
    for (int i = 0; i < 8; ++i) {
      const double x = domain.Snap(0.1 * static_cast<double>(i + 1));
      s.Add(std::vector<double>{x, x});
    }
  }
  CoresetOptions options;
  options.enabled = true;
  options.target_size = 256;
  ASSERT_OK_AND_ASSIGN(CoresetSummary summary,
                       BuildCoreset(s, domain, options, nullptr));
  EXPECT_EQ(summary.points.size(), 8u);
  EXPECT_EQ(summary.coverage_radius, 0.0);
  for (const std::uint64_t weight : summary.weights) EXPECT_EQ(weight, 64u);

  const CoresetSummary collapsed = CollapseDuplicates(s);
  EXPECT_EQ(collapsed.points.size(), 8u);
  EXPECT_EQ(collapsed.coverage_radius, 0.0);
}

TEST(Coreset, OptionsValidate) {
  CoresetOptions options;
  options.target_size = 0;
  EXPECT_FALSE(options.Validate().ok());
  options.target_size = 16;
  EXPECT_OK(options.Validate());
}

// The knob chain: GoodRadius with the coreset stage enabled runs the whole
// radius phase on the weighted summary and equals calling it on the weighted
// index directly — and succeeds on inputs far above max_profile_points.
TEST(Coreset, GoodRadiusRunsThroughSummary) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, MakeWorkload(1u << 15));
  GoodRadiusOptions options;
  options.params = {4.0, 1e-9};
  options.beta = 0.1;
  options.coreset.enabled = true;
  options.coreset.min_points = 1024;
  options.coreset.target_size = 512;
  Rng rng(99);
  ASSERT_OK_AND_ASSIGN(GoodRadiusResult via_knob,
                       GoodRadius(rng, w.points, w.t, w.domain, options));

  ThreadPool pool(2);
  ASSERT_OK_AND_ASSIGN(
      CoresetSummary summary,
      BuildCoreset(w.points, w.domain, options.coreset, &pool));
  ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                       MakeWeightedIndex(std::move(summary), w.domain));
  GoodRadiusOptions direct = options;
  direct.coreset.enabled = false;
  Rng rng2(99);
  ASSERT_OK_AND_ASSIGN(GoodRadiusResult via_index,
                       GoodRadius(rng2, index, w.t, direct));
  EXPECT_EQ(via_knob.radius, via_index.radius);
  EXPECT_EQ(via_knob.grid_index, via_index.grid_index);
}

TEST(Coreset, OneClusterAndKClusterRunCompressed) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, MakeWorkload(1u << 14));

  OneClusterOptions oc;
  oc.params = {8.0, 1e-9};
  oc.beta = 0.2;
  oc.coreset.enabled = true;
  oc.coreset.min_points = 1024;
  oc.coreset.target_size = 512;
  Rng rng(7);
  ASSERT_OK_AND_ASSIGN(OneClusterResult one,
                       OneCluster(rng, w.points, w.t, w.domain, oc));
  EXPECT_EQ(one.ball.center.size(), w.points.dim());

  KClusterOptions kc;
  kc.params = {16.0, 1e-9};
  kc.beta = 0.2;
  kc.k = 2;
  kc.coreset.enabled = true;
  kc.coreset.min_points = 1024;
  kc.coreset.target_size = 512;
  Rng krng(11);
  ASSERT_OK_AND_ASSIGN(KClusterResult clusters,
                       KCluster(krng, w.points, w.domain, kc));
  EXPECT_LE(clusters.rounds.size(), kc.k);
  // Uncovered mass is reported in expanded terms.
  EXPECT_LE(clusters.uncovered, w.points.size());
}

// The service cache: a coreset-requesting acquire leases the weighted
// summary (built once, reused on the next acquire), and a plain acquire on
// the same key still gets the raw index.
TEST(Coreset, IndexCacheLeasesWeightedSummary) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, MakeWorkload(4096));
  CoresetOptions coreset;
  coreset.enabled = true;
  coreset.min_points = 1024;
  coreset.target_size = 256;
  IndexCache cache(2);
  {
    IndexCache::Lease lease =
        cache.Acquire("key", w.points, w.domain, coreset);
    ASSERT_TRUE(static_cast<bool>(lease));
    EXPECT_TRUE(lease.index()->weighted());
    EXPECT_EQ(lease.index()->total_mass(), w.points.size());
    EXPECT_LE(lease.index()->size(), coreset.target_size);
  }
  const IndexedDataset* first = nullptr;
  {
    IndexCache::Lease lease =
        cache.Acquire("key", w.points, w.domain, coreset);
    ASSERT_TRUE(static_cast<bool>(lease));
    EXPECT_TRUE(lease.index()->weighted());
    first = lease.index().get();
  }
  {
    // Cached: the same summary object is handed out again.
    IndexCache::Lease lease =
        cache.Acquire("key", w.points, w.domain, coreset);
    ASSERT_TRUE(static_cast<bool>(lease));
    EXPECT_EQ(lease.index().get(), first);
  }
  {
    // A plain acquire on the same key leases the raw index.
    IndexCache::Lease lease = cache.Acquire("key", w.points, w.domain);
    ASSERT_TRUE(static_cast<bool>(lease));
    EXPECT_FALSE(lease.index()->weighted());
    EXPECT_EQ(lease.index()->size(), w.points.size());
  }
  const IndexCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
}

// Below min_points the knob is inert: the pipeline must not compress.
TEST(Coreset, MinPointsGatesCompression) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, MakeWorkload(512));
  GoodRadiusOptions with_knob;
  with_knob.params = {4.0, 1e-9};
  with_knob.beta = 0.1;
  with_knob.coreset.enabled = true;  // min_points default 65536 >> 512
  GoodRadiusOptions without = with_knob;
  without.coreset.enabled = false;
  Rng rng1(5);
  Rng rng2(5);
  ASSERT_OK_AND_ASSIGN(GoodRadiusResult a,
                       GoodRadius(rng1, w.points, w.t, w.domain, with_knob));
  ASSERT_OK_AND_ASSIGN(GoodRadiusResult b,
                       GoodRadius(rng2, w.points, w.t, w.domain, without));
  EXPECT_EQ(a.radius, b.radius);
  EXPECT_EQ(a.grid_index, b.grid_index);
}

}  // namespace
}  // namespace dpcluster
