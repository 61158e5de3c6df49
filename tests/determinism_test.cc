// The hard constraint of the parallel runtime: released outputs are
// bit-identical at any thread count. Each pipeline runs with num_threads in
// {1, 2, 8} from identical Rng seeds; every released field must match the
// serial run exactly (==, not near) — threads only execute deterministic
// numeric work, all randomness stays on the caller's single Rng stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "dpcluster/core/good_center.h"
#include "dpcluster/core/good_radius.h"
#include "dpcluster/core/k_cluster.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/la/jl_transform.h"
#include "dpcluster/parallel/thread_pool.h"
#include "dpcluster/sa/estimators.h"
#include "dpcluster/sa/sample_aggregate.h"
#include "reference/k_cluster_reference.h"
#include "test_util.h"

namespace dpcluster {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// Box-Muller from the test's own Rng (keeps this file free of the library's
// sampling internals).
double SampleGaussianForTest(Rng& rng) {
  const double u = rng.NextDoubleOpenZero();
  const double v = rng.NextDouble();
  return std::sqrt(-2.0 * std::log(u)) * std::cos(2.0 * 3.14159265358979323846 * v);
}

Result<ScenarioInstance> Workload(std::uint64_t seed) {
  Rng rng(seed);
  return GenerateScenario(rng, {.n = 600, .dim = 3, .levels = 1u << 10,
                                .cluster_radius = 0.03,
                                .cluster_fraction = (200 + 0.5) / 600});
}

TEST(DeterminismTest, GoodRadiusBitIdenticalAcrossThreadCounts) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, Workload(11));
  for (const auto engine : {GoodRadiusOptions::Engine::kRecConcave,
                            GoodRadiusOptions::Engine::kSparseVector}) {
    GoodRadiusOptions options;
    options.params = {4.0, 1e-9};
    options.beta = 0.1;
    options.engine = engine;

    options.num_threads = 1;
    options.profile_index = ProfileIndex::kExact;
    Rng rng_serial(77);
    ASSERT_OK_AND_ASSIGN(GoodRadiusResult serial,
                         GoodRadius(rng_serial, w.points, w.t, w.domain, options));

    // The serial exact sweep is the reference: every (event generator,
    // thread count) combination must release the same bits — the spatial
    // grid's t-NN pruning is lossless, not an approximation.
    for (const auto profile_index :
         {ProfileIndex::kExact, ProfileIndex::kGrid}) {
      options.profile_index = profile_index;
      for (std::size_t threads : kThreadCounts) {
        options.num_threads = threads;
        Rng rng(77);
        ASSERT_OK_AND_ASSIGN(GoodRadiusResult run,
                             GoodRadius(rng, w.points, w.t, w.domain, options));
        const std::string context =
            std::string(profile_index == ProfileIndex::kExact ? " exact"
                                                              : " grid") +
            " threads=" + std::to_string(threads);
        EXPECT_EQ(run.radius, serial.radius) << context;
        EXPECT_EQ(run.grid_index, serial.grid_index) << context;
        EXPECT_EQ(run.gamma, serial.gamma) << context;
        EXPECT_EQ(run.zero_radius_shortcut, serial.zero_radius_shortcut)
            << context;
      }
    }
  }
}

TEST(DeterminismTest, GoodCenterBitIdenticalAcrossThreadCounts) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, Workload(12));
  GoodCenterOptions options;
  options.params = {4.0, 1e-9};
  options.beta = 0.1;

  options.num_threads = 1;
  Rng rng_serial(78);
  ASSERT_OK_AND_ASSIGN(GoodCenterResult serial,
                       GoodCenter(rng_serial, w.points, w.t, 0.05, options));

  for (std::size_t threads : kThreadCounts) {
    options.num_threads = threads;
    Rng rng(78);
    ASSERT_OK_AND_ASSIGN(GoodCenterResult run,
                         GoodCenter(rng, w.points, w.t, 0.05, options));
    EXPECT_EQ(run.center, serial.center) << "threads=" << threads;
    EXPECT_EQ(run.guarantee_radius, serial.guarantee_radius)
        << "threads=" << threads;
    EXPECT_EQ(run.jl_dim, serial.jl_dim) << "threads=" << threads;
    EXPECT_EQ(run.rounds_used, serial.rounds_used) << "threads=" << threads;
    EXPECT_EQ(run.noisy_box_count, serial.noisy_box_count)
        << "threads=" << threads;
    EXPECT_EQ(run.noisy_inlier_count, serial.noisy_inlier_count)
        << "threads=" << threads;
    EXPECT_EQ(run.noise_sigma, serial.noise_sigma) << "threads=" << threads;
  }
}

TEST(DeterminismTest, KClusterBitIdenticalAcrossThreadCounts) {
  Rng data_rng(13);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(data_rng, {.scenario = "near_tie", .n = 500,
                                  .levels = 1u << 10, .cluster_radius = 0.03,
                                  .cluster_fraction = 0.4, .tie_margin = 0}));
  KClusterOptions options;
  options.params = {8.0, 1e-9};
  options.beta = 0.2;
  options.k = 2;

  options.num_threads = 1;
  Rng rng_serial(79);
  ASSERT_OK_AND_ASSIGN(KClusterResult serial,
                       KCluster(rng_serial, w.points, w.domain, options));

  for (std::size_t threads : kThreadCounts) {
    options.num_threads = threads;
    Rng rng(79);
    ASSERT_OK_AND_ASSIGN(KClusterResult run,
                         KCluster(rng, w.points, w.domain, options));
    ASSERT_EQ(run.rounds.size(), serial.rounds.size()) << "threads=" << threads;
    EXPECT_EQ(run.uncovered, serial.uncovered) << "threads=" << threads;
    for (std::size_t round = 0; round < run.rounds.size(); ++round) {
      EXPECT_EQ(run.rounds[round].ball.center, serial.rounds[round].ball.center)
          << "threads=" << threads << " round=" << round;
      EXPECT_EQ(run.rounds[round].ball.radius, serial.rounds[round].ball.radius)
          << "threads=" << threads << " round=" << round;
    }
  }
}

// GoodCenter's IndexedDataset overload (span-based row access, gathered JL
// GEMM — no ActiveView materialization) must release the same bits as the
// PointSet overload on the materialized active view, at any thread count.
TEST(DeterminismTest, GoodCenterIndexOverloadMatchesActiveView) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, Workload(18));
  ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                       IndexedDataset::Create(w.points, w.domain));
  for (std::size_t i = 0; i < index.size(); i += 3) index.Remove(i);
  const PointSet view = index.ActiveView();
  // Removal takes the planted cluster of 200 down to ~133 members; a looser
  // budget keeps the stable histogram above its suppression threshold.
  const std::size_t t = 120;
  GoodCenterOptions options;
  options.params = {8.0, 1e-9};
  options.beta = 0.1;

  options.num_threads = 1;
  Rng rng_serial(83);
  ASSERT_OK_AND_ASSIGN(GoodCenterResult serial,
                       GoodCenter(rng_serial, view, t, 0.05, options));

  for (std::size_t threads : kThreadCounts) {
    options.num_threads = threads;
    Rng rng(83);
    ASSERT_OK_AND_ASSIGN(GoodCenterResult run,
                         GoodCenter(rng, index, t, 0.05, options));
    EXPECT_EQ(run.center, serial.center) << "threads=" << threads;
    EXPECT_EQ(run.guarantee_radius, serial.guarantee_radius)
        << "threads=" << threads;
    EXPECT_EQ(run.jl_dim, serial.jl_dim) << "threads=" << threads;
    EXPECT_EQ(run.rounds_used, serial.rounds_used) << "threads=" << threads;
  }
}

// High-dimensional KCluster: the rounds over one shared index (whose d = 32
// grid collapses to the blocked dense scan) must release the same bits as the
// per-round rebuild reference at any thread count.
TEST(DeterminismTest, HighDimKClusterIndexPathsBitIdentical) {
  Rng data_rng(19);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(data_rng, {.scenario = "near_tie", .n = 400, .dim = 32,
                                  .levels = 1u << 10, .cluster_radius = 0.05,
                                  .cluster_fraction = 0.4, .tie_margin = 0}));
  KClusterOptions options;
  options.params = {8.0, 1e-9};
  options.beta = 0.2;
  options.k = 2;

  options.num_threads = 1;
  Rng rng_serial(84);
  ASSERT_OK_AND_ASSIGN(
      KClusterResult serial,
      reference::RebuildKCluster(rng_serial, w.points, w.domain, options));

  for (std::size_t threads : kThreadCounts) {
    options.num_threads = threads;
    Rng rng(84);
    ASSERT_OK_AND_ASSIGN(KClusterResult run,
                         KCluster(rng, w.points, w.domain, options));
    const std::string context = " threads=" + std::to_string(threads);
    ASSERT_EQ(run.rounds.size(), serial.rounds.size()) << context;
    EXPECT_EQ(run.uncovered, serial.uncovered) << context;
    for (std::size_t round = 0; round < run.rounds.size(); ++round) {
      EXPECT_EQ(run.rounds[round].ball.center,
                serial.rounds[round].ball.center)
          << context << " round=" << round;
      EXPECT_EQ(run.rounds[round].ball.radius,
                serial.rounds[round].ball.radius)
          << context << " round=" << round;
    }
  }
}

TEST(DeterminismTest, SampleAggregateBitIdenticalAcrossThreadCounts) {
  // Tight Gaussian data so the block means form a stable cluster.
  Rng data_rng(14);
  PointSet s(2);
  std::vector<double> p(2);
  for (std::size_t i = 0; i < 40000; ++i) {
    for (double& x : p) {
      x = std::clamp(0.5 + 0.02 * SampleGaussianForTest(data_rng), 0.0, 1.0);
    }
    s.Add(p);
  }
  const GridDomain domain(1u << 12, 2);
  SampleAggregateOptions options;
  options.params = {16.0, 1e-8};
  options.beta = 0.2;
  options.block_size = 12;
  options.alpha = 0.8;
  const Estimator f = MeanEstimator();

  options.num_threads = 1;
  Rng rng_serial(80);
  ASSERT_OK_AND_ASSIGN(SampleAggregateResult serial,
                       SampleAggregate(rng_serial, s, f, domain, options));

  for (std::size_t threads : kThreadCounts) {
    options.num_threads = threads;
    Rng rng(80);
    ASSERT_OK_AND_ASSIGN(SampleAggregateResult run,
                         SampleAggregate(rng, s, f, domain, options));
    EXPECT_EQ(run.point, serial.point) << "threads=" << threads;
    EXPECT_EQ(run.radius, serial.radius) << "threads=" << threads;
    EXPECT_EQ(run.blocks, serial.blocks) << "threads=" << threads;
  }
}

TEST(DeterminismTest, BatchedJlMatchesPerPointApply) {
  Rng data_rng(16);
  const PointSet s = testing_util::UniformCube(data_rng, 257, 24);
  Rng jl_rng(81);
  const JlTransform jl(jl_rng, 24, 9);
  for (std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    const Matrix batched = jl.ApplyAll(s, &pool);
    for (std::size_t i = 0; i < s.size(); ++i) {
      const std::vector<double> one = jl.Apply(s[i]);
      const auto row = batched.Row(i);
      ASSERT_TRUE(std::equal(one.begin(), one.end(), row.begin()))
          << "threads=" << threads << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace dpcluster
