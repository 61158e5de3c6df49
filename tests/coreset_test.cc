// The k-center coreset layer: construction invariants (weights sum to n,
// coverage radius is the true max assignment distance, duplicates collapse
// losslessly), thread-count bit-identity of the greedy traversal, the
// coreset rule through the Solver façade, and the service cache's coreset
// lease.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dpcluster/api/solver.h"
#include "dpcluster/core/k_cluster.h"
#include "dpcluster/core/one_cluster.h"
#include "dpcluster/core/outlier.h"
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

// --- The coreset rule through the Solver façade ---------------------------
//
// The index builder is the one place that picks the raw rows or the
// summary: a request with tuning.coreset on (and n >= coreset_min_points)
// releases exactly what the core algorithm releases on the weighted summary
// index, and every other request releases what it releases on the raw rows.

/// A request for `algorithm` over w at eps = 16, with the coreset knobs set.
Request CoresetRequest(const ScenarioInstance& w, const std::string& algorithm,
                       bool coreset, std::size_t min_points = 1024) {
  Request request;
  request.algorithm = algorithm;
  request.data = w.points;
  request.domain = w.domain;
  request.t = w.t;
  request.budget = {16.0, 1e-9};
  request.beta = 0.2;
  if (algorithm == "k_cluster") request.t = 0;  // Spread across the rounds.
  request.tuning.coreset = coreset;
  request.tuning.coreset_min_points = min_points;
  request.tuning.coreset_target_size = 512;
  return request;
}

/// The released balls of `request` computed by the core algorithm directly
/// on `index` (nullptr: the raw rows), with the options the façade derives
/// and the Rng the façade's `nth` request runs on.
Result<std::vector<Ball>> CoreBalls(const Request& request,
                                    IndexedDataset* index, int nth = 1) {
  Rng master(SolverOptions{}.seed);
  Rng rng = master.Fork();
  for (int i = 1; i < nth; ++i) rng = master.Fork();
  const Tuning& tuning = request.tuning;
  OneClusterOptions oc;
  oc.params = request.budget;
  oc.beta = request.beta;
  oc.radius_budget_fraction = tuning.radius_budget_fraction;
  oc.center.max_jl_dim = tuning.max_jl_dim;
  if (request.algorithm == "one_cluster") {
    DPC_ASSIGN_OR_RETURN(OneClusterResult run,
                         OneCluster(rng, request.data, request.t,
                                    *request.domain, oc, index));
    return std::vector<Ball>{run.ball};
  }
  if (request.algorithm == "k_cluster") {
    KClusterOptions kc;
    kc.params = request.budget;
    kc.beta = request.beta;
    kc.k = request.k;
    kc.per_round_t = request.t;
    kc.refine_fraction = tuning.refine_fraction;
    kc.one_cluster.radius_budget_fraction = tuning.radius_budget_fraction;
    kc.one_cluster.center.max_jl_dim = tuning.max_jl_dim;
    DPC_ASSIGN_OR_RETURN(KClusterResult run,
                         KCluster(rng, request.data, *request.domain, kc,
                                  index));
    std::vector<Ball> balls;
    for (const OneClusterResult& round : run.rounds) balls.push_back(round.ball);
    return balls;
  }
  OutlierScreenOptions screen;
  screen.inlier_fraction = request.inlier_fraction;
  screen.inflation = tuning.inflation;
  screen.one_cluster = oc;
  screen.one_cluster.params =
      request.budget.Fraction(1.0 - tuning.refine_fraction);
  screen.refine.epsilon = request.budget.epsilon * tuning.refine_fraction;
  screen.refine.beta = request.beta;
  DPC_ASSIGN_OR_RETURN(OutlierScreen run,
                       BuildOutlierScreen(rng, request.data, *request.domain,
                                          screen, index));
  return std::vector<Ball>{run.ball};
}

void ExpectSameBalls(const std::vector<Ball>& got,
                     const std::vector<Ball>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].center, want[i].center) << what << " ball " << i;
    EXPECT_EQ(got[i].radius, want[i].radius) << what << " ball " << i;
  }
}

const char* const kCoresetAlgorithms[] = {"one_cluster", "k_cluster",
                                          "outlier_screen"};

// With the coreset on, each algorithm releases the core call's bytes on the
// summary index — and runs on 8192 rows, twice the radius profile's cap.
TEST(Coreset, SolverRunsOnTheSummary) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, MakeWorkload(1u << 13));
  for (const char* algorithm : kCoresetAlgorithms) {
    const Request request = CoresetRequest(w, algorithm, /*coreset=*/true);
    Solver solver(SolverOptions{.diagnostics = false});
    ASSERT_OK_AND_ASSIGN(const Response response, solver.Run(request));

    ThreadPool pool(2);
    ASSERT_OK_AND_ASSIGN(CoresetSummary summary,
                         BuildCoreset(w.points, w.domain,
                                      request.tuning.coreset_options(), &pool));
    ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                         MakeWeightedIndex(std::move(summary), w.domain));
    ASSERT_OK_AND_ASSIGN(const std::vector<Ball> want,
                         CoreBalls(request, &index));
    ExpectSameBalls(response.balls, want, algorithm);
  }
}

// Below coreset_min_points the knob is inert: the request releases the
// coreset-off bytes.
TEST(Coreset, MinPointsGatesCompression) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, MakeWorkload(2048));
  for (const char* algorithm : kCoresetAlgorithms) {
    Solver on(SolverOptions{.diagnostics = false});
    Solver off(SolverOptions{.diagnostics = false});
    ASSERT_OK_AND_ASSIGN(
        const Response gated,
        on.Run(CoresetRequest(w, algorithm, /*coreset=*/true,
                              /*min_points=*/4096)));
    ASSERT_OK_AND_ASSIGN(const Response plain,
                         off.Run(CoresetRequest(w, algorithm, false)));
    ExpectSameBalls(gated.balls, plain.balls, algorithm);
  }
}

// A coreset-off request runs on the raw rows even right after a coreset-on
// request over the same data in the same Solver, and above the radius
// profile's cap it is refused before it runs rather than answered from a
// summary.
TEST(Coreset, CoresetOffNeverRunsOnASummary) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, MakeWorkload(2048));
  for (const char* algorithm : kCoresetAlgorithms) {
    const std::vector<Request> batch = {CoresetRequest(w, algorithm, true),
                                        CoresetRequest(w, algorithm, false)};
    Solver solver(SolverOptions{.diagnostics = false});
    const std::vector<Result<Response>> out = solver.RunAll(batch);
    ASSERT_TRUE(out[1].ok()) << out[1].status().ToString();
    ASSERT_OK_AND_ASSIGN(const std::vector<Ball> raw,
                         CoreBalls(batch[1], nullptr, /*nth=*/2));
    ExpectSameBalls(out[1]->balls, raw, algorithm);
  }

  ASSERT_OK_AND_ASSIGN(const ScenarioInstance large, MakeWorkload(1u << 13));
  Solver solver;
  const Result<Response> refused =
      solver.Run(CoresetRequest(large, "one_cluster", /*coreset=*/false));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(solver.TotalSpend().epsilon, 0.0);
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

}  // namespace
}  // namespace dpcluster
