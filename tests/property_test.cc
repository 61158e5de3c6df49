// Structural property tests tying the implementation to the paper's proofs:
// quasi-concavity of the GoodRadius quality, an exponential-mechanism
// privacy audit, and the k-means estimator's canonical-output contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "dpcluster/core/k_cluster.h"
#include "dpcluster/core/radius_profile.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/dp/exponential_mechanism.h"
#include "dpcluster/dp/step_function.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/random/distributions.h"
#include "dpcluster/sa/estimators.h"
#include "reference/k_cluster_reference.h"
#include "test_util.h"

namespace dpcluster {
namespace {

// Rebuilds Algorithm 1's quality Q(g) = 1/2 min{t - L(r_g/2), L(r_g) - t + 4G}
// from a profile, the way GoodRadius does internally.
StepFunction BuildQualityFromProfile(const RadiusProfile& profile, double t,
                                     double gamma) {
  const std::uint64_t grid = profile.solution_grid_size();
  std::vector<std::uint64_t> starts;
  std::vector<double> values;
  for (std::uint64_t g = 0; g < grid; ++g) {
    const double q =
        0.5 * std::min(t - profile.LAtHalfSolutionIndex(g),
                       profile.LAtSolutionIndex(g) - t + 4.0 * gamma);
    if (!values.empty() && values.back() == q) continue;
    starts.push_back(g);
    values.push_back(q);
  }
  return StepFunction::FromBreakpoints(grid, std::move(starts),
                                       std::move(values));
}

// Lemma 4.6's structural heart: Q(., S) is quasi-concave for EVERY dataset,
// because L is monotone in the radius. Checked densely on random data.
class QualityQuasiConcaveTest : public ::testing::TestWithParam<int> {};

TEST_P(QualityQuasiConcaveTest, QualityIsQuasiConcave) {
  Rng rng(1000 + GetParam());
  const GridDomain domain(128, 2);
  PointSet s = testing_util::UniformCube(rng, 40, 2);
  domain.SnapAll(s);
  const std::size_t t = 1 + rng.NextUint64(39);
  ASSERT_OK_AND_ASSIGN(RadiusProfile profile,
                       RadiusProfile::Build(s, t, domain, 64));
  for (double gamma : {1.0, 5.0, 50.0}) {
    const StepFunction q =
        BuildQualityFromProfile(profile, static_cast<double>(t), gamma);
    EXPECT_TRUE(q.IsQuasiConcave()) << "t=" << t << " gamma=" << gamma;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QualityQuasiConcaveTest, ::testing::Range(0, 8));

// And the promise: some grid radius reaches quality >= Gamma whenever
// t <= n and L(0) < t - 2*Gamma (Lemma 4.6's case analysis).
TEST(QualityPromiseTest, PromiseHoldsWhenZeroShortcutDoesNot) {
  Rng rng(7);
  const GridDomain domain(256, 2);
  for (int trial = 0; trial < 10; ++trial) {
    PointSet s = testing_util::UniformCube(rng, 60, 2);
    domain.SnapAll(s);
    const std::size_t t = 10 + rng.NextUint64(50);
    ASSERT_OK_AND_ASSIGN(RadiusProfile profile,
                         RadiusProfile::Build(s, t, domain, 64));
    const double gamma = 2.0;
    if (profile.LAtZero() >= static_cast<double>(t) - 2.0 * gamma) continue;
    const StepFunction q =
        BuildQualityFromProfile(profile, static_cast<double>(t), gamma);
    EXPECT_GE(q.MaxValue(), gamma) << "t=" << t;
  }
}

// Monte-Carlo audit of the exponential mechanism: the selection distribution
// on neighboring quality vectors (each entry shifted by <= 1) stays within
// e^{eps} pointwise.
TEST(ExpMechPrivacyAuditTest, WithinBudgetOnNeighboringQualities) {
  Rng rng(13);
  const double eps = 1.0;
  const std::vector<double> q0 = {5.0, 4.0, 6.0, 3.0};
  const std::vector<double> q1 = {6.0, 3.0, 5.0, 4.0};  // Each moved by 1.
  const int trials = 300000;
  std::vector<int> h0(4, 0);
  std::vector<int> h1(4, 0);
  for (int i = 0; i < trials; ++i) {
    ASSERT_OK_AND_ASSIGN(std::size_t a,
                         ExponentialMechanism::SelectIndex(rng, q0, eps));
    ASSERT_OK_AND_ASSIGN(std::size_t b,
                         ExponentialMechanism::SelectIndex(rng, q1, eps));
    ++h0[a];
    ++h1[b];
  }
  for (int b = 0; b < 4; ++b) {
    const double p0 = static_cast<double>(h0[b]) / trials;
    const double p1 = static_cast<double>(h1[b]) / trials;
    EXPECT_LE(std::abs(std::log(p0 / p1)), eps * 1.1) << "bin " << b;
  }
}

TEST(KMeansEstimatorTest, RecoversSeparatedClustersInCanonicalOrder) {
  Rng rng(17);
  PointSet block(2);
  const std::vector<std::vector<double>> truth = {
      {0.2, 0.2}, {0.5, 0.8}, {0.9, 0.3}};
  for (int i = 0; i < 60; ++i) {
    block.Add(SampleBall(rng, truth[static_cast<std::size_t>(i) % 3], 0.02));
  }
  std::vector<double> out(6);
  ASSERT_OK(KMeansEstimator(3)(block, out));
  // Lexicographic order: (0.2,.2) < (0.5,.8) < (0.9,.3).
  EXPECT_NEAR(out[0], 0.2, 0.05);
  EXPECT_NEAR(out[1], 0.2, 0.05);
  EXPECT_NEAR(out[2], 0.5, 0.05);
  EXPECT_NEAR(out[3], 0.8, 0.05);
  EXPECT_NEAR(out[4], 0.9, 0.05);
  EXPECT_NEAR(out[5], 0.3, 0.05);
}

TEST(KMeansEstimatorTest, DeterministicAndValidatesArguments) {
  Rng rng(19);
  PointSet block(2);
  for (int i = 0; i < 20; ++i) {
    block.Add(std::vector<double>{rng.NextDouble(), rng.NextDouble()});
  }
  std::vector<double> a(4);
  std::vector<double> b(4);
  ASSERT_OK(KMeansEstimator(2)(block, a));
  ASSERT_OK(KMeansEstimator(2)(block, b));
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);

  std::vector<double> wrong(3);
  EXPECT_FALSE(KMeansEstimator(2)(block, wrong).ok());
  const PointSet tiny = testing_util::MakePointSet(2, {0.1, 0.1});
  std::vector<double> out4(4);
  EXPECT_FALSE(KMeansEstimator(2)(tiny, out4).ok());
}

TEST(KMeansEstimatorTest, BlockOutputsConcentrateAcrossBlocks) {
  // The property SA relies on: different blocks of the same mixture produce
  // nearly identical R^{k*d} outputs (thanks to the canonical ordering).
  Rng rng(23);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "gaussian_mixture", .n = 4000, .k = 2,
                             .sigma = 0.01, .noise_fraction = 0.0}));
  const auto estimator = KMeansEstimator(2);
  std::vector<std::vector<double>> outputs;
  for (int b = 0; b < 20; ++b) {
    std::vector<std::size_t> idx(50);
    for (auto& i : idx) i = rng.NextUint64(w.points.size());
    const PointSet block = w.points.Subset(idx);
    std::vector<double> out(4);
    ASSERT_OK(estimator(block, out));
    outputs.push_back(out);
  }
  // Pairwise spread of the outputs is a small multiple of sigma.
  double max_dist = 0.0;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    for (std::size_t j = i + 1; j < outputs.size(); ++j) {
      max_dist = std::max(max_dist, Distance(outputs[i], outputs[j]));
    }
  }
  EXPECT_LT(max_dist, 0.1);
}

// The IndexedDataset inversion of KCluster: one deletion-capable index
// peeled across the k rounds must release exactly the bytes of the per-round
// subset+rebuild reference — on every scenario family, at every thread
// count, and through a lent (snapshot/restored) shared index.
void ExpectSameKClusterResult(const KClusterResult& got,
                              const KClusterResult& want,
                              const std::string& context) {
  ASSERT_EQ(got.rounds.size(), want.rounds.size()) << context;
  EXPECT_EQ(got.uncovered, want.uncovered) << context;
  for (std::size_t round = 0; round < got.rounds.size(); ++round) {
    const std::string at = context + " round=" + std::to_string(round);
    EXPECT_EQ(got.rounds[round].ball.center, want.rounds[round].ball.center)
        << at;
    EXPECT_EQ(got.rounds[round].ball.radius, want.rounds[round].ball.radius)
        << at;
    EXPECT_EQ(got.rounds[round].radius_stage.grid_index,
              want.rounds[round].radius_stage.grid_index)
        << at;
    EXPECT_EQ(got.rounds[round].center_stage.center,
              want.rounds[round].center_stage.center)
        << at;
  }
}

TEST(KClusterIndexPropertyTest, IncrementalBitIdenticalToRebuild) {
  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  const std::vector<std::string> families = registry.Names();
  ASSERT_EQ(families.size(), 9u);
  std::uint64_t seed = 2500;
  for (const std::string& family : families) {
    ScenarioSpec spec;
    spec.scenario = family;
    spec.n = 192;
    spec.dim = 2;
    spec.levels = 1u << 8;
    Rng data_rng(++seed);
    ASSERT_OK_AND_ASSIGN(ScenarioInstance instance,
                         GenerateScenario(data_rng, spec));

    KClusterOptions options;
    options.params = {8.0, 1e-8};
    options.beta = 0.2;
    options.k = 2;

    // Reference: the per-round subset + fresh-index loop, serial.
    options.num_threads = 1;
    Rng ref_rng(4096);
    ASSERT_OK_AND_ASSIGN(KClusterResult want,
                         reference::RebuildKCluster(ref_rng, instance.points,
                                                    instance.domain, options));

    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      options.num_threads = threads;
      Rng rng(4096);
      ASSERT_OK_AND_ASSIGN(
          KClusterResult run,
          KCluster(rng, instance.points, instance.domain, options));
      ExpectSameKClusterResult(
          run, want,
          family + " incremental threads=" + std::to_string(threads));
    }

    // A lent shared index serves the same bytes and is restored afterwards
    // (grid warmed first so the restore has real live-range state to repair).
    ASSERT_OK_AND_ASSIGN(
        IndexedDataset shared,
        IndexedDataset::Create(instance.points, instance.domain));
    const std::vector<double> warm =
        testing_util::SortedKnnRows(shared, 2, nullptr);
    options.num_threads = 1;
    Rng shared_rng(4096);
    ASSERT_OK_AND_ASSIGN(KClusterResult shared_run,
                         KCluster(shared_rng, instance.points, instance.domain,
                                  options, &shared));
    ExpectSameKClusterResult(shared_run, want, family + " shared index");
    EXPECT_EQ(shared.active_size(), shared.size()) << family;
    // And the restored index still answers like a fresh one.
    EXPECT_EQ(testing_util::SortedKnnRows(shared, 2, nullptr), warm)
        << family;
  }
}

TEST(KClusterIndexPropertyTest, RejectsMismatchedSharedIndex) {
  Rng rng(31);
  const GridDomain domain(256, 2);
  PointSet s = testing_util::UniformCube(rng, 64, 2);
  domain.SnapAll(s);
  PointSet other = testing_util::UniformCube(rng, 64, 2);
  domain.SnapAll(other);

  KClusterOptions options;
  options.params = {4.0, 1e-8};
  options.beta = 0.2;
  options.k = 2;

  // Different data under the index: rejected.
  ASSERT_OK_AND_ASSIGN(IndexedDataset wrong_data,
                       IndexedDataset::Create(other, domain));
  EXPECT_FALSE(KCluster(rng, s, domain, options, &wrong_data).ok());

  // Rows already removed from the lent index: rejected.
  ASSERT_OK_AND_ASSIGN(IndexedDataset partial,
                       IndexedDataset::Create(s, domain));
  partial.Remove(std::size_t{0});
  EXPECT_FALSE(KCluster(rng, s, domain, options, &partial).ok());
}

}  // namespace
}  // namespace dpcluster
