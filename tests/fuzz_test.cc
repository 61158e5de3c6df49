// Randomized composition fuzzing: long random chains of StepFunction
// operations checked against a dense reference model, adversarial inputs fed
// to RecConcave (privacy-relevant paths must never crash), and end-to-end
// shell-cluster robustness (the adversarial-for-centroids workload).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dpcluster/core/one_cluster.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/dp/rec_concave.h"
#include "dpcluster/dp/step_function.h"
#include "dpcluster/geo/ball.h"
#include "test_util.h"

namespace dpcluster {
namespace {

// Dense mirror of a StepFunction.
std::vector<double> Densify(const StepFunction& f) {
  std::vector<double> out(f.domain_size());
  for (std::uint64_t i = 0; i < f.domain_size(); ++i) out[i] = f.ValueAt(i);
  return out;
}

StepFunction RandomStep(Rng& rng, std::uint64_t domain) {
  std::vector<std::uint64_t> starts = {0};
  std::vector<double> values = {static_cast<double>(rng.NextUint64(20))};
  for (std::uint64_t i = 1; i < domain; ++i) {
    if (rng.NextDouble() < 0.25) {
      starts.push_back(i);
      values.push_back(static_cast<double>(rng.NextUint64(20)));
    }
  }
  return StepFunction::FromBreakpoints(domain, std::move(starts),
                                       std::move(values));
}

// A long random chain of shift/prefix/min/window ops, checked densely after
// every step.
class StepFunctionFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(StepFunctionFuzzTest, OperationChainsMatchDenseModel) {
  Rng rng(9000 + GetParam());
  StepFunction f = RandomStep(rng, 40 + rng.NextUint64(60));
  std::vector<double> model = Densify(f);

  for (int step = 0; step < 40 && f.domain_size() > 1; ++step) {
    const std::uint64_t domain = f.domain_size();
    switch (rng.NextUint64(4)) {
      case 0: {  // Shift.
        const std::uint64_t off = rng.NextUint64(domain);
        f = f.ShiftLeft(off);
        model.erase(model.begin(),
                    model.begin() + static_cast<std::ptrdiff_t>(off));
        break;
      }
      case 1: {  // Prefix.
        const std::uint64_t len = 1 + rng.NextUint64(domain);
        f = f.Prefix(len);
        model.resize(len);
        break;
      }
      case 2: {  // Pointwise min with a fresh function.
        const StepFunction g = RandomStep(rng, domain);
        f = StepFunction::PointwiseMin(f, g);
        for (std::uint64_t i = 0; i < domain; ++i) {
          model[i] = std::min(model[i], g.ValueAt(i));
        }
        break;
      }
      default: {  // Endpoint window min.
        const std::uint64_t window = 1 + rng.NextUint64(domain);
        f = f.EndpointWindowMin(window);
        std::vector<double> next(domain - window + 1);
        for (std::uint64_t a = 0; a < next.size(); ++a) {
          next[a] = std::min(model[a], model[a + window - 1]);
        }
        model = std::move(next);
        break;
      }
    }
    ASSERT_EQ(f.domain_size(), model.size());
    for (std::uint64_t i = 0; i < model.size(); ++i) {
      ASSERT_DOUBLE_EQ(f.ValueAt(i), model[i]) << "step " << step << " i " << i;
    }
    // The scalar fast path must agree with the materialized one throughout.
    const std::uint64_t w = 1 + rng.NextUint64(f.domain_size());
    ASSERT_DOUBLE_EQ(f.MaxEndpointWindowMin(w),
                     f.EndpointWindowMin(w).MaxValue());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StepFunctionFuzzTest, ::testing::Range(0, 10));

// RecConcave on adversarial (non-quasi-concave, spiky, flat, negative)
// qualities: Definition 4.2 promises nothing about the OUTPUT, but the
// mechanism must return a valid domain element without crashing (privacy
// holds regardless of the quality's shape).
TEST(RecConcaveAdversarialTest, ArbitraryQualitiesNeverCrash) {
  Rng rng(31);
  RecConcaveOptions options;
  options.epsilon = 1.0;
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t domain = 2 + rng.NextUint64(5000);
    StepFunction q = RandomStep(rng, domain);
    // Occasionally make it negative or spiky.
    if (trial % 3 == 0) {
      std::vector<double> vals(q.values().begin(), q.values().end());
      for (double& v : vals) v = -v * 1000.0;
      q = StepFunction::FromBreakpoints(
          domain,
          std::vector<std::uint64_t>(q.starts().begin(), q.starts().end()),
          std::move(vals));
    }
    options.base_domain_size = 2 + rng.NextUint64(64);
    ASSERT_OK_AND_ASSIGN(std::uint64_t pick,
                         RecConcave(rng, q, 1.0 + rng.NextDouble() * 100.0,
                                    options));
    ASSERT_LT(pick, domain);
  }
}

TEST(ShellClusterTest, PipelineHandlesCentroidAdversarialWorkload) {
  // All cluster points on a thin shell: the cluster's centroid is the shell
  // center, which contains no points — a classic failure for mean-style
  // summaries, but the 1-cluster ball must still capture the shell.
  Rng rng(33);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "annulus", .n = 2000, .dim = 8,
                             .levels = 1024, .cluster_radius = 0.05,
                             .cluster_fraction = (1200 + 0.5) / 2000,
                             .shell_thickness = 0}));
  OneClusterOptions options;
  options.params = {8.0, 1e-8};
  options.beta = 0.1;
  ASSERT_OK_AND_ASSIGN(OneClusterResult result,
                       OneCluster(rng, w.points, w.t, w.domain, options));
  // A ball of a few shell radii around the released center captures the
  // cluster (the noisy average lands near the shell center, and the shell is
  // within 1 radius of it; the averaging noise adds ~sigma*sqrt(d)).
  EXPECT_LE(RadiusCapturing(w.points, result.ball.center, w.t),
            8.0 * 0.05);
}

TEST(LedgerTest, OneClusterChargesBothPhasesToBudget) {
  Rng rng(35);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.n = 1000, .dim = 2,
                             .cluster_fraction = (600 + 0.5) / 1000}));
  OneClusterOptions options;
  options.params = {8.0, 1e-8};
  ASSERT_OK_AND_ASSIGN(OneClusterResult result,
                       OneCluster(rng, w.points, w.t, w.domain, options));
  EXPECT_EQ(result.ledger.interactions(), 2u);
  const PrivacyParams total = result.ledger.BasicTotal();
  EXPECT_NEAR(total.epsilon, options.params.epsilon, 1e-9);
  EXPECT_NEAR(total.delta, options.params.delta, 1e-15);
}

}  // namespace
}  // namespace dpcluster
