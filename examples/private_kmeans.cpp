// Private k-means via sample-and-aggregate — the application of [16] the
// paper's introduction cites as motivation for better aggregators.
//
// Non-private Lloyd's k-means runs on disjoint blocks; each block outputs its
// k centers concatenated (in canonical order) as one point of R^{k*d}. For a
// well-separated mixture these block outputs concentrate, so the 1-cluster
// aggregator — running in the k*d-dimensional output space — privately
// recovers the full set of centers in one shot. The radius of the aggregate
// does not pay the sqrt(k*d) factor the old averaging aggregator would
// (Theorem 6.2 vs Theorem 6.3).

#include <cstdio>

#include "dpcluster/data/registry.h"
#include "dpcluster/random/distributions.h"
#include "dpcluster/sa/estimators.h"
#include "dpcluster/sa/sample_aggregate.h"

int main() {
  using namespace dpcluster;
  Rng rng(808);

  // A well-separated 3-component mixture in the plane.
  const std::size_t k = 3;
  const ScenarioInstance w =
      GenerateScenario(rng, {.scenario = "gaussian_mixture", .n = 54000, .k = k,
                             .sigma = 0.01, .noise_fraction = 0.0})
          .value();

  SampleAggregateOptions options;
  options.params = {12.0, 1e-9};
  options.beta = 0.2;
  options.block_size = 9;  // Small blocks: each still sees every component.
  options.alpha = 0.6;     // A block misses a component now and then.
  // The aggregation happens in R^{k*d} = R^6.
  const GridDomain out_domain(1u << 10, k * 2);

  std::printf("Private k-means (k=%zu, d=2) via sample & aggregate:\n"
              "n=%zu rows, blocks of m=%zu, eps=%.0f, aggregating in R^%zu\n\n",
              k, w.points.size(), options.block_size, options.params.epsilon,
              k * 2);

  const auto result = SampleAggregate(rng, w.points, KMeansEstimator(k),
                                      out_domain, options);
  if (!result.ok()) {
    std::printf("SA failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("Released centers (one R^6 point, reshaped):\n");
  for (std::size_t c = 0; c < k; ++c) {
    std::printf("  center %zu: (%.3f, %.3f)\n", c + 1,
                result->point[c * 2], result->point[c * 2 + 1]);
  }
  std::printf("\nPlanted component centers (sorted for comparison):\n");
  for (const Ball& planted : w.true_balls) {
    std::printf("            (%.3f, %.3f)\n", planted.center[0],
                planted.center[1]);
  }
  std::printf("\nBlocks aggregated: %zu; amplified budget (Lemma 6.4): "
              "(%.3f, %.2e)-DP\n",
              result->blocks, result->amplified.epsilon,
              result->amplified.delta);
  return 0;
}
