// k-ball covering (Observation 3.5) through the Solver façade: the
// "k_cluster" algorithm iterates the 1-cluster solver k times, removing
// covered points between rounds — the paper's heuristic route from 1-cluster
// to k-clustering. The Response carries every released ball plus the
// cross-round privacy ledger.

#include <cstdio>

#include "dpcluster/api/solver.h"
#include "dpcluster/data/registry.h"

int main() {
  using namespace dpcluster;
  Rng rng(555);

  // Three shops' worth of purchase locations plus 5% noise.
  const std::size_t k = 3;
  const ScenarioInstance w =
      GenerateScenario(rng, {.scenario = "gaussian_mixture", .n = 4000, .k = k,
                             .sigma = 0.012, .noise_fraction = 0.05})
          .value();

  Request request;
  request.algorithm = "k_cluster";
  request.data = w.points;
  request.domain = w.domain;
  request.k = k;
  request.budget = {24.0, 1e-8};  // Total budget, split across the k rounds.
  request.beta = 0.2;

  std::printf("Covering a %zu-component mixture (n=%zu) with %zu private "
              "balls, total eps=%.0f...\n\n",
              k, w.points.size(), k, request.budget.epsilon);

  Solver solver(SolverOptions{.seed = 555});
  const auto response = solver.Run(request);
  if (!response.ok()) {
    std::printf("Solver failed: %s\n", response.status().ToString().c_str());
    return 1;
  }

  for (std::size_t i = 0; i < response->balls.size(); ++i) {
    const Ball& ball = response->balls[i];
    std::printf("ball %zu: center (%.3f, %.3f), radius %.3f\n", i + 1,
                ball.center[0], ball.center[1], ball.radius);
  }
  std::printf("\nPlanted component centers:\n");
  for (const Ball& planted : w.true_balls) {
    std::printf("         (%.3f, %.3f)\n", planted.center[0], planted.center[1]);
  }
  std::printf("\nUncovered points (evaluation only): %zu of %zu (%.1f%%)\n",
              response->uncovered, w.points.size(),
              100.0 * static_cast<double>(response->uncovered) /
                  static_cast<double>(w.points.size()));
  std::printf("\nCharged eps=%.1f delta=%.2g across %zu interactions "
              "(basic composition; the paper's k <~ (eps n)^{2/3} bound is "
              "exactly this budget split).\n",
              response->charged.epsilon, response->charged.delta,
              response->ledger.interactions());
  return 0;
}
