// Quickstart: solve the 1-cluster problem through the Solver façade.
//
//   1. Describe the data universe X^d (a quantized cube, Definition 1.2).
//   2. Put your points in a PointSet (snapped to the grid).
//   3. Fill a Request (algorithm name, data, domain, budget) and Solver::Run.
//
// The Response carries the released ball, the per-phase privacy ledger, and
// (non-private) utility diagnostics. The pre-façade entry point — calling
// OneCluster() directly — still works; see the library headers.
//
// Build & run:  ./build/example_quickstart

#include <cstdio>

#include "dpcluster/api/solver.h"
#include "dpcluster/data/registry.h"

int main() {
  using namespace dpcluster;

  // A reproducible data source: 4096 points in [0,1]^2, of which t=2000 lie
  // in a planted ball of radius 0.015 (the "small cluster" we want to find),
  // on |X| = 65536 grid levels per axis. A cluster_fraction of (t + 0.5) / n
  // plants exactly t points.
  Rng rng(2016);
  const ScenarioInstance workload =
      GenerateScenario(rng, {.n = 4096, .dim = 2, .levels = 1u << 16,
                             .cluster_radius = 0.015,
                             .cluster_fraction = (2000 + 0.5) / 4096})
          .value();

  // The typed request: which algorithm, on what data, with what budget.
  Request request;
  request.algorithm = "one_cluster";
  request.data = workload.points;
  request.domain = workload.domain;
  request.t = workload.t;
  request.budget = {4.0, 1e-9};  // (eps, delta) for the whole pipeline.
  request.beta = 0.1;            // Failure probability of the utility claim.

  std::printf("Solving the 1-cluster problem (n=%zu, t=%zu, d=%zu, eps=%.1f)\n",
              request.data.size(), request.t, request.data.dim(),
              request.budget.epsilon);

  Solver solver;
  const auto response = solver.Run(request);
  if (!response.ok()) {
    std::printf("Solver failed: %s\n", response.status().ToString().c_str());
    return 1;
  }

  std::printf("\nReleased center: (%.4f, %.4f)\n", response->ball.center[0],
              response->ball.center[1]);
  std::printf("Planted  center: (%.4f, %.4f)\n", workload.primary().center[0],
              workload.primary().center[1]);
  std::printf("Guarantee radius (O(sqrt(log n)) * r): %.4f\n",
              response->ball.radius);
  std::printf("%s\n", response->note.c_str());

  // The per-phase ledger: one charge per mechanism, summing to the budget.
  std::printf("\n%s\n", response->ledger.Report().c_str());

  // Evaluation (not private — the solver scored the output on the raw data).
  if (response->diagnostics.has_value()) {
    const EvalMetrics& m = *response->diagnostics;
    std::printf("\nEvaluation: captured %zu of t=%zu points; effective radius "
                "around the released center: %.4f (%.2fx the optimum)\n",
                m.captured, request.t, m.tight_radius, m.w_effective);
  }
  std::printf("Solved in %.1f ms\n", response->wall_ms);
  return 0;
}
