// E1 — Reproduces **Table 1** of the paper: "Comparing different solutions
// from past work and our result".
//
// Paper rows (analytic bounds):            This harness (measured):
//   Private aggregation [16]  w=O(sqrt(d)/eps), majority only
//   Exponential mechanism [14] w=1, Delta=O~(d) log^2|X|/eps, time poly(|X|^d)
//   Query release thresholds [3,4] (d=1)  w=1, Delta=2^{O(log*|X|)}/eps
//   This work                 w=O(sqrt(log n)), Delta=O~(1/eps), poly time
//
// Every method is dispatched by name through the Solver façade's algorithm
// registry — the rows below differ only in the `algorithm` field of the
// Request. Scenario A (d=1, minority cluster) runs every method; Scenario B
// (d=2) shows the exponential mechanism hitting its poly(|X|^d) wall and the
// noisy-mean baseline failing on minority clusters, while this work still
// answers. Shapes to check: who runs, who handles minority clusters, and the
// measured (Delta, w) ordering. Absolute values are not the paper's (it
// reports bounds, not experiments).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/workload/table.h"

namespace dpcluster {
namespace {

constexpr int kTrials = 5;
constexpr double kEps = 2.0;
constexpr double kDelta = 1e-9;

struct Row {
  std::string method;     // display label (paper row)
  std::string algorithm;  // registry name the Solver dispatches on
  std::string note;
};

Request BaseRequest(const ScenarioInstance& w) {
  Request request;
  request.data = w.points;
  request.domain = w.domain;
  request.t = w.t;
  request.budget = {kEps, kDelta};
  request.beta = 0.1;
  return request;
}

void RunRows(const ScenarioInstance& w, const std::vector<Row>& rows,
             std::uint64_t seed) {
  Solver solver(SolverOptions{.seed = seed});
  TextTable table({"method", "Delta (t-captured)", "w (effective)", "time ms",
                   "note"});
  for (const Row& row : rows) {
    Request request = BaseRequest(w);
    request.algorithm = row.algorithm;
    const bench::MethodStats stats =
        bench::RunTrials(solver, request, kTrials);
    if (stats.ran) {
      table.AddRow({row.method, TextTable::Fmt(stats.delta_mean, 1),
                    TextTable::Fmt(stats.w_eff_mean, 2),
                    TextTable::Fmt(stats.ms_mean, 1),
                    row.note.empty() ? stats.note : row.note});
    } else {
      table.AddRow({row.method, "-", "-", "-",
                    stats.note.empty() ? row.note : stats.note});
    }
  }
  table.Print();
  std::printf("total privacy spend of this table: %s\n",
              solver.TotalSpend().ToString().c_str());
}

void ScenarioA() {
  bench::Banner(
      "Table 1 / Scenario A: d=1, |X|=2^14, n=2048, minority cluster t=n/4, "
      "eps=2");
  Rng rng(1001);
  const ScenarioInstance w =
      GenerateScenario(rng, {.n = 2048, .dim = 1, .levels = 1u << 14,
                             .cluster_radius = 0.01,
                             .cluster_fraction = (512 + 0.5) / 2048})
          .value();

  RunRows(w,
          {
              {"non-private exact", "nonprivate", "reference"},
              {"private aggregation [16]", "noisy_mean_baseline",
               "mean misses minority cluster"},
              {"exponential mechanism [14]", "exp_mech_baseline",
               "time poly(|X|^d)"},
              {"query release thresholds [3,4]", "threshold_release_1d",
               "d=1 only; dyadic-tree variant"},
              {"this work (Thm 3.2)", "one_cluster", ""},
          },
          1001);
}

void ScenarioB() {
  bench::Banner(
      "Table 1 / Scenario B: d=2, |X|=2^14 per axis, n=4096, two 30% "
      "clusters (no majority), eps=2");
  Rng rng(2002);
  const ScenarioInstance w =
      GenerateScenario(rng, {.scenario = "near_tie", .n = 4096,
                             .levels = 1u << 14, .cluster_radius = 0.01,
                             .cluster_fraction = 0.3, .tie_margin = 0})
          .value();

  RunRows(w,
          {
              {"non-private 2-approx", "nonprivate", "reference"},
              {"private aggregation [16]", "noisy_mean_baseline",
               "needs majority cluster"},
              {"exponential mechanism [14]", "exp_mech_baseline", ""},
              {"this work (Thm 3.2)", "one_cluster", ""},
          },
          2002);
  bench::Note(
      "\nExpected shape (paper Table 1): [16] pays w ~ sqrt(d)/eps and only"
      "\nworks for majority clusters; [14] achieves w ~ 1 but is shut out as"
      "\nsoon as |X|^d grows; threshold release handles d=1 only; this work"
      "\nanswers every scenario with small Delta and moderate w.");
}

}  // namespace
}  // namespace dpcluster

int main() {
  dpcluster::ScenarioA();
  dpcluster::ScenarioB();
  return 0;
}
