// E4 — Theorem 3.2, radius shape: the released ball's *guarantee* radius grows
// as O(sqrt(log n)) * r_opt (via the JL dimension k = O(log n)) and is flat in
// the ambient dimension d — the property that separates this work from the
// sqrt(d)-paying aggregation baseline (Table 1 column "approximation factor").
//
// Reported per configuration (mean over trials):
//   w_guar — analytic guarantee factor (sqrt(2) box_side + 1) sqrt(k) * 4
//            (GoodRadius's 4-approx folded in),
//   w_eff  — measured: smallest ball around the released center holding t
//            points, over the r_opt lower bound.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "dpcluster/core/one_cluster.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/workload/metrics.h"
#include "dpcluster/workload/table.h"

namespace dpcluster {
namespace {

constexpr int kTrials = 3;

void RunConfig(TextTable& table, Rng& rng, std::size_t n, std::size_t d,
               double eps, double t_fraction) {
  const ScenarioInstance w =
      GenerateScenario(rng, {.n = n, .dim = d, .levels = 1u << 12,
                             .cluster_radius = 0.01,
                             .cluster_fraction = t_fraction})
          .value();

  OneClusterOptions options;
  options.params = {eps, 1e-9};
  options.beta = 0.1;
  // Uncap the JL dimension so k = O(log n) is visible in the guarantee.
  options.center.max_jl_dim = 0;
  options.center.jl_constant = 2.0;

  double w_eff = 0.0;
  double w_guar = 0.0;
  double ms = 0.0;
  int ok = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Result<OneClusterResult> result = Status::Internal("unset");
    ms += bench::TimeMs(
        [&] { result = OneCluster(rng, w.points, w.t, w.domain, options); });
    if (!result.ok()) continue;
    const auto metrics = Evaluate(w.points, w.t, result->ball);
    if (!metrics.ok()) continue;
    w_eff += metrics->w_effective;
    w_guar += 4.0 * (std::sqrt(2.0) * options.center.box_side_factor + 1.0) *
              std::sqrt(static_cast<double>(result->center_stage.jl_dim));
    ++ok;
  }
  if (ok == 0) {
    table.AddRow({TextTable::FmtInt(static_cast<long long>(n)),
                  TextTable::FmtInt(static_cast<long long>(d)), "-", "-", "-"});
    return;
  }
  table.AddRow({TextTable::FmtInt(static_cast<long long>(n)),
                TextTable::FmtInt(static_cast<long long>(d)),
                TextTable::Fmt(w_guar / ok, 1), TextTable::Fmt(w_eff / ok, 2),
                TextTable::Fmt(ms / ok, 1)});
}

}  // namespace
}  // namespace dpcluster

int main() {
  using namespace dpcluster;
  Rng rng(11);

  bench::Banner("Theorem 3.2 radius shape, sweep n (d=2, t=n/2, eps=8)");
  {
    TextTable table({"n", "d", "w guarantee (~sqrt(log n))", "w effective",
                     "time ms"});
    for (std::size_t n : {512u, 1024u, 2048u, 4096u}) {
      RunConfig(table, rng, n, 2, 8.0, 0.5);
    }
    table.Print();
  }

  bench::Banner("Theorem 3.2 radius shape, sweep d (n=2048, t=0.7n, eps=16)");
  {
    TextTable table({"n", "d", "w guarantee (~sqrt(log n))", "w effective",
                     "time ms"});
    for (std::size_t d : {2u, 8u, 32u}) RunConfig(table, rng, 2048, d, 16.0, 0.7);
    table.Print();
  }

  bench::Note(
      "\nExpected shape (Thm 3.2): the guarantee factor tracks sqrt(k) ~"
      "\nsqrt(log n) as n grows and stays flat as d grows (no sqrt(d) term);"
      "\nthe effective w is far below the worst-case guarantee.");
  return 0;
}
