// E7 — Lemma 4.12 (GoodCenter) ablations: the JL dimension k (radius/loss
// tradeoff: the guarantee radius grows as sqrt(k), the per-round success
// probability improves with smaller k) and the per-axis interval rule
// (practical 4r cells vs the paper's worst-case p — DESIGN.md substitution
// list, axis_cell_factor).

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "dpcluster/core/good_center.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/geo/ball.h"
#include "dpcluster/workload/table.h"

namespace dpcluster {
namespace {

constexpr int kTrials = 4;
constexpr double kR = 0.015;

void RunConfig(TextTable& table, Rng& rng, const ScenarioInstance& w,
               const std::string& label, GoodCenterOptions options) {
  double tight = 0.0;
  double guarantee = 0.0;
  double rounds = 0.0;
  double sigma = 0.0;
  double ms = 0.0;
  int ok = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Result<GoodCenterResult> result = Status::Internal("unset");
    ms += bench::TimeMs(
        [&] { result = GoodCenter(rng, w.points, w.t, kR, options); });
    if (!result.ok()) continue;
    tight += RadiusCapturing(w.points, result->center, w.t * 4 / 5) / kR;
    guarantee += result->guarantee_radius / kR;
    rounds += static_cast<double>(result->rounds_used);
    sigma += result->noise_sigma;
    ++ok;
  }
  if (ok == 0) {
    table.AddRow({label, "-", "-", "-", "-", "-"});
    return;
  }
  table.AddRow({label, TextTable::Fmt(guarantee / ok, 1),
                TextTable::Fmt(tight / ok, 2), TextTable::Fmt(rounds / ok, 1),
                TextTable::Fmt(sigma / ok, 4), TextTable::Fmt(ms / ok, 1)});
}

}  // namespace
}  // namespace dpcluster

int main() {
  using namespace dpcluster;
  Rng rng(19);
  const ScenarioInstance w =
      GenerateScenario(rng, {.n = 4096, .dim = 8, .levels = 1u << 16,
                             .cluster_radius = kR,
                             .cluster_fraction = (2048 + 0.5) / 4096})
          .value();

  bench::Banner(
      "Lemma 4.12 / GoodCenter, JL dimension sweep (n=4096, t=n/2, d=8, "
      "eps=4, r=r_planted)");
  {
    TextTable table({"k (JL dim)", "guarantee radius / r (~sqrt(k))",
                     "tight radius / r", "rounds", "noise sigma", "time ms"});
    for (std::size_t k : {4u, 8u, 12u, 16u, 20u}) {
      GoodCenterOptions options;
      options.params = {4.0, 1e-9};
      options.beta = 0.1;
      options.max_jl_dim = k;
      options.jl_constant = 1000.0;  // Force the cap to bind.
      RunConfig(table, rng, w, TextTable::FmtInt(static_cast<long long>(k)),
                options);
    }
    table.Print();
    bench::Note(
        "Expected: the GUARANTEE radius grows as sqrt(k) — the O(sqrt(log n))"
        "\nfactor of Theorem 3.2 — while the measured tight radius stays near"
        "\nthe planted r; JL concentration keeps the retry count low even for"
        "\nlarger k.");
  }

  bench::Banner("GoodCenter, per-axis interval rule ablation");
  {
    TextTable table({"interval rule", "guarantee radius / r",
                     "tight radius / r", "rounds", "noise sigma", "time ms"});
    GoodCenterOptions practical;
    practical.params = {4.0, 1e-9};
    practical.beta = 0.1;
    RunConfig(table, rng, w, "practical 4r cells (default)", practical);

    GoodCenterOptions paper_p = practical;
    paper_p.axis_cell_factor = 0.0;  // Worst-case p, clamped by the cube.
    RunConfig(table, rng, w, "paper worst-case p (cube-clamped)", paper_p);
    table.Print();
    bench::Note(
        "Expected: the worst-case interval length blows up the bounding"
        "\nsphere C and with it the averaging noise sigma — the reason the"
        "\npractical preset exists (the paper's constants assume t ~ 10^5+).");
  }
  return 0;
}
