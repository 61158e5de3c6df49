// E6 — Lemma 4.6 (GoodRadius) and the footnote-2 ablation: RecConcave engine
// vs sparse-vector binary search, plus the paper-structure recursion
// (base_domain_size 32) vs this build's default flat solve.
//
// Checks: r <= 4 r_opt (the lemma's approximation guarantee), the implied
// loss (Gamma / noise margin), and runtime.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "dpcluster/core/good_radius.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/geo/minimal_ball.h"
#include "dpcluster/workload/table.h"

namespace dpcluster {
namespace {

constexpr int kTrials = 3;

void RunEngine(TextTable& table, Rng& rng, const ScenarioInstance& w,
               const std::string& label, GoodRadiusOptions options) {
  double ratio = 0.0;
  double gamma = 0.0;
  double ms = 0.0;
  int ok = 0;
  Ball opt = *TwoApproxSmallestBall(w.points, w.t);
  for (int trial = 0; trial < kTrials; ++trial) {
    Result<GoodRadiusResult> result = Status::Internal("unset");
    ms += bench::TimeMs(
        [&] { result = GoodRadius(rng, w.points, w.t, w.domain, options); });
    if (!result.ok()) continue;
    // r_opt <= opt.radius (2-approx), so r/r_opt <= 2 * r/opt.radius... report
    // against the 2-approx radius directly (paper bound: r <= 4 r_opt <= 4 *
    // opt.radius).
    ratio += result->radius / opt.radius;
    gamma += result->gamma;
    ++ok;
  }
  if (ok == 0) {
    table.AddRow({label, "-", "-", "-"});
    return;
  }
  table.AddRow({label, TextTable::Fmt(ratio / ok, 2),
                TextTable::Fmt(gamma / ok, 1), TextTable::Fmt(ms / ok, 1)});
}

}  // namespace
}  // namespace dpcluster

int main() {
  using namespace dpcluster;
  Rng rng(17);
  // t = 1638 = 0.8n: large enough that even the recursion's Gamma fits.
  const ScenarioInstance w =
      GenerateScenario(rng, {.n = 2048, .dim = 2, .levels = 1u << 12,
                             .cluster_radius = 0.01,
                             .cluster_fraction = (1638 + 0.5) / 2048})
          .value();

  bench::Banner(
      "Lemma 4.6 / GoodRadius engines (n=2048, t=0.8n, d=2, |X|=2^12, eps=8)");
  TextTable table({"engine", "r / r_2approx (bound 4)", "Gamma/margin",
                   "time ms"});

  GoodRadiusOptions rec;
  rec.params = {8.0, 1e-9};
  rec.beta = 0.1;
  RunEngine(table, rng, w, "RecConcave (flat, default)", rec);

  GoodRadiusOptions paper_structure = rec;
  paper_structure.rec_concave.base_domain_size = 32;
  RunEngine(table, rng, w, "RecConcave (log* recursion, base=32)",
            paper_structure);

  GoodRadiusOptions sv = rec;
  sv.engine = GoodRadiusOptions::Engine::kSparseVector;
  RunEngine(table, rng, w, "sparse-vector binary search (footnote 2)", sv);

  table.Print();
  bench::Note(
      "\nExpected shape (Lemma 4.6): every engine returns r within the 4x"
      "\nguarantee of the optimum (measured against the 2-approx radius, so"
      "\nthe printed ratio bound is 4). The log* recursion splits the budget"
      "\nacross levels, so its Gamma is larger than the flat default — the"
      "\ncost of this build's exponential-mechanism selection (DESIGN.md #1);"
      "\nthe sparse-vector engine's margin carries the log|X| factor the"
      "\npaper's construction avoids (its footnote 2).");
  return 0;
}
