// E10 — Observation 3.5: iterating the 1-cluster solver k times as a
// k-clustering heuristic. Measures coverage (fraction of points inside the
// union of returned balls) and the effect of splitting the privacy budget
// across rounds — the reason the paper bounds k <~ (eps n)^{2/3} / d^{1/3}.
//
// Also measures the IndexedDataset inversion of the rounds: KCluster's one
// shared deletion-capable index peeled across the k rounds against the
// per-round subset + fresh-index reference loop
// (tests/reference/k_cluster_reference.h). Released outputs are
// bit-identical (property_test); only the index service cost moves.
//
// `--smoke` runs the perf regression gate instead (exit 1 on a miss):
//  * index maintenance at n=4096, k=8: serving the k shrinking rounds from
//    one incremental index (build once + O(1) removals) must be >= 2x faster
//    than re-subsetting and re-indexing every round;
//  * end-to-end KCluster (n=4096, k=8) with the incremental index must not
//    be slower than the rebuild reference (1.15x margin for timing noise —
//    the kNN queries and the DP machinery dominate both runs; the index
//    build is what the incremental path deletes).

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "dpcluster/core/k_cluster.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/spatial_grid.h"
#include "dpcluster/workload/table.h"
#include "reference/k_cluster_reference.h"

namespace dpcluster {
namespace {

constexpr int kTrials = 3;

// One coverage table through `kcluster` (KCluster or the rebuild reference).
template <typename KClusterFn>
double CoverageTable(Rng& rng, const char* title, KClusterFn&& kcluster) {
  bench::Banner(title);
  TextTable table({"k", "rounds completed", "coverage %", "uncovered",
                   "time ms"});
  double total_ms = 0.0;
  for (std::size_t k : {1u, 2u, 3u, 4u}) {
    double rounds = 0.0;
    double covered = 0.0;
    double uncovered = 0.0;
    double ms = 0.0;
    int ok = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const ScenarioInstance w =
          GenerateScenario(rng, {.scenario = "gaussian_mixture", .n = 4000,
                                 .k = k, .sigma = 0.01, .noise_fraction = 0.05})
              .value();
      KClusterOptions options;
      options.params = {24.0, 1e-8};
      options.beta = 0.2;
      options.k = k;
      Result<KClusterResult> result = Status::Internal("unset");
      ms += bench::TimeMs(
          [&] { result = kcluster(rng, w.points, w.domain, options); });
      if (!result.ok()) continue;
      rounds += static_cast<double>(result->rounds.size());
      uncovered += static_cast<double>(result->uncovered);
      covered += 100.0 *
                 static_cast<double>(w.points.size() - result->uncovered) /
                 static_cast<double>(w.points.size());
      ++ok;
    }
    total_ms += ms;
    if (ok == 0) {
      table.AddRow({TextTable::FmtInt(static_cast<long long>(k)), "-", "-", "-",
                    "-"});
      continue;
    }
    table.AddRow({TextTable::FmtInt(static_cast<long long>(k)),
                  TextTable::Fmt(rounds / ok, 1), TextTable::Fmt(covered / ok, 1),
                  TextTable::Fmt(uncovered / ok, 0), TextTable::Fmt(ms / ok, 1)});
  }
  table.Print();
  return total_ms;
}

// --------------------------------------------------------------- --smoke ---

// A deterministic k-round shrink schedule: each round removes the ball of
// active points nearest the round's planted center, roughly an eighth of the
// data, mirroring what KCluster's removal does between GoodRadius calls.
std::vector<std::vector<std::uint32_t>> ShrinkSchedule(const PointSet& s,
                                                       std::size_t k) {
  std::vector<std::vector<std::uint32_t>> rounds(k);
  std::vector<std::uint8_t> active(s.size(), 1);
  Rng rng(2016);
  for (std::size_t round = 0; round < k; ++round) {
    const std::size_t target = s.size() / (k + 1);
    // Greedy: sweep from a random anchor, take the first `target` active.
    std::size_t at = rng.NextUint64(s.size());
    std::vector<std::uint32_t>& removed = rounds[round];
    while (removed.size() < target) {
      at = (at + 1) % s.size();
      if (!active[at]) continue;
      active[at] = 0;
      removed.push_back(static_cast<std::uint32_t>(at));
    }
  }
  return rounds;
}

int RunSmoke() {
  int failures = 0;
  Rng data_rng(1007);
  const ScenarioInstance w =
      GenerateScenario(data_rng, {.n = 4096, .dim = 2, .levels = 1u << 12,
                                  .cluster_radius = 0.02,
                                  .cluster_fraction = (512 + 0.5) / 4096})
          .value();
  constexpr std::size_t kRounds = 8;
  const std::size_t expected_neighbors = w.t - 1;
  const auto schedule = ShrinkSchedule(w.points, kRounds);

  // Index maintenance: the geometry service KCluster's rounds consume.
  // Rebuild = what the reference loop pays per round (materialize the
  // surviving subset, index it from scratch); incremental = one build plus
  // O(1) structural removals. Best of three interleaved reps.
  double rebuild_ms = 1e300;
  double incremental_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    rebuild_ms = std::min(rebuild_ms, bench::TimeMs([&] {
      std::vector<std::size_t> remaining(w.points.size());
      for (std::size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;
      for (std::size_t round = 0; round < kRounds; ++round) {
        const PointSet current = w.points.Subset(remaining);
        auto grid = SpatialGrid::Build(current, w.domain, expected_neighbors);
        if (!grid.ok()) return;
        std::vector<std::uint8_t> drop(w.points.size(), 0);
        for (const std::uint32_t id : schedule[round]) drop[id] = 1;
        std::vector<std::size_t> next;
        next.reserve(remaining.size());
        for (const std::size_t id : remaining) {
          if (!drop[id]) next.push_back(id);
        }
        remaining = std::move(next);
      }
    }));
    incremental_ms = std::min(incremental_ms, bench::TimeMs([&] {
      auto index = IndexedDataset::Create(w.points, w.domain);
      if (!index.ok()) return;
      index->EnsureGrid(expected_neighbors);
      for (std::size_t round = 0; round < kRounds; ++round) {
        index->Remove(schedule[round]);
        (void)index->ActiveIds();
      }
    }));
  }
  const double maintenance_speedup = rebuild_ms / incremental_ms;
  constexpr double kMaintenanceFloor = 2.0;
  const bool maintenance_ok = maintenance_speedup >= kMaintenanceFloor;
  std::printf(
      "smoke: index maintenance n=%zu k=%zu: rebuild %.2fms, incremental "
      "%.2fms, speedup %.1fx (floor %.1fx) -> %s\n",
      w.points.size(), kRounds, rebuild_ms, incremental_ms,
      maintenance_speedup, kMaintenanceFloor, maintenance_ok ? "OK" : "FAIL");
  failures += maintenance_ok ? 0 : 1;

  // End-to-end KCluster: bit-identical outputs, incremental must not lose.
  KClusterOptions options;
  options.params = {24.0, 1e-8};
  options.beta = 0.2;
  options.k = kRounds;
  options.per_round_t = w.points.size() / kRounds;
  double e2e_rebuild_ms = 1e300;
  double e2e_incremental_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    for (const bool rebuild : {true, false}) {
      Rng rng(4259);
      Result<KClusterResult> result = Status::Internal("unset");
      double& slot = rebuild ? e2e_rebuild_ms : e2e_incremental_ms;
      slot = std::min(slot, bench::TimeMs([&] {
        result = rebuild ? reference::RebuildKCluster(rng, w.points, w.domain,
                                                      options)
                         : KCluster(rng, w.points, w.domain, options);
      }));
      if (!result.ok()) {
        std::printf("smoke: KCluster failed: %s\n",
                    result.status().ToString().c_str());
        return 1;
      }
    }
  }
  constexpr double kEndToEndMargin = 1.15;
  const bool e2e_ok = e2e_incremental_ms <= kEndToEndMargin * e2e_rebuild_ms;
  std::printf(
      "smoke: KCluster end-to-end n=%zu k=%zu: rebuild %.1fms, incremental "
      "%.1fms (floor: incremental <= %.2f * rebuild) -> %s\n",
      w.points.size(), kRounds, e2e_rebuild_ms, e2e_incremental_ms,
      kEndToEndMargin, e2e_ok ? "OK" : "FAIL");
  failures += e2e_ok ? 0 : 1;

  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dpcluster

int main(int argc, char** argv) {
  using namespace dpcluster;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
  }
  Rng rng(31);
  const double incremental_ms = CoverageTable(
      rng, "k-cluster, incremental shared index",
      [](Rng& r, const PointSet& s, const GridDomain& domain,
         const KClusterOptions& options) {
        return KCluster(r, s, domain, options);
      });
  Rng reference_rng(31);
  const double rebuild_ms =
      CoverageTable(reference_rng, "k-cluster, per-round rebuild (reference)",
                    reference::RebuildKCluster);
  bench::Note(
      "\nBoth tables release identical bytes (same seeds, bit-identical"
      "\npaths — see property_test); the incremental index amortizes the"
      "\nper-round geometry builds. Totals: incremental " +
      std::to_string(incremental_ms) + " ms, rebuild " +
      std::to_string(rebuild_ms) + " ms.");
  bench::Note(
      "\nExpected shape (Obs 3.5): the heuristic covers most points with k"
      "\nballs; each additional round works with budget eps/k, so pushing k"
      "\nup degrades the per-round guarantee — the (eps n)^{2/3} ceiling the"
      "\npaper notes.");
  return 0;
}
