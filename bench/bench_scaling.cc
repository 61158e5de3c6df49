// E12 — Theorem 3.2's running-time claim: the pipeline is
// poly(n, d, log|X|). Phase-level wall-clock sweeps over n, d, |X|, the
// thread count, and the RadiusProfile event generator. (GoodRadius's exact
// profile is Theta(n^2); the grid-indexed t-NN pruned profile is ~O(n t) at
// low dimension — the "small cluster" regime t << n the paper is about.
// GoodCenter is O~(n d + n k * rounds).)
//
// Every configuration is recorded in BENCH_scaling.json (op, n, d, threads,
// ns/op; deduplicated on that key, last write wins, sorted) so the perf
// trajectory stays machine-readable across PRs. BENCH_scaling.baseline.json
// is the frozen pre-grid-index snapshot the acceptance speedups are measured
// against — do not regenerate it.
//
// `--smoke` runs the perf regression gate instead (exit 1 on a miss):
//  * GoodRadius n=2048/d=2/t=n/16 under an absolute ns floor, and the
//    grid-indexed profile >= 3x faster than the exact sweep in-process;
//  * GoodRadius n=4096/d=2/t=0.3n at the default (grid) profile under an
//    absolute floor and >= 3x faster than the exact oracle, so a fallback
//    to the all-pairs sweep above t = n/4 fails;
//  * GoodCenter n=4096/d=32 at threads=4 not slower than threads=1 (the
//    ParallelFor minimum-grain cutoff keeps sub-threshold regions serial);
//  * a cold profile build on the k_cluster round shape (n=4096, t=512 after
//    a RemoveWithin, grid first sized for t ~ 0.3n) >= a set ratio faster
//    than the exact oracle on the same survivors;
//  * streaming Insert/Remove batches on the live grid at n=2^18 >= a set
//    ratio faster than Create + EnsureGrid over the same live rows.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "dpcluster/core/good_center.h"
#include "dpcluster/core/good_radius.h"
#include "dpcluster/core/k_cluster.h"
#include "dpcluster/coreset/coreset.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/minimal_ball.h"
#include "dpcluster/parallel/thread_pool.h"
#include "dpcluster/workload/table.h"

namespace dpcluster {
namespace {

struct ConfigOptions {
  double eps = 8.0;
  std::size_t num_threads = 1;
  /// Target cluster size is n / t_divisor, unless `t` is set.
  std::size_t t_divisor = 2;
  std::size_t t = 0;
  /// Appended to the JSON op names so differently-parameterized sweeps
  /// (|X| sweep, small-t sweep) do not collide on the (op, n, d, threads)
  /// dedup key.
  std::string op_suffix;
  ProfileIndex profile_index = ProfileIndex::kGrid;
};

void RunConfig(TextTable& table, bench::JsonReporter& reporter, Rng& rng,
               std::size_t n, std::size_t d, std::uint64_t levels,
               const ConfigOptions& cfg = {}) {
  const std::size_t t = cfg.t > 0 ? cfg.t : n / cfg.t_divisor;
  const ScenarioInstance w =
      GenerateScenario(rng, {.n = n, .dim = d, .levels = levels,
                             .cluster_radius = 0.01,
                             .cluster_fraction = (t + 0.5) / n})
          .value();

  GoodRadiusOptions radius_opts;
  radius_opts.params = {cfg.eps, 1e-9};
  radius_opts.beta = 0.1;
  radius_opts.num_threads = cfg.num_threads;
  radius_opts.profile_index = cfg.profile_index;
  Result<GoodRadiusResult> radius = Status::Internal("unset");
  const double radius_ms = bench::TimeMs(
      [&] { radius = GoodRadius(rng, w.points, w.t, w.domain, radius_opts); });

  GoodCenterOptions center_opts;
  center_opts.params = {cfg.eps, 1e-9};
  center_opts.beta = 0.1;
  center_opts.num_threads = cfg.num_threads;
  const double r = radius.ok() ? std::max(radius->radius, 0.005) : 0.05;
  Result<GoodCenterResult> center = Status::Internal("unset");
  const double center_ms = bench::TimeMs(
      [&] { center = GoodCenter(rng, w.points, w.t, r, center_opts); });

  const std::size_t threads = ThreadPool(cfg.num_threads).num_threads();
  reporter.Add("GoodRadius" + cfg.op_suffix, n, d, threads, radius_ms * 1e6);
  if (center.ok()) {
    reporter.Add("GoodCenter" + cfg.op_suffix, n, d, threads, center_ms * 1e6);
  }

  table.AddRow({TextTable::FmtInt(static_cast<long long>(n)),
                TextTable::FmtInt(static_cast<long long>(w.t)),
                TextTable::FmtInt(static_cast<long long>(d)),
                TextTable::FmtInt(static_cast<long long>(levels)),
                TextTable::FmtInt(static_cast<long long>(threads)),
                TextTable::Fmt(radius_ms, 1),
                center.ok() ? TextTable::Fmt(center_ms, 1) : "-",
                center.ok()
                    ? TextTable::FmtInt(static_cast<long long>(center->rounds_used))
                    : "-"});
}

const std::vector<std::string> kHeader = {
    "n", "t", "d", "|X|", "threads", "GoodRadius ms", "GoodCenter ms", "rounds"};

// The thread sweep needs a fairer harness than one-shot RunConfig rows: all
// thread counts run *identical* work (one fixed-seed workload, fresh
// fixed-seed Rng per run) and the reps are interleaved across thread counts,
// so slow machine drift (frequency scaling, noisy neighbors) hits every
// count equally instead of whichever happened to be measured last.
void RunThreadSweep(TextTable& table, bench::JsonReporter& reporter,
                    std::size_t n, std::size_t d, std::uint64_t levels,
                    double eps) {
  Rng data_rng(4242);
  const ScenarioInstance w =
      GenerateScenario(data_rng, {.n = n, .dim = d, .levels = levels,
                                  .cluster_radius = 0.01,
                                  .cluster_fraction = (n / 2 + 0.5) / n})
          .value();

  const std::vector<std::size_t> counts = {1, 2, 4, 0};
  std::vector<double> radius_ms(counts.size(), 1e300);
  std::vector<double> center_ms(counts.size(), 1e300);
  std::vector<std::size_t> rounds(counts.size(), 0);
  double r = 0.05;

  constexpr int kRadiusReps = 2;
  for (int rep = 0; rep < kRadiusReps; ++rep) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      GoodRadiusOptions opts;
      opts.params = {eps, 1e-9};
      opts.beta = 0.1;
      opts.num_threads = counts[i];
      Rng rng(4259);
      Result<GoodRadiusResult> radius = Status::Internal("unset");
      radius_ms[i] = std::min(radius_ms[i], bench::TimeMs([&] {
        radius = GoodRadius(rng, w.points, w.t, w.domain, opts);
      }));
      if (radius.ok()) r = std::max(radius->radius, 0.005);
    }
  }
  constexpr int kCenterReps = 41;
  for (int rep = 0; rep < kCenterReps; ++rep) {
    for (std::size_t fwd = 0; fwd < counts.size(); ++fwd) {
      // Alternate direction per rep so linear drift cancels.
      const std::size_t i =
          rep % 2 == 0 ? fwd : counts.size() - 1 - fwd;
      GoodCenterOptions opts;
      opts.params = {eps, 1e-9};
      opts.beta = 0.1;
      opts.num_threads = counts[i];
      Rng rng(4273);
      Result<GoodCenterResult> center = Status::Internal("unset");
      center_ms[i] = std::min(center_ms[i], bench::TimeMs([&] {
        center = GoodCenter(rng, w.points, w.t, r, opts);
      }));
      if (center.ok()) rounds[i] = center->rounds_used;
    }
  }

  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::size_t threads = ThreadPool(counts[i]).num_threads();
    reporter.Add("GoodRadius", n, d, threads, radius_ms[i] * 1e6);
    reporter.Add("GoodCenter", n, d, threads, center_ms[i] * 1e6);
    table.AddRow({TextTable::FmtInt(static_cast<long long>(n)),
                  TextTable::FmtInt(static_cast<long long>(w.t)),
                  TextTable::FmtInt(static_cast<long long>(d)),
                  TextTable::FmtInt(static_cast<long long>(levels)),
                  TextTable::FmtInt(static_cast<long long>(threads)),
                  TextTable::Fmt(radius_ms[i], 1),
                  TextTable::Fmt(center_ms[i], 1),
                  TextTable::FmtInt(static_cast<long long>(rounds[i]))});
  }
}

// ------------------------------------------------- streaming maintenance ---

/// One streaming-maintenance run on the path the service's streams keep
/// incremental: a resident IndexedDataset, its grid built for t-NN queries,
/// absorbs one untimed warm-up batch and then `batches` timed arrival
/// batches of `batch_size` points, each batch also expiring the oldest
/// batch_size/4 live rows (so deletion runs, not just the append fast path).
/// The warm-up absorbs the one-off O(n) growth of the row storage and the
/// grid's arrays that the first Insert after Create + EnsureGrid pays, so
/// the timed batches measure steady-state maintenance. The incremental side
/// times the Insert/Remove on the live grid; the reference side times what
/// each batch would cost without a maintained index —
/// IndexedDataset::Create + EnsureGrid over the same live set. Both run
/// serially. With `audit` set, every batch also checks (untimed) that
/// GoodRadius over the live index releases the bytes GoodRadius over the
/// fresh index releases.
struct StreamingPoint {
  double mutate_ms = 0.0;   ///< Incremental: Insert+Remove, timed batches.
  double rebuild_ms = 0.0;  ///< Reference: Create + EnsureGrid, timed batches.
  double compact_ms = 0.0;  ///< One live/total < 1/4 Compact at the end.
  bool ok = false;
  double speedup() const {
    return mutate_ms > 0.0 ? rebuild_ms / mutate_ms : 0.0;
  }
};

StreamingPoint RunStreamingMaintenance(std::size_t n, std::size_t t,
                                       std::size_t batches,
                                       std::size_t batch_size, bool audit) {
  StreamingPoint out;
  Rng data_rng(53);
  const ScenarioInstance w =
      GenerateScenario(data_rng, {.n = n, .dim = 2, .levels = 1u << 12,
                                  .cluster_radius = 0.01,
                                  .cluster_fraction = (t + 0.5) / n})
          .value();
  const std::size_t n0 = n - (batches + 1) * batch_size;
  const std::size_t expire_size = batch_size / 4;

  PointSet head(w.points.dim());
  for (std::size_t i = 0; i < n0; ++i) head.Add(w.points[i]);
  auto live_or = IndexedDataset::Create(std::move(head), w.domain);
  if (!live_or.ok()) return out;
  IndexedDataset live = std::move(*live_or);
  live.EnsureGrid(t - 1);  // The cell size RadiusProfile::Build asks for.

  GoodRadiusOptions opts;
  opts.params = {8.0, 1e-9};
  opts.beta = 0.1;
  opts.max_profile_points = n;

  bool all_ok = true;
  for (std::size_t b = 0; b <= batches && all_ok; ++b) {
    const bool timed = b > 0;  // Batch 0 is the warm-up.
    const std::size_t begin = n0 + b * batch_size;
    const auto oldest = live.ActiveIds().first(expire_size);
    const std::vector<std::uint32_t> removed(oldest.begin(), oldest.end());
    const double mutate_ms = bench::TimeMs([&] {
      live.Remove(removed);
      for (std::size_t i = begin; i < begin + batch_size; ++i) {
        all_ok = all_ok && live.Insert(w.points[i]).ok();
      }
    });

    Result<IndexedDataset> fresh = Status::Internal("unset");
    const double rebuild_ms = bench::TimeMs([&] {
      fresh = IndexedDataset::Create(live.ActiveView(), w.domain);
      if (fresh.ok()) fresh->EnsureGrid(t - 1);
    });
    if (timed) {
      out.mutate_ms += mutate_ms;
      out.rebuild_ms += rebuild_ms;
    }
    all_ok = all_ok && fresh.ok();
    if (!all_ok || !audit) continue;
    // The amortization claim only counts if the maintained index answers
    // like the rebuilt one — a byte audit on top of streaming_test's.
    Rng live_rng(77 + b);
    Rng fresh_rng(77 + b);
    const Result<GoodRadiusResult> via_live =
        GoodRadius(live_rng, live, t, opts);
    const Result<GoodRadiusResult> via_fresh =
        GoodRadius(fresh_rng, *fresh, t, opts);
    all_ok = via_live.ok() && via_fresh.ok() &&
             via_live->radius == via_fresh->radius &&
             via_live->grid_index == via_fresh->grid_index &&
             via_live->gamma == via_fresh->gamma;
  }

  // The stream layer's compaction heuristic: expire until live/total drops
  // under 1/4, then fold the arena. One O(n) rebuild amortized over >= 3n/4
  // expiries.
  const std::size_t keep = live.size() / 4;
  const auto active = live.ActiveIds();
  const std::vector<std::uint32_t> doomed(active.begin(),
                                          active.end() - static_cast<std::ptrdiff_t>(keep));
  live.Remove(doomed);
  out.compact_ms = bench::TimeMs([&] { live.Compact(); });
  out.ok = all_ok;
  return out;
}

// --------------------------------------------------------------- --smoke ---

double BestOfThreeRadiusMs(std::size_t n, std::size_t t, std::size_t d,
                           ProfileIndex profile_index) {
  Rng data_rng(41);
  const ScenarioInstance w =
      GenerateScenario(data_rng, {.n = n, .dim = d, .levels = 1u << 12,
                                  .cluster_radius = 0.01,
                                  .cluster_fraction = (t + 0.5) / n})
          .value();
  GoodRadiusOptions opts;
  opts.params = {8.0, 1e-9};
  opts.beta = 0.1;
  opts.profile_index = profile_index;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Rng rng(7);  // Same seed per rep: identical work, timing noise only.
    Result<GoodRadiusResult> result = Status::Internal("unset");
    best = std::min(best, bench::TimeMs([&] {
      result = GoodRadius(rng, w.points, w.t, w.domain, opts);
    }));
    if (!result.ok()) return -1.0;
  }
  return best;
}

double BestOfThreeCenterMs(std::size_t num_threads) {
  Rng data_rng(42);
  const ScenarioInstance w =
      GenerateScenario(data_rng, {.n = 4096, .dim = 32, .levels = 1u << 12,
                                  .cluster_radius = 0.01,
                                  .cluster_fraction = (2048 + 0.5) / 4096})
          .value();
  GoodCenterOptions opts;
  opts.params = {32.0, 1e-9};
  opts.beta = 0.1;
  opts.num_threads = num_threads;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Rng rng(9);  // Same seed per rep and thread count: identical rounds.
    Result<GoodCenterResult> result = Status::Internal("unset");
    best = std::min(best, bench::TimeMs([&] {
      result = GoodCenter(rng, w.points, w.t, 0.05, opts);
    }));
    if (!result.ok()) return -1.0;
  }
  return best;
}

// Full GoodRadius + GoodCenter pipeline wall time at (n=4096, t=512, dim=d),
// default profile — the high-dimension smoke measurement. t = n/8 and
// eps = 64 keep GoodCenter comfortably above its histogram-suppression
// threshold at d = 64 (at t = 256 the released radius sits right on the
// success boundary and the gate would flake).
double BestOfTwoPipelineMs(std::size_t d) {
  Rng data_rng(43);
  const ScenarioInstance w =
      GenerateScenario(data_rng, {.n = 4096, .dim = d, .levels = 1u << 12,
                                  .cluster_radius = 0.01,
                                  .cluster_fraction = (512 + 0.5) / 4096})
          .value();
  GoodRadiusOptions radius_opts;
  radius_opts.params = {64.0, 1e-9};
  radius_opts.beta = 0.1;
  GoodCenterOptions center_opts;
  // eps = 64: the smallest power-of-two budget where GoodCenter's stable
  // histograms clear their suppression threshold at d = 64, t = 256.
  center_opts.params = {64.0, 1e-9};
  center_opts.beta = 0.1;
  double best = 1e300;
  for (int rep = 0; rep < 2; ++rep) {
    Rng rng(11);  // Same seed per rep: identical work, timing noise only.
    Result<GoodRadiusResult> radius = Status::Internal("unset");
    Result<GoodCenterResult> center = Status::Internal("unset");
    const double ms = bench::TimeMs([&] {
      radius = GoodRadius(rng, w.points, w.t, w.domain, radius_opts);
      const double r = radius.ok() ? std::max(radius->radius, 0.005) : 0.05;
      center = GoodCenter(rng, w.points, w.t, r, center_opts);
    });
    if (!radius.ok() || !center.ok()) return -1.0;
    best = std::min(best, ms);
  }
  return best;
}

// The coreset stage as the index builders run it (coreset/coreset.h): the
// default 2048-row summary of w, indexed for the weighted pipeline.
Result<IndexedDataset> CoresetIndex(const ScenarioInstance& w) {
  ThreadPool pool(0);
  CoresetOptions copts;
  copts.enabled = true;
  DPC_ASSIGN_OR_RETURN(CoresetSummary summary,
                       BuildCoreset(w.points, w.domain, copts, &pool));
  return MakeWeightedIndex(std::move(summary), w.domain);
}

// GoodRadius end-to-end through the coreset stage (compression + weighted
// pipeline) at (n, t=n/16, d=2), or on the raw rows with the profile cap
// lifted. Returns wall ms or -1 on failure.
double CoresetRadiusMs(std::size_t n, bool coreset) {
  Rng data_rng(47);
  const ScenarioInstance w =
      GenerateScenario(data_rng, {.n = n, .dim = 2, .levels = 1u << 12,
                                  .cluster_radius = 0.01,
                                  .cluster_fraction = (n / 16 + 0.5) / n})
          .value();
  GoodRadiusOptions opts;
  opts.params = {8.0, 1e-9};
  opts.beta = 0.1;
  opts.num_threads = 0;
  // The uncompressed reference must lift the profile cap to run at all;
  // the coreset path never needs it (the summary is far below the cap).
  if (!coreset) opts.max_profile_points = n;
  Rng rng(13);
  Result<GoodRadiusResult> result = Status::Internal("unset");
  const double ms = bench::TimeMs([&] {
    if (!coreset) {
      result = GoodRadius(rng, w.points, w.t, w.domain, opts);
      return;
    }
    Result<IndexedDataset> index = CoresetIndex(w);
    result = index.ok() ? GoodRadius(rng, *index, w.t, opts)
                        : Result<GoodRadiusResult>(index.status());
  });
  return result.ok() ? ms : -1.0;
}

// One cold profile build on resident_solve's k_cluster round shape: a
// gaussian_mixture n=4096, d=2 key whose shared grid was first sized by a
// one_cluster solve at the key's default t (~0.3n; here t = 1228),
// then one RemoveWithin of a t=512 ball, then a t=512 build over the
// survivors — which the profile memo never serves. Best of three.
double BestOfThreeKClusterRoundMs(ProfileIndex profile_index) {
  Rng data_rng(44);
  const Result<ScenarioInstance> instance = GenerateScenario(
      data_rng, {.scenario = "gaussian_mixture", .n = 4096, .dim = 2});
  if (!instance.ok()) return -1.0;
  const std::size_t n = instance->points.size();
  Result<IndexedDataset> index =
      IndexedDataset::Create(instance->points, instance->domain);
  if (!index.ok() ||
      !RadiusProfile::Build(*index, n * 3 / 10, n).ok()) {
    return -1.0;
  }
  constexpr std::size_t kRoundT = 512;
  const Result<Ball> ball = TwoApproxSmallestBall(instance->points, kRoundT);
  if (!ball.ok()) return -1.0;
  index->RemoveWithin(*ball);
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    bool ok = false;
    best = std::min(best, bench::TimeMs([&] {
      ok = RadiusProfile::Build(*index, kRoundT, n, nullptr, profile_index)
               .ok();
    }));
    if (!ok) return -1.0;
  }
  return best;
}

int RunSmoke() {
  int failures = 0;

  // k_cluster round floor: the cold t-NN superset build on the round shape
  // against the all-pairs oracle on the same survivors. On a shared 4-vCPU
  // VM, over 11 runs, the superset rows read exact/grid = 11.4-18.2x; the
  // exact (t-1)-NN rows with per-center selection that they replaced read
  // 6.1-9.3x over 6 runs, which this floor fails.
  const double round_grid_ms = BestOfThreeKClusterRoundMs(ProfileIndex::kGrid);
  const double round_exact_ms =
      BestOfThreeKClusterRoundMs(ProfileIndex::kExact);
  constexpr double kRoundSpeedupFloor = 10.0;
  const bool round_ok = round_grid_ms > 0.0 && round_exact_ms > 0.0 &&
                        round_exact_ms / round_grid_ms >= kRoundSpeedupFloor;
  std::printf(
      "smoke: k_cluster round n=4096 t=512 d=2 after RemoveWithin: grid "
      "%.1fms, exact %.1fms -> exact/grid %.2fx (floor %.1fx) -> %s\n",
      round_grid_ms, round_exact_ms, round_exact_ms / round_grid_ms,
      kRoundSpeedupFloor, round_ok ? "OK" : "FAIL");
  failures += round_ok ? 0 : 1;

  // GoodRadius regression floor at n=2048, t=n/16, d=2. The frozen pre-PR
  // exact sweep measured ~345e6 ns here (BENCH_scaling.baseline.json); the
  // grid-indexed profile runs it in ~25-40e6. The floors are deliberately
  // loose (CI machines vary) while still catching a fallback to quadratic.
  const double grid_ms = BestOfThreeRadiusMs(2048, 128, 2, ProfileIndex::kGrid);
  const double exact_ms =
      BestOfThreeRadiusMs(2048, 128, 2, ProfileIndex::kExact);
  constexpr double kRadiusFloorMs = 150.0;
  constexpr double kRadiusSpeedupFloor = 3.0;
  const bool radius_ok = grid_ms > 0.0 && exact_ms > 0.0 &&
                         grid_ms < kRadiusFloorMs &&
                         exact_ms / grid_ms >= kRadiusSpeedupFloor;
  std::printf(
      "smoke: GoodRadius n=2048 t=128 d=2: grid %.1fms (floor %.0fms), "
      "exact/grid %.2fx (floor %.1fx) -> %s\n",
      grid_ms, kRadiusFloorMs, exact_ms / grid_ms, kRadiusSpeedupFloor,
      radius_ok ? "OK" : "FAIL");
  failures += radius_ok ? 0 : 1;

  // Default-profile floor above the former n/4 crossover (n=4096, t=0.3n,
  // d=2), where the default used to run the all-pairs sweep: ~1.8e9 ns on a
  // 4-vCPU VM, against ~0.25-0.33e9 for the t-NN stream it takes now.
  const std::size_t t_high = 4096 * 3 / 10;
  const double grid_high_ms =
      BestOfThreeRadiusMs(4096, t_high, 2, ProfileIndex::kGrid);
  const double oracle_ms =
      BestOfThreeRadiusMs(4096, t_high, 2, ProfileIndex::kExact);
  constexpr double kHighFloorMs = 1000.0;
  constexpr double kHighSpeedupFloor = 3.0;
  const bool high_ok = grid_high_ms > 0.0 && oracle_ms > 0.0 &&
                       grid_high_ms < kHighFloorMs &&
                       oracle_ms / grid_high_ms >= kHighSpeedupFloor;
  std::printf(
      "smoke: GoodRadius n=4096 t=%zu d=2: grid %.1fms (floor %.0fms), "
      "exact/grid %.2fx (floor %.1fx) -> %s\n",
      t_high, grid_high_ms, kHighFloorMs, oracle_ms / grid_high_ms,
      kHighSpeedupFloor, high_ok ? "OK" : "FAIL");
  failures += high_ok ? 0 : 1;

  // GoodCenter thread floor: with the ParallelFor minimum-grain cutoff,
  // threads=4 runs the same serial regions as threads=1 at this size, so it
  // must not be slower (1.3x margin for timer and scheduler noise).
  const double t1_ms = BestOfThreeCenterMs(1);
  const double t4_ms = BestOfThreeCenterMs(4);
  const bool center_ok = t1_ms > 0.0 && t4_ms > 0.0 && t4_ms <= 1.3 * t1_ms;
  std::printf(
      "smoke: GoodCenter n=4096 d=32: threads=1 %.1fms, threads=4 %.1fms "
      "(floor: t4 <= 1.3 * t1) -> %s\n",
      t1_ms, t4_ms, center_ok ? "OK" : "FAIL");
  failures += center_ok ? 0 : 1;

  // High-dimension floor: with the blocked dense one-cell scan the full
  // GoodRadius + GoodCenter pipeline at d=64 stays within ~2x of the d=8
  // wall time (the pre-PR degenerate grid re-streamed the dataset per query
  // and ran ~5x slower). 2.5x margin absorbs CI machine noise on top of the
  // ~2x ROADMAP target while still catching a fallback to the naive scan.
  const double d8_ms = BestOfTwoPipelineMs(8);
  const double d64_ms = BestOfTwoPipelineMs(64);
  constexpr double kHighDimRatioFloor = 2.5;
  const bool highdim_ok = d8_ms > 0.0 && d64_ms > 0.0 &&
                          d64_ms <= kHighDimRatioFloor * d8_ms;
  std::printf(
      "smoke: pipeline n=4096 t=512: d=8 %.1fms, d=64 %.1fms "
      "(floor: d64 <= %.1f * d8) -> %s\n",
      d8_ms, d64_ms, kHighDimRatioFloor, highdim_ok ? "OK" : "FAIL");
  failures += highdim_ok ? 0 : 1;

  // Coreset floor: end-to-end GoodRadius at n=2^20 through the weighted
  // k-center summary. The uncompressed reference is measured at n=2^14 and
  // extrapolated by the grid profile's ~O(n t) growth with t = n/16 (factor
  // (2^20 * 2^16) / (2^14 * 2^10) = 4096x — conservative: the large-n run
  // would also lose cache locality). The ISSUE acceptance bar is >= 20x
  // faster than that extrapolation; the absolute floor catches the coreset
  // build itself degenerating to quadratic.
  const double small_ms = CoresetRadiusMs(std::size_t{1} << 14, false);
  const double coreset_ms = CoresetRadiusMs(std::size_t{1} << 20, true);
  const double extrapolated_ms = small_ms * 4096.0;
  constexpr double kCoresetFloorMs = 60000.0;
  constexpr double kCoresetSpeedupFloor = 20.0;
  const bool coreset_ok = small_ms > 0.0 && coreset_ms > 0.0 &&
                          coreset_ms < kCoresetFloorMs &&
                          extrapolated_ms / coreset_ms >= kCoresetSpeedupFloor;
  std::printf(
      "smoke: GoodRadius n=2^20 t=n/16 d=2 via coreset: %.1fms (floor "
      "%.0fms), extrapolated uncompressed %.0fms -> %.0fx (floor %.0fx) -> "
      "%s\n",
      coreset_ms, kCoresetFloorMs, extrapolated_ms,
      coreset_ms > 0.0 ? extrapolated_ms / coreset_ms : 0.0,
      kCoresetSpeedupFloor, coreset_ok ? "OK" : "FAIL");
  failures += coreset_ok ? 0 : 1;

  // Memory floor: the runs above (the n=2^20 coreset build — raw points +
  // dedup map + grid + summary — and the n=2^14 uncompressed reference's
  // event stream) are this process' peak allocations; the measured
  // high-water mark must stay within the floor, pinning the "measured, not
  // estimated" memory claim.
  const std::size_t rss = bench::PeakRssBytes();
  constexpr std::size_t kCoresetRssFloor = std::size_t{1} << 30;  // 1 GiB
  const bool rss_ok = rss > 0 && rss < kCoresetRssFloor;
  std::printf(
      "smoke: peak RSS after n=2^20 coreset run: %.1f MB (floor %.0f MB) -> "
      "%s\n",
      static_cast<double>(rss) / 1e6,
      static_cast<double>(kCoresetRssFloor) / 1e6, rss_ok ? "OK" : "FAIL");
  failures += rss_ok ? 0 : 1;

  // Streaming floor: per batch (64 arrivals + 16 expiries), Insert/Remove
  // on the live grid against Create + EnsureGrid over the same live set,
  // at n = 2^14, 2^16 and 2^18 (the 2^14 run also audits GoodRadius bytes,
  // live vs fresh, per batch). Four steady-state batches are timed after an
  // untimed warm-up batch. The floor applies at 2^18, where six runs on a
  // shared 4-vCPU VM read 41-76x; the incremental side is ~0.3-0.5 ms in
  // total, so one scheduler hiccup moves the ratio, hence the wide margin.
  constexpr double kStreamSpeedupFloor = 5.0;
  bool stream_ok = true;
  for (const int lg : {14, 16, 18}) {
    const StreamingPoint stream =
        RunStreamingMaintenance(std::size_t{1} << lg, /*t=*/256,
                                /*batches=*/4, /*batch_size=*/64,
                                /*audit=*/lg == 14);
    const bool gated = lg == 18;
    const bool ok =
        stream.ok && (!gated || stream.speedup() >= kStreamSpeedupFloor);
    std::printf(
        "smoke: streaming n=2^%d, 4 batches of 64 (+16 expiries each) after "
        "a warm-up batch%s: "
        "incremental %.3fms, rebuild-per-batch %.1fms -> %.0fx (floor %s), "
        "compact %.1fms -> %s\n",
        lg, lg == 14 ? " with byte audit" : "", stream.mutate_ms,
        stream.rebuild_ms, stream.speedup(),
        gated ? std::to_string(static_cast<int>(kStreamSpeedupFloor)).c_str()
              : "none",
        stream.compact_ms, ok ? "OK" : "FAIL");
    stream_ok = stream_ok && ok;
  }
  failures += stream_ok ? 0 : 1;

  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dpcluster

int main(int argc, char** argv) {
  using namespace dpcluster;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
  }
  Rng rng(41);
  bench::JsonReporter reporter("BENCH_scaling.json");

  bench::Banner("Runtime scaling, n sweep (d=2, |X|=2^12, t=n/2, eps=8)");
  {
    TextTable table(kHeader);
    for (std::size_t n : {512u, 1024u, 2048u, 4096u}) {
      RunConfig(table, reporter, rng, n, 2, 1u << 12);
    }
    table.Print();
    bench::Note("Expected: GoodRadius ~ n^2 at t=n/2 (the t-NN stream"
                " prunes only half the pair events there), GoodCenter"
                " near-linear in n.");
  }

  bench::Banner("Subquadratic radius profile (n=4096, t=n/16, |X|=2^12)");
  {
    TextTable table(kHeader);
    for (std::size_t d : {2u, 8u}) {
      ConfigOptions grid;
      grid.eps = d >= 8 ? 32.0 : 8.0;
      grid.t_divisor = 16;
      grid.op_suffix = "/t16";
      RunConfig(table, reporter, rng, 4096, d, 1u << 12, grid);
      ConfigOptions exact = grid;
      exact.op_suffix = "/t16-exact";
      exact.profile_index = ProfileIndex::kExact;
      RunConfig(table, reporter, rng, 4096, d, 1u << 12, exact);
    }
    table.Print();
    bench::Note("Row pairs: default (grid-indexed t-NN profile) vs forced exact"
                " sweep on the same workload. The paper's t << n regime is"
                " where the ~O(n t) profile wins; outputs are bit-identical"
                " (determinism_test).");
  }

  bench::Banner("Above the former n/4 crossover (n=4096, t=0.3n, d=2, "
                "|X|=2^12)");
  {
    TextTable table(kHeader);
    ConfigOptions grid;
    grid.t = 4096 * 3 / 10;
    grid.op_suffix = "/t03";
    RunConfig(table, reporter, rng, 4096, 2, 1u << 12, grid);
    ConfigOptions exact = grid;
    exact.op_suffix = "/t03-exact";
    exact.profile_index = ProfileIndex::kExact;
    RunConfig(table, reporter, rng, 4096, 2, 1u << 12, exact);
    table.Print();
    bench::Note("default (t-NN stream) vs the exact oracle where the default"
                " used to run the all-pairs sweep; outputs are bit-identical"
                " (radius_profile_test). The --smoke floor guards this row.");
  }

  bench::Banner(
      "High dimension: cell grid vs exact sweep (n=4096, t=n/16, |X|=2^12, "
      "eps=64)");
  {
    TextTable table(kHeader);
    for (std::size_t d : {8u, 16u, 32u, 64u}) {
      ConfigOptions grid;
      grid.eps = 64.0;
      grid.t_divisor = 16;
      grid.profile_index = ProfileIndex::kGrid;
      grid.op_suffix = "/hd-grid";
      RunConfig(table, reporter, rng, 4096, d, 1u << 12, grid);
      ConfigOptions exact = grid;
      exact.profile_index = ProfileIndex::kExact;
      exact.op_suffix = "/hd-exact";
      RunConfig(table, reporter, rng, 4096, d, 1u << 12, exact);
    }
    table.Print();
    bench::Note("Row pairs per d: the cell grid (one occupied cell once 3^d"
                " rings outgrow n — batched queries then run the blocked"
                " dense scan; this is the default) and the forced"
                " all-pairs sweep. Outputs are bit-identical across both"
                " (radius_profile_test).");
  }

  bench::Banner(
      "KCluster end-to-end (n=4096, 8-cluster mixture, d=16, k=8, |X|=2^12,"
      " eps=64)");
  {
    TextTable table({"ms", "rounds"});
    Rng data_rng(4321);
    // d = 16: the highest dimension where the per-round budget (eps / k
    // across 8 rounds) still clears GoodCenter's histogram thresholds, so
    // the bench measures found clusters rather than 8 suppressed rounds.
    const ScenarioInstance w =
        GenerateScenario(data_rng, {.scenario = "gaussian_mixture", .n = 4096,
                                    .dim = 16, .k = 8, .sigma = 0.02,
                                    .noise_fraction = 0.1})
            .value();
    KClusterOptions options;
    options.params = {64.0, 1e-9};
    options.beta = 0.2;
    options.k = 8;
    Rng rng_run(4331);
    Result<KClusterResult> run = Status::Internal("unset");
    const double ms = bench::TimeMs(
        [&] { run = KCluster(rng_run, w.points, w.domain, options); });
    reporter.Add("KClusterK8", w.points.size(), w.points.dim(), 1, ms * 1e6);
    table.AddRow({TextTable::Fmt(ms, 1),
                  run.ok() ? TextTable::FmtInt(
                                 static_cast<long long>(run->rounds.size()))
                           : "-"});
    table.Print();
    bench::Note("The incremental shared index path: one index build, k"
                " span-based GoodCenter rounds with a per-round JL draw.");
  }

  bench::Banner("Runtime scaling, d sweep (n=2048, |X|=2^12)");
  {
    TextTable table(kHeader);
    // Larger d needs a larger budget for the per-axis histograms; this sweep
    // is about runtime, so give it eps=32.
    for (std::size_t d : {2u, 8u, 32u, 64u}) {
      ConfigOptions cfg;
      cfg.eps = 32.0;
      // The n sweep already owns the (op, 2048, 2, 1) key at eps=8; suffix
      // this sweep's eps=32 anchor so the dedup keeps both.
      if (d == 2) cfg.op_suffix = "/eps32";
      RunConfig(table, reporter, rng, 2048, d, 1u << 12, cfg);
    }
    table.Print();
    bench::Note("Expected: polynomial in d (distance computations + the d x d"
                " random rotation).");
  }

  bench::Banner("Runtime scaling, |X| sweep (n=2048, d=2)");
  {
    TextTable table(kHeader);
    for (int lx : {8, 12, 16, 20}) {
      ConfigOptions cfg;
      cfg.op_suffix = "/lx" + std::to_string(lx);
      RunConfig(table, reporter, rng, 2048, 2, std::uint64_t{1} << lx, cfg);
    }
    table.Print();
    bench::Note("Expected: only logarithmic growth in |X| (the radius grid is"
                " handled through the piecewise-constant profile, never"
                " enumerated).");
  }

  bench::Banner("Thread scaling (n=4096, d=32, |X|=2^12, eps=32)");
  {
    TextTable table(kHeader);
    RunThreadSweep(table, reporter, 4096, 32, 1u << 12, 32.0);
    table.Print();
    bench::Note("Released outputs are bit-identical at every thread count"
                " (see determinism_test); only the wall clock moves. Small"
                " regions stay serial under the ParallelFor minimum-grain"
                " cutoff, so extra threads never cost wall clock.");
  }

  bench::Banner(
      "Coreset scaling (d=2, |X|=2^12, t=n/16, eps=8, target=2048): "
      "k-center summary build + weighted GoodRadius/KCluster");
  {
    TextTable table({"n", "t", "m", "build ms", "GoodRadius ms",
                     "KCluster ms", "peak RSS MB"});
    for (int lg : {17, 18, 19, 20}) {
      const std::size_t n = std::size_t{1} << lg;
      Rng data_rng(47);
      const ScenarioInstance w =
          GenerateScenario(data_rng, {.n = n, .dim = 2, .levels = 1u << 12,
                                      .cluster_radius = 0.01,
                                      .cluster_fraction = (n / 16 + 0.5) / n})
              .value();

      CoresetOptions copts;
      copts.enabled = true;
      copts.min_points = 1;
      ThreadPool pool(0);
      Result<CoresetSummary> summary = Status::Internal("unset");
      const double build_ms = bench::TimeMs(
          [&] { summary = BuildCoreset(w.points, w.domain, copts, &pool); });
      if (!summary.ok()) continue;
      const std::size_t m = summary->points.size();

      auto index = MakeWeightedIndex(std::move(*summary), w.domain);
      if (!index.ok()) continue;
      GoodRadiusOptions radius_opts;
      radius_opts.params = {8.0, 1e-9};
      radius_opts.beta = 0.1;
      radius_opts.num_threads = 0;
      Rng radius_rng(13);
      Result<GoodRadiusResult> radius = Status::Internal("unset");
      const double radius_ms = bench::TimeMs(
          [&] { radius = GoodRadius(radius_rng, *index, w.t, radius_opts); });

      KClusterOptions kopts;
      kopts.params = {64.0, 1e-9};
      kopts.beta = 0.2;
      kopts.k = 4;
      kopts.num_threads = 0;
      Rng k_rng(17);
      Result<KClusterResult> kc = Status::Internal("unset");
      // Compression and the rounds, as a coreset k_cluster request runs.
      const double k_ms = bench::TimeMs([&] {
        Result<IndexedDataset> k_index = CoresetIndex(w);
        kc = k_index.ok() ? KCluster(k_rng, w.points, w.domain, kopts, &*k_index)
                          : Result<KClusterResult>(k_index.status());
      });

      // Peak RSS is a process-wide high-water mark: rows are ascending in n,
      // so each row's value is dominated by its own (largest-so-far) run.
      const std::size_t rss = bench::PeakRssBytes();
      const std::size_t threads = pool.num_threads();
      reporter.Add("CoresetBuild", n, 2, threads, build_ms * 1e6, rss);
      if (radius.ok()) {
        reporter.Add("GoodRadiusCoreset/t16", n, 2, threads, radius_ms * 1e6);
      }
      if (kc.ok()) {
        reporter.Add("KClusterCoresetK4", n, 2, threads, k_ms * 1e6);
      }
      table.AddRow({TextTable::FmtInt(static_cast<long long>(n)),
                    TextTable::FmtInt(static_cast<long long>(w.t)),
                    TextTable::FmtInt(static_cast<long long>(m)),
                    TextTable::Fmt(build_ms, 1),
                    radius.ok() ? TextTable::Fmt(radius_ms, 1) : "-",
                    kc.ok() ? TextTable::Fmt(k_ms, 1) : "-",
                    TextTable::Fmt(static_cast<double>(rss) / 1e6, 1)});
    }
    table.Print();
    bench::Note("The build collapses n rows to m = target_size weighted rows"
                " (greedy farthest-point over the deduplicated set, grid-"
                " pruned relaxations); the DP stages then run at summary"
                " size, so end-to-end wall time is the build plus a constant."
                " Outputs are bit-identical at any thread count"
                " (coreset_test); accuracy moves by at most the summary's"
                " coverage radius (eval_harness --coreset gate).");
  }

  bench::Banner(
      "Streaming maintenance (d=2, |X|=2^12, grid sized for t=256, 4 batches "
      "of 64 arrivals + 16 expiries after an untimed warm-up batch): "
      "incremental Insert/Remove vs rebuild-per-batch");
  {
    TextTable table({"n", "mutate ms", "rebuild ms", "speedup", "compact ms"});
    for (int lg : {14, 16, 18}) {
      const std::size_t n = std::size_t{1} << lg;
      const StreamingPoint p =
          RunStreamingMaintenance(n, 256, /*batches=*/4, /*batch_size=*/64,
                                  /*audit=*/lg == 14);
      if (!p.ok) continue;
      reporter.Add("StreamIncremental/t256", n, 2, 1, p.mutate_ms * 1e6);
      reporter.Add("StreamRebuildPerBatch/t256", n, 2, 1,
                   p.rebuild_ms * 1e6);
      reporter.Add("StreamCompact", n, 2, 1, p.compact_ms * 1e6);
      table.AddRow({TextTable::FmtInt(static_cast<long long>(n)),
                    TextTable::Fmt(p.mutate_ms, 3),
                    TextTable::Fmt(p.rebuild_ms, 1),
                    TextTable::Fmt(p.speedup(), 0),
                    TextTable::Fmt(p.compact_ms, 1)});
    }
    table.Print();
    bench::Note("Per-run totals over 4 timed batches: amortized-O(1)"
                " Inserts and O(1) Removes on the live grid, against a fresh"
                " index +"
                " grid over the same live rows per batch (what a stream"
                " without a maintained index pays before each solve)."
                " GoodRadius over the live index releases the bytes of the"
                " fresh one (audited per batch at n=2^14; streaming_test pins"
                " it). 'compact' is one live/total < 1/4 arena fold.");
  }

  reporter.Write();
  return 0;
}
