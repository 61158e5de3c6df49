// E13 — micro-benchmarks of the DP and geometry primitives the pipeline is
// built from (S2, S6-S13 in DESIGN.md).
//
// Two layers:
//  * A headline section that times the blocked kernel against a frozen copy
//    of the pre-PR serial implementation (per-point JL projection) and
//    writes every measurement to BENCH_primitives.json so the perf
//    trajectory is machine-readable across PRs. `--smoke` shrinks the repetitions and turns the JL speedup ratio
//    into a hard floor (exit 1), which is what CI runs so kernel regressions
//    fail loudly.
//  * The google-benchmark suite over the remaining primitives (skipped under
//    --smoke).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "dpcluster/core/radius_profile.h"
#include "dpcluster/dp/above_threshold.h"
#include "dpcluster/dp/exponential_mechanism.h"
#include "dpcluster/dp/noisy_average.h"
#include "dpcluster/dp/stable_histogram.h"
#include "dpcluster/dp/step_function.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/la/jl_transform.h"
#include "dpcluster/la/qr.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/parallel/thread_pool.h"
#include "dpcluster/random/distributions.h"

namespace dpcluster {
namespace {

// ------------------------------------------------------------------------
// Frozen pre-PR reference implementations (the serial baselines the
// acceptance speedups are measured against — do not "optimize" these).
// ------------------------------------------------------------------------

// Seed-era GoodCenter step 1: one matrix-vector Apply per point.
void ReferenceJlLoop(const JlTransform& jl, const PointSet& s, Matrix& out) {
  for (std::size_t i = 0; i < s.size(); ++i) jl.Apply(s[i], out.Row(i));
}

// ------------------------------------------------------------------------
// Headline section.
// ------------------------------------------------------------------------

PointSet ClusteredCube(Rng& rng, std::size_t n, std::size_t d) {
  PointSet s(d);
  const std::vector<double> c(d, 0.5);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      s.Add(SampleBall(rng, c, 0.1));
    } else {
      std::vector<double> p(d);
      for (double& x : p) x = rng.NextDouble();
      s.Add(p);
    }
  }
  return s;
}

template <typename F>
double BestOfMs(int reps, F&& f) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) best = std::min(best, bench::TimeMs(f));
  return best;
}

// Returns the batched JL projection's serial speedup over the per-point loop.
double RunHeadline(bench::JsonReporter& reporter, bool smoke) {
  double jl_speedup = 0.0;
  const int reps = smoke ? 2 : 5;
  Rng rng(20260730);
  const std::size_t hw = ThreadPool(0).num_threads();

  bench::Banner("Batched JL projection: per-point baseline vs ApplyAll");
  {
    const std::size_t n = 4096, d = 256, k = 16;
    const PointSet s = ClusteredCube(rng, n, d);
    const JlTransform jl(rng, d, k);
    Matrix loop_out(n, k);
    const double loop_ms =
        BestOfMs(reps, [&] { ReferenceJlLoop(jl, s, loop_out); });
    ThreadPool serial(1);
    const double batched_ms = BestOfMs(reps, [&] {
      benchmark::DoNotOptimize(jl.ApplyAll(s, &serial));
    });
    ThreadPool pool(0);
    const double batched_mt_ms = BestOfMs(reps, [&] {
      benchmark::DoNotOptimize(jl.ApplyAll(s, &pool));
    });
    jl_speedup = loop_ms / batched_ms;
    bench::Note("n=" + std::to_string(n) + " d=" + std::to_string(d) + " k=" +
                std::to_string(k) + ": loop " + std::to_string(loop_ms) +
                " ms, ApplyAll(1T) " + std::to_string(batched_ms) +
                " ms, ApplyAll(" + std::to_string(hw) + "T) " +
                std::to_string(batched_mt_ms) + " ms  =>  " +
                std::to_string(jl_speedup) + "x serial speedup");
    const double per_op = 1e6 / static_cast<double>(n);
    reporter.Add("JlTransform::Apply[loop-baseline]", n, d, 1, loop_ms * per_op);
    reporter.Add("JlTransform::ApplyAll", n, d, 1, batched_ms * per_op);
    reporter.Add("JlTransform::ApplyAll", n, d, hw, batched_mt_ms * per_op);
  }

  return jl_speedup;
}

// ------------------------------------------------------------------------
// google-benchmark suite (full mode only).
// ------------------------------------------------------------------------

void BM_SampleLaplace(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleLaplace(rng, 1.0));
  }
}
BENCHMARK(BM_SampleLaplace);

void BM_SampleGaussian(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleGaussian(rng, 1.0));
  }
}
BENCHMARK(BM_SampleGaussian);

void BM_ExpMechStepFunction(benchmark::State& state) {
  Rng rng(3);
  const auto pieces = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> starts(pieces);
  std::vector<double> values(pieces);
  for (std::size_t p = 0; p < pieces; ++p) {
    starts[p] = p * 1000;
    values[p] = static_cast<double>(p % 50);
  }
  const StepFunction q = StepFunction::FromBreakpoints(
      pieces * 1000 + 5, std::move(starts), std::move(values));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExponentialMechanism::SelectFromStepFunction(rng, q, 1.0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(pieces));
}
BENCHMARK(BM_ExpMechStepFunction)->Arg(1000)->Arg(100000);

void BM_AboveThresholdQuery(benchmark::State& state) {
  Rng rng(4);
  auto at = AboveThreshold::Create(rng, 1.0, 1e12);  // Never fires.
  for (auto _ : state) {
    benchmark::DoNotOptimize(at->Process(rng, 1.0));
  }
}
BENCHMARK(BM_AboveThresholdQuery);

void BM_StableHistogram(benchmark::State& state) {
  Rng rng(5);
  const auto cells = static_cast<std::size_t>(state.range(0));
  std::unordered_map<std::int64_t, std::size_t> counts;
  for (std::size_t c = 0; c < cells; ++c) counts[static_cast<std::int64_t>(c)] = c % 97 + 1;
  counts[-1] = 100000;
  const PrivacyParams params{1.0, 1e-9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        (ChooseHeavyCell<std::int64_t, std::hash<std::int64_t>>(rng, counts,
                                                                params)));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(cells));
}
BENCHMARK(BM_StableHistogram)->Arg(1000)->Arg(10000);

void BM_NoisyAverage(benchmark::State& state) {
  Rng rng(6);
  const auto n = static_cast<std::size_t>(state.range(0));
  PointSet s(8);
  const std::vector<double> center(8, 0.5);
  for (std::size_t i = 0; i < n; ++i) s.Add(SampleBall(rng, center, 0.1));
  const PrivacyParams params{1.0, 1e-9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(NoisyAverage(rng, s, center, 0.2, params));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_NoisyAverage)->Arg(1000)->Arg(10000);

void BM_JlProject(benchmark::State& state) {
  Rng rng(7);
  const auto d = static_cast<std::size_t>(state.range(0));
  const JlTransform jl(rng, d, 16);
  std::vector<double> x(d, 0.3);
  std::vector<double> out(16);
  for (auto _ : state) {
    jl.Apply(x, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_JlProject)->Arg(16)->Arg(256);

void BM_JlProjectAll(benchmark::State& state) {
  Rng rng(7);
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = 256;
  const JlTransform jl(rng, d, 16);
  PointSet s(d);
  std::vector<double> x(d, 0.3);
  for (std::size_t i = 0; i < n; ++i) s.Add(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(jl.ApplyAll(s));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_JlProjectAll)->Arg(1024)->Arg(4096);

void BM_RandomOrthonormalBasis(benchmark::State& state) {
  Rng rng(8);
  const auto d = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RandomOrthonormalBasis(rng, d));
  }
}
BENCHMARK(BM_RandomOrthonormalBasis)->Arg(16)->Arg(64);

void BM_RadiusProfileBuild(benchmark::State& state) {
  Rng rng(9);
  const auto n = static_cast<std::size_t>(state.range(0));
  const GridDomain domain(1u << 12, 2);
  PointSet s(2);
  std::vector<double> p(2);
  for (std::size_t i = 0; i < n; ++i) {
    p[0] = domain.Snap(rng.NextDouble());
    p[1] = domain.Snap(rng.NextDouble());
    s.Add(p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(RadiusProfile::Build(s, n / 2, domain, n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RadiusProfileBuild)->Arg(256)->Arg(1024);

void BM_StepFunctionWindowMin(benchmark::State& state) {
  const auto pieces = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> starts(pieces);
  std::vector<double> values(pieces);
  for (std::size_t p = 0; p < pieces; ++p) {
    starts[p] = p * 7;
    values[p] = static_cast<double>((p * 31) % 100);
  }
  const StepFunction f = StepFunction::FromBreakpoints(
      pieces * 7 + 3, std::move(starts), std::move(values));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.MaxEndpointWindowMin(pieces));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(pieces));
}
BENCHMARK(BM_StepFunctionWindowMin)->Arg(1000)->Arg(100000);

}  // namespace
}  // namespace dpcluster

int main(int argc, char** argv) {
  using namespace dpcluster;
  bool smoke = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }

  bench::JsonReporter reporter("BENCH_primitives.json");
  const double jl_speedup = RunHeadline(reporter, smoke);
  reporter.Write();

  if (smoke) {
    // Regression floor, deliberately below the recorded ~2x speedup so shared
    // CI runners don't flake, but far above any "kernel fell back to scalar"
    // regression.
    const bool ok = jl_speedup >= 1.2;
    if (!ok) {
      std::fprintf(stderr,
                   "FAIL: batched JL speedup %.2fx < 1.2x regression floor\n",
                   jl_speedup);
    }
    std::printf("smoke: jl %.2fx (floor 1.2x) => %s\n", jl_speedup,
                ok ? "OK" : "FAIL");
    return ok ? 0 : 1;
  }

  int gb_argc = static_cast<int>(args.size());
  benchmark::Initialize(&gb_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
