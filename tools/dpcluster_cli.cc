// dpcluster_cli — run any registered dpcluster algorithm on a CSV of points
// through the Solver façade.
//
// Usage:
//   dpcluster_cli --input points.csv --t 500 [options]
//   dpcluster_cli --demo                     # built-in synthetic instance
//   dpcluster_cli --list                     # list registered algorithms
//
// Input: one point per line, comma-separated coordinates, all in [0, axis].
//
// Options:
//   --algorithm A   registry name (see --list)  (default one_cluster)
//   --mode M        legacy alias: cluster | outlier | interior
//   --t T           target cluster size
//   --k K           number of balls (k_cluster) (default 2)
//   --fraction F    inlier fraction (outlier_screen)   (default 0.9)
//   --epsilon E     privacy epsilon            (default 2.0)
//   --delta D       privacy delta              (default 1e-9)
//   --levels L      grid levels per axis |X|   (default 65536)
//   --axis A        axis length of the cube    (default 1.0)
//   --beta B        utility failure prob       (default 0.1)
//   --seed S        RNG seed                   (default 2016)
//   --profile-index I  GoodRadius L(r,S) event generator: auto | grid | exact
//                   (bit-identical outputs; grid is ~O(n t) at low dimension)
//   --shared-index  prebuild one geo/IndexedDataset over the input and lend
//                   it to the algorithm (the Solver::RunAll index-reuse hook;
//                   bit-identical outputs, k_cluster amortizes k index
//                   builds to one)
//   --subsample-cap-factor F  multiplier on the subsample cap when the grid
//                   profile path is active (>= 1; default 10)
//   --coreset       collapse large inputs to a weighted k-center summary and
//                   run the whole pipeline on it (changes released bytes;
//                   accuracy gated by the eval harness radius_ratio check)
//   --coreset-target N      summary size ceiling        (default 2048)
//   --coreset-min-points N  below this n run uncompressed (default 65536)
//   --refine        spend part of the budget tightening the released radius
//   --ledger        print the per-phase privacy ledger
//   --stream-ticks N  replay mode: generate the "streaming" scenario family
//                   over N arrival/expiry ticks and drive it through the
//                   incremental index path (Insert/Remove + t-NN row
//                   patching + one GoodRadius per tick), then check the
//                   final active set is byte-identical to indexing the
//                   instance directly. --seed/--levels/--axis/--epsilon/
//                   --delta/--beta/--t apply; exit 1 on a replay mismatch.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dpcluster/dpcluster.h"

namespace {

using namespace dpcluster;

struct CliOptions {
  std::string input;
  bool demo = false;
  bool list = false;
  bool help = false;
  bool ledger = false;
  std::string algorithm;
  std::string mode;
  std::size_t t = 0;
  std::size_t k = 2;
  double fraction = 0.9;
  double epsilon = 2.0;
  double delta = 1e-9;
  std::uint64_t levels = 1u << 16;
  double axis = 1.0;
  double beta = 0.1;
  std::uint64_t seed = 2016;
  bool refine = false;
  std::string profile_index = "auto";
  bool shared_index = false;
  double subsample_cap_factor = 10.0;
  bool coreset = false;
  std::size_t coreset_target = 2048;
  std::size_t coreset_min_points = 65536;
  std::size_t stream_ticks = 0;
};

void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: dpcluster_cli (--input points.csv --t T | --demo | --list)\n"
               "       [--algorithm NAME] [--mode cluster|outlier|interior]\n"
               "       [--t T] [--k K] [--fraction F] [--epsilon E] [--delta D]\n"
               "       [--levels L] [--axis A] [--beta B] [--seed S]\n"
               "       [--profile-index auto|grid|exact] [--shared-index]\n"
               "       [--subsample-cap-factor F] [--refine] [--ledger]\n"
               "       [--coreset] [--coreset-target N] [--coreset-min-points N]\n"
               "       [--stream-ticks N] [--help]\n"
               "--stream-ticks N replays the \"streaming\" scenario family\n"
               "through the incremental index (Insert/Remove + t-NN row\n"
               "patches + one GoodRadius per tick) and checks the final\n"
               "active set against indexing the instance directly;\n"
               "see docs/TUNING.md for what each performance knob does;\n"
               "docs/OPERATIONS.md covers the resident daemon (dpcluster_serve)\n");
}

/// Maps the legacy --mode values onto registry names.
std::string AlgorithmFromMode(const std::string& mode) {
  if (mode == "cluster") return "one_cluster";
  if (mode == "outlier") return "outlier_screen";
  if (mode == "interior") return "interior_point";
  return mode;  // Allow --mode to name an algorithm directly.
}

bool ParseArgs(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else if (arg == "--demo") {
      opt.demo = true;
    } else if (arg == "--list" || arg == "--list-algorithms") {
      opt.list = true;
    } else if (arg == "--refine") {
      opt.refine = true;
    } else if (arg == "--shared-index") {
      opt.shared_index = true;
    } else if (arg == "--subsample-cap-factor") {
      const char* v = next();
      if (!v) return false;
      opt.subsample_cap_factor = std::strtod(v, nullptr);
    } else if (arg == "--coreset") {
      opt.coreset = true;
    } else if (arg == "--coreset-target") {
      const char* v = next();
      if (!v) return false;
      opt.coreset_target =
          static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--coreset-min-points") {
      const char* v = next();
      if (!v) return false;
      opt.coreset_min_points =
          static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--stream-ticks") {
      const char* v = next();
      if (!v) return false;
      opt.stream_ticks =
          static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--ledger") {
      opt.ledger = true;
    } else if (arg == "--input") {
      const char* v = next();
      if (!v) return false;
      opt.input = v;
    } else if (arg == "--algorithm") {
      const char* v = next();
      if (!v) return false;
      opt.algorithm = v;
    } else if (arg == "--mode") {
      const char* v = next();
      if (!v) return false;
      opt.mode = v;
    } else if (arg == "--profile-index") {
      const char* v = next();
      if (!v) return false;
      opt.profile_index = v;
    } else if (arg == "--t") {
      const char* v = next();
      if (!v) return false;
      opt.t = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--k") {
      const char* v = next();
      if (!v) return false;
      opt.k = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--fraction") {
      const char* v = next();
      if (!v) return false;
      opt.fraction = std::strtod(v, nullptr);
    } else if (arg == "--epsilon") {
      const char* v = next();
      if (!v) return false;
      opt.epsilon = std::strtod(v, nullptr);
    } else if (arg == "--delta") {
      const char* v = next();
      if (!v) return false;
      opt.delta = std::strtod(v, nullptr);
    } else if (arg == "--levels") {
      const char* v = next();
      if (!v) return false;
      opt.levels = std::strtoull(v, nullptr, 10);
    } else if (arg == "--axis") {
      const char* v = next();
      if (!v) return false;
      opt.axis = std::strtod(v, nullptr);
    } else if (arg == "--beta") {
      const char* v = next();
      if (!v) return false;
      opt.beta = std::strtod(v, nullptr);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (opt.algorithm.empty()) {
    opt.algorithm =
        opt.mode.empty() ? "one_cluster" : AlgorithmFromMode(opt.mode);
  }
  return opt.help || opt.list || opt.demo || opt.stream_ticks > 0 ||
         !opt.input.empty();
}

/// The --stream-ticks replay: drives the "streaming" scenario's recorded
/// arrival/expiry schedule through the incremental index path the service's
/// stream endpoints use — Insert/Remove on a live IndexedDataset, t-NN rows
/// patched per tick via KnnCappedCounts::ApplyBatch, one GoodRadius query
/// per tick served from the patched rows — then verifies the scenario
/// contract (data/scenario.h): the final active set is byte-identical to
/// indexing the instance directly.
int RunStreamReplay(const CliOptions& opt) {
  ScenarioSpec spec;
  spec.scenario = "streaming";
  spec.ticks = opt.stream_ticks;
  spec.levels = opt.levels;
  spec.axis_length = opt.axis;
  Rng gen(opt.seed);
  auto instance = GenerateScenario(gen, spec);
  if (!instance.ok()) {
    std::fprintf(stderr, "error: %s\n", instance.status().ToString().c_str());
    return 1;
  }
  const StreamSchedule& stream = instance->stream;
  const std::size_t total = stream.arrivals.size();
  const std::size_t t = opt.t > 0 ? opt.t : instance->t;
  std::printf(
      "# streaming replay: %zu arrivals over %zu ticks, final n=%zu t=%zu "
      "eps=%g/tick\n",
      total, stream.ticks, instance->points.size(), t, opt.epsilon);

  auto live_or =
      IndexedDataset::Create(PointSet(instance->points.dim()),
                             instance->domain);
  if (!live_or.ok()) {
    std::fprintf(stderr, "error: %s\n", live_or.status().ToString().c_str());
    return 1;
  }
  IndexedDataset live = std::move(*live_or);
  std::optional<KnnCappedCounts> rows;

  std::size_t next_arrival = 0;  // Arrivals are recorded in tick order.
  for (std::size_t tick = 0; tick < stream.ticks; ++tick) {
    std::vector<std::uint32_t> added;
    while (next_arrival < total && stream.arrival_tick[next_arrival] == tick) {
      const auto id = live.Insert(stream.arrivals[next_arrival]);
      if (!id.ok() || *id != next_arrival) {
        std::fprintf(stderr, "error: insert at arrival %zu: %s\n",
                     next_arrival, id.status().ToString().c_str());
        return 1;
      }
      added.push_back(static_cast<std::uint32_t>(next_arrival));
      ++next_arrival;
    }
    std::vector<std::uint32_t> removed;
    for (std::size_t i = 0; i < next_arrival; ++i) {
      if (stream.expiry_tick[i] == tick) {
        removed.push_back(static_cast<std::uint32_t>(i));
      }
    }
    live.Remove(removed);

    std::size_t patched = 0;
    if (!rows.has_value()) {
      auto built = KnnCappedCounts::Build(live, t, total);
      if (!built.ok()) {
        std::fprintf(stderr, "error: t-NN rows at tick %zu: %s\n", tick,
                     built.status().ToString().c_str());
        return 1;
      }
      rows = std::move(*built);
    } else {
      if (Status patch = rows->ApplyBatch(live, added, removed);
          !patch.ok()) {
        std::fprintf(stderr, "error: ApplyBatch at tick %zu: %s\n", tick,
                     patch.ToString().c_str());
        return 1;
      }
      patched = rows->last_invalidated();
    }

    GoodRadiusOptions radius_opts;
    radius_opts.engine = GoodRadiusOptions::Engine::kSparseVector;
    radius_opts.params = {opt.epsilon, opt.delta};
    radius_opts.beta = opt.beta;
    radius_opts.max_profile_points = total;
    radius_opts.shared_counts = &*rows;
    Rng query_rng(opt.seed + 101 * (tick + 1));
    const auto radius = GoodRadius(query_rng, live, t, radius_opts);
    std::printf("tick %2zu: +%zu -%zu live=%zu patched_rows=%zu radius=",
                tick, added.size(), removed.size(), live.active_size(),
                patched);
    if (radius.ok()) {
      std::printf("%.6f\n", radius->radius);
    } else {
      std::printf("- (%s)\n",
                  std::string(radius.status().message()).c_str());
    }
  }

  const PointSet final_view = live.ActiveView();
  const auto want = instance->points.Data();
  const auto got = final_view.Data();
  const bool match = final_view.size() == instance->points.size() &&
                     final_view.dim() == instance->points.dim() &&
                     std::equal(got.begin(), got.end(), want.begin());
  std::printf("replay check: incremental active set vs direct index: %s\n",
              match ? "byte-identical (OK)" : "MISMATCH");
  return match ? 0 : 1;
}

Result<PointSet> LoadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::InvalidArgument("cannot open " + path);
  std::string line;
  std::size_t dim = 0;
  std::vector<double> flat;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::stringstream row(line);
    std::string cell;
    std::size_t cols = 0;
    while (std::getline(row, cell, ',')) {
      flat.push_back(std::strtod(cell.c_str(), nullptr));
      ++cols;
    }
    if (dim == 0) {
      dim = cols;
    } else if (cols != dim) {
      return Status::InvalidArgument("ragged CSV at line " +
                                     std::to_string(line_no));
    }
  }
  if (dim == 0) return Status::InvalidArgument("empty input " + path);
  return PointSet(dim, std::move(flat));
}

int ListAlgorithms() {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  std::printf("registered algorithms (%zu):\n", registry.size());
  for (const std::string& name : registry.Names()) {
    const auto algorithm = registry.Lookup(name);
    if (!algorithm.ok()) continue;
    std::printf("  %-22s [%s]\n      %s\n", name.c_str(),
                ProblemKindName((*algorithm)->kind()),
                std::string((*algorithm)->description()).c_str());
  }
  return 0;
}

void PrintVector(const char* label, std::span<const double> v) {
  std::printf("%s", label);
  for (std::size_t j = 0; j < v.size(); ++j) {
    std::printf("%s%.6f", j ? "," : "", v[j]);
  }
  std::printf("\n");
}

int main_impl(int argc, char** argv) {
  CliOptions opt;
  if (!ParseArgs(argc, argv, opt)) {
    Usage(stderr);
    return 2;
  }
  if (opt.help) {
    Usage(stdout);
    return 0;
  }
  if (opt.list) return ListAlgorithms();
  if (opt.stream_ticks > 0) return RunStreamReplay(opt);

  Request request;
  request.algorithm = opt.algorithm;
  request.budget = {opt.epsilon, opt.delta};
  request.beta = opt.beta;
  request.k = opt.k;
  request.inlier_fraction = opt.fraction;
  request.tuning.subsample_large_inputs = true;
  const auto profile_index = ProfileIndexFromName(opt.profile_index);
  if (!profile_index.ok()) {
    std::fprintf(stderr, "%s\n", profile_index.status().ToString().c_str());
    return 2;
  }
  request.tuning.profile_index = *profile_index;
  request.tuning.subsample_grid_cap_factor = opt.subsample_cap_factor;
  request.tuning.coreset = opt.coreset;
  request.tuning.coreset_target_size = opt.coreset_target;
  request.tuning.coreset_min_points = opt.coreset_min_points;
  // k_cluster and outlier_screen refine by default (tuning.refine_fraction);
  // --refine opts the plain one_cluster release in as well.
  request.tuning.refine_one_cluster = opt.refine;

  if (opt.demo) {
    Rng demo_rng(opt.seed ^ 0x9E3779B97F4A7C15ULL);
    PlantedClusterSpec spec;
    spec.n = 4096;
    spec.t = 1500;
    spec.dim = opt.algorithm == "interior_point" ||
                       opt.algorithm == "threshold_release_1d"
                   ? 1
                   : 2;
    spec.levels = opt.levels;
    spec.cluster_radius = 0.02;
    const ClusterWorkload w = MakePlantedCluster(demo_rng, spec);
    request.data = w.points;
    request.domain = w.domain;
    request.t = opt.t > 0 ? opt.t : spec.t;
    std::printf("# demo: planted cluster at (");
    for (std::size_t j = 0; j < w.planted.center.size(); ++j) {
      std::printf("%s%.4f", j ? ", " : "", w.planted.center[j]);
    }
    std::printf("), radius %.3f\n", spec.cluster_radius);
  } else {
    auto loaded = LoadCsv(opt.input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    request.data = std::move(*loaded);
    request.domain = GridDomain(opt.levels, request.data.dim(), opt.axis);
    request.domain->SnapAll(request.data);
    request.t = opt.t;
  }

  // Legacy outlier semantics: an explicit --t names the inlier count, i.e.
  // inlier_fraction = t/n (no --t keeps the 0.9 default).
  if (request.algorithm == "outlier_screen" && opt.t > 0) {
    request.inlier_fraction =
        std::min(1.0, static_cast<double>(opt.t) /
                          static_cast<double>(request.data.size()));
  }

  std::printf("# %s: n=%zu d=%zu t=%zu eps=%g delta=%g |X|=%llu\n",
              request.algorithm.c_str(), request.data.size(),
              request.data.dim(), request.t, opt.epsilon, opt.delta,
              static_cast<unsigned long long>(opt.levels));

  if (opt.shared_index) {
    auto index = BuildSharedIndex(request);
    if (!index.ok()) {
      std::fprintf(stderr, "error: %s\n", index.status().ToString().c_str());
      return 1;
    }
    request.shared_index = std::move(*index);
    std::printf("# shared geometry index attached (n=%zu)\n",
                request.shared_index->size());
  }

  SolverOptions solver_options;
  solver_options.seed = opt.seed;
  Solver solver(solver_options);
  const auto response = solver.Run(request);
  if (!response.ok()) {
    std::fprintf(stderr, "error: %s\n", response.status().ToString().c_str());
    return 1;
  }

  if (!std::isnan(response->scalar)) {
    std::printf("scalar=%.6f\n", response->scalar);
  } else if (response->balls.size() > 1) {
    for (std::size_t i = 0; i < response->balls.size(); ++i) {
      std::printf("ball[%zu]: ", i);
      PrintVector("center=", response->balls[i].center);
      std::printf("         radius=%.6f\n", response->balls[i].radius);
    }
  } else if (!response->ball.center.empty()) {
    PrintVector("center=", response->ball.center);
    std::printf("radius=%.6f\n", response->ball.radius);
  }
  std::printf("charged eps=%.6g delta=%.3g over %zu interactions\n",
              response->charged.epsilon, response->charged.delta,
              response->ledger.interactions());
  if (response->diagnostics.has_value()) {
    std::printf("diagnostics: captured=%zu of t=%zu, tight_radius=%.6f, "
                "w_effective=%.2f\n",
                response->diagnostics->captured, request.t,
                response->diagnostics->tight_radius,
                response->diagnostics->w_effective);
  }
  if (!response->note.empty()) {
    std::printf("note: %s\n", response->note.c_str());
  }
  std::printf("wall_ms=%.1f\n", response->wall_ms);
  if (opt.ledger) {
    std::printf("%s\n", response->ledger.Report().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return main_impl(argc, argv); }
