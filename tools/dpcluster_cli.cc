// dpcluster_cli — run any registered dpcluster algorithm on a CSV of points
// through the Solver façade.
//
// Usage:
//   dpcluster_cli --input points.csv --t 500 [options]
//   dpcluster_cli --demo                     # built-in synthetic instance
//   dpcluster_cli --list                     # list registered algorithms
//
// Input: one point per line, comma-separated coordinates, all in [0, axis].
// Every cell must be one whole finite number (surrounding blanks allowed);
// a malformed cell names its line and column and exits 1. A malformed or
// missing flag value exits 2 with usage.
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
//   --coreset       collapse large inputs to a weighted k-center summary and
//                   run the whole pipeline on it (changes released bytes;
//                   accuracy gated by the eval harness radius_ratio check).
//                   The only way to run more rows than the radius profile's
//                   cap (4096): without it such inputs exit 1, as the daemon
//                   refuses them
//   --coreset-target N      summary size ceiling        (default 2048)
//   --coreset-min-points N  below this n run uncompressed (default 65536)
//   --refine        spend part of the budget tightening the released radius
//   --ledger        print the per-phase privacy ledger
//   --stream-ticks N  replay mode: generate the "streaming" scenario family
//                   over N arrival/expiry ticks and drive it through the
//                   incremental index path (Insert/Remove + one
//                   SparseVector GoodRadius per tick), then check the
//                   final active set is byte-identical to indexing the
//                   instance directly. --seed/--levels/--axis/--epsilon/
//                   --delta/--beta/--t apply; exit 1 on a replay mismatch.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "dpcluster/dpcluster.h"
#include "parse_number.h"

namespace {

using namespace dpcluster;
using tools::ParseNumber;

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
               "       [--refine] [--ledger]\n"
               "       [--coreset] [--coreset-target N] [--coreset-min-points N]\n"
               "       [--stream-ticks N] [--help]\n"
               "--stream-ticks N replays the \"streaming\" scenario family\n"
               "through the incremental index (Insert/Remove + one\n"
               "SparseVector GoodRadius per tick) and checks the final\n"
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
    // The flag's value, parsed whole; false on a missing or malformed value.
    const auto number = [&](auto& out) {
      const char* v = next();
      if (v != nullptr && ParseNumber(v, out)) return true;
      std::fprintf(stderr, "malformed or missing value for %s\n",
                   arg.c_str());
      return false;
    };
    if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else if (arg == "--demo") {
      opt.demo = true;
    } else if (arg == "--list" || arg == "--list-algorithms") {
      opt.list = true;
    } else if (arg == "--refine") {
      opt.refine = true;
    } else if (arg == "--coreset") {
      opt.coreset = true;
    } else if (arg == "--coreset-target") {
      if (!number(opt.coreset_target)) return false;
    } else if (arg == "--coreset-min-points") {
      if (!number(opt.coreset_min_points)) return false;
    } else if (arg == "--stream-ticks") {
      if (!number(opt.stream_ticks)) return false;
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
    } else if (arg == "--t") {
      if (!number(opt.t)) return false;
    } else if (arg == "--k") {
      if (!number(opt.k)) return false;
    } else if (arg == "--fraction") {
      if (!number(opt.fraction)) return false;
    } else if (arg == "--epsilon") {
      if (!number(opt.epsilon)) return false;
    } else if (arg == "--delta") {
      if (!number(opt.delta)) return false;
    } else if (arg == "--levels") {
      if (!number(opt.levels)) return false;
    } else if (arg == "--axis") {
      if (!number(opt.axis)) return false;
    } else if (arg == "--beta") {
      if (!number(opt.beta)) return false;
    } else if (arg == "--seed") {
      if (!number(opt.seed)) return false;
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
/// stream endpoints use — Insert/Remove on a live IndexedDataset, then one
/// GoodRadius query per tick over it (the footnote-2 SparseVector engine;
/// the service runs RecConcave) — then verifies the scenario
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

  std::size_t next_arrival = 0;  // Arrivals are recorded in tick order.
  for (std::size_t tick = 0; tick < stream.ticks; ++tick) {
    std::size_t added = 0;
    while (next_arrival < total && stream.arrival_tick[next_arrival] == tick) {
      const auto id = live.Insert(stream.arrivals[next_arrival]);
      if (!id.ok() || *id != next_arrival) {
        std::fprintf(stderr, "error: insert at arrival %zu: %s\n",
                     next_arrival, id.status().ToString().c_str());
        return 1;
      }
      ++added;
      ++next_arrival;
    }
    std::vector<std::uint32_t> removed;
    for (std::size_t i = 0; i < next_arrival; ++i) {
      if (stream.expiry_tick[i] == tick) {
        removed.push_back(static_cast<std::uint32_t>(i));
      }
    }
    live.Remove(removed);

    GoodRadiusOptions radius_opts;
    radius_opts.engine = GoodRadiusOptions::Engine::kSparseVector;
    radius_opts.params = {opt.epsilon, opt.delta};
    radius_opts.beta = opt.beta;
    radius_opts.max_profile_points = total;
    Rng query_rng(opt.seed + 101 * (tick + 1));
    const auto radius = GoodRadius(query_rng, live, t, radius_opts);
    std::printf("tick %2zu: +%zu -%zu live=%zu radius=", tick, added,
                removed.size(), live.active_size());
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
    if (line.find_first_not_of(" \t\r") == std::string::npos ||
        line[0] == '#') {
      continue;
    }
    std::stringstream row(line);
    std::string cell;
    std::size_t cols = 0;
    while (std::getline(row, cell, ',')) {
      ++cols;
      // Blanks around a cell (and a CRLF line's '\r') are not part of it.
      const std::size_t first = cell.find_first_not_of(" \t\r");
      const std::size_t last = cell.find_last_not_of(" \t\r");
      const std::string_view text =
          first == std::string::npos
              ? std::string_view()
              : std::string_view(cell).substr(first, last - first + 1);
      double x = 0.0;
      if (!ParseNumber(text, x)) {
        return Status::InvalidArgument(
            path + ": line " + std::to_string(line_no) + ", column " +
            std::to_string(cols) + ": '" + cell +
            "' is not a finite number");
      }
      flat.push_back(x);
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
  request.tuning.coreset = opt.coreset;
  request.tuning.coreset_target_size = opt.coreset_target;
  request.tuning.coreset_min_points = opt.coreset_min_points;
  // k_cluster and outlier_screen refine by default (tuning.refine_fraction);
  // --refine opts the plain one_cluster release in as well.
  request.tuning.refine_one_cluster = opt.refine;

  if (opt.levels < 2 || !(opt.axis > 0.0)) {
    std::fprintf(stderr, "error: InvalidArgument: %s\n",
                 opt.levels < 2 ? "--levels must be >= 2"
                                : "--axis must be > 0");
    return 1;
  }
  if (opt.demo) {
    Rng demo_rng(opt.seed ^ 0x9E3779B97F4A7C15ULL);
    const bool line = opt.algorithm == "interior_point" ||
                      opt.algorithm == "threshold_release_1d";
    auto demo =
        GenerateScenario(demo_rng, {.n = 4096, .dim = line ? 1u : 2u,
                                    .levels = opt.levels,
                                    .axis_length = opt.axis,
                                    .cluster_radius = 0.02,
                                    .cluster_fraction = (1500 + 0.5) / 4096});
    if (!demo.ok()) {
      std::fprintf(stderr, "error: %s\n", demo.status().ToString().c_str());
      return 1;
    }
    const ScenarioInstance& w = *demo;
    request.data = w.points;
    request.domain = w.domain;
    request.t = opt.t > 0 ? opt.t : w.t;
    std::printf("# demo: planted cluster at (");
    for (std::size_t j = 0; j < w.primary().center.size(); ++j) {
      std::printf("%s%.4f", j ? ", " : "", w.primary().center[j]);
    }
    std::printf("), radius %.3f\n", w.primary().radius);
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
