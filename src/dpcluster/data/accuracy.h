// Accuracy evaluation harness: scores Solver responses against a scenario's
// ground truth and sweeps scenario × algorithm × (epsilon, n, d) grids over
// repeated seeds, aggregating per-cell medians. This is the measured
// counterpart of the paper's Table 1 — radius blow-up, cluster coverage, and
// center placement relative to the *planted* truth instead of a non-private
// reference — and the substrate of the CI accuracy gate
// (tools/eval_harness.cc --smoke).

#ifndef DPCLUSTER_DATA_ACCURACY_H_
#define DPCLUSTER_DATA_ACCURACY_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "dpcluster/api/response.h"
#include "dpcluster/common/status.h"
#include "dpcluster/data/scenario.h"

namespace dpcluster {

/// Ground-truth-relative utility of one response on one instance. Ratios are
/// normalized by the reference radius: the tightest ball around the *true*
/// center capturing t points (floored at one grid step so degenerate
/// zero-radius truths stay finite).
struct AccuracyMetrics {
  /// Released radius / reference radius (the paper's w, against the truth).
  double radius_ratio = std::numeric_limits<double>::quiet_NaN();
  /// Fraction of the primary cluster's points inside the released ball.
  double coverage = 0.0;
  /// Distance from the released center to the true center / reference radius.
  double center_offset = std::numeric_limits<double>::quiet_NaN();
  /// Privacy budget the request actually charged.
  double eps_spent = 0.0;
  double delta_spent = 0.0;
  /// Wall-clock of the algorithm run, milliseconds.
  double wall_ms = 0.0;
};

/// The instance's reference radius: the tightest ball around the *true*
/// center capturing t points, floored at one grid step. Constant per
/// instance — compute it once when scoring many responses.
double ReferenceRadius(const ScenarioInstance& instance);

/// Scores `response` against the instance's ground truth. InvalidArgument if
/// the response released no ball of the instance's dimension.
Result<AccuracyMetrics> ScoreResponse(const ScenarioInstance& instance,
                                      const Response& response);

/// Same, with a precomputed ReferenceRadius(instance).
Result<AccuracyMetrics> ScoreResponse(const ScenarioInstance& instance,
                                      const Response& response,
                                      double reference_radius);

/// The sweep grid: every scenario × algorithm × epsilon × n × dim cell runs
/// `trials` times on independently seeded instances.
struct SweepConfig {
  /// Scenario family names; empty = every family in the global registry.
  std::vector<std::string> scenarios;
  /// Algorithm registry names to serve each instance with.
  std::vector<std::string> algorithms = {"one_cluster", "noisy_mean_baseline",
                                         "nonprivate"};
  /// Defaults sized so the paper pipeline clears its noise floor (one_cluster
  /// needs roughly eps >= 1 at n = 4096, levels = 1024, d = 2).
  std::vector<double> epsilons = {1.0, 2.0, 4.0};
  double delta = 1e-6;
  std::vector<std::size_t> ns = {4096};
  std::vector<std::size_t> dims = {2};
  std::uint64_t levels = std::uint64_t{1} << 10;
  /// Repeated seeds per cell (median aggregation).
  std::size_t trials = 5;
  std::uint64_t seed = 2016;
  std::size_t num_threads = 1;
  /// Spend a budget fraction tightening released radii (one_cluster): the
  /// refined radius tracks utility far better than the worst-case guarantee
  /// radius, so the sweep measures it by default.
  bool refine = true;
  /// When non-zero, cap GoodCenter's JL projection dimension at this value
  /// (Tuning::max_jl_dim) for every request; 0 keeps the algorithm default.
  /// eval_harness --jl-dim-sweep runs the sweep once per cap to map the
  /// accuracy/cost frontier of the projection dimension.
  std::size_t max_jl_dim = 0;
  /// Coreset stage knobs forwarded to every request (Tuning::coreset*): with
  /// `coreset` set, inputs of at least coreset_min_points rows are collapsed
  /// to a weighted k-center summary before the pipeline runs. The --smoke
  /// gate uses this to pin the compressed pipeline's radius_ratio to a fixed
  /// factor of the uncompressed reference.
  bool coreset = false;
  std::size_t coreset_min_points = 65536;
  std::size_t coreset_target_size = 2048;

  Status Validate() const;
};

/// One aggregated cell of the sweep.
struct SweepCell {
  std::string scenario;
  std::string algorithm;
  double epsilon = 0.0;
  std::size_t n = 0;
  std::size_t dim = 0;
  /// Trials attempted / trials whose Solver run or scoring failed.
  std::size_t trials = 0;
  std::size_t failures = 0;
  /// Per-field medians over the successful trials (NaN-filled when all fail).
  AccuracyMetrics median;
  /// Last failure message, when failures > 0.
  std::string note;
};

/// Runs the sweep through the Solver façade: per instance, the full
/// algorithm × epsilon grid goes through Solver::RunAll as one batch. Cells
/// come back ordered scenario-major, then (n, dim, algorithm, epsilon).
Result<std::vector<SweepCell>> RunAccuracySweep(const SweepConfig& config);

/// The cell with the given coordinates (first n/dim combination), or nullptr.
const SweepCell* FindCell(const std::vector<SweepCell>& cells,
                          std::string_view scenario, std::string_view algorithm,
                          double epsilon);

/// Writes the sweep as BENCH_accuracy.json-style JSON ({"config", "cells"});
/// returns false (and prints to stderr) on IO failure.
bool WriteAccuracyJson(const std::string& path, const SweepConfig& config,
                       const std::vector<SweepCell>& cells);

/// Prints the cells to stdout as one table per scenario × (n, dim) group
/// (cells must be in RunAccuracySweep's order), as eval_harness prints them.
void PrintSweepTables(const std::vector<SweepCell>& cells);

}  // namespace dpcluster

#endif  // DPCLUSTER_DATA_ACCURACY_H_
