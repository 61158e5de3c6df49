// Scenario workloads: the structured problem families the accuracy harness
// sweeps (ROADMAP "as many scenarios as you can imagine"). A ScenarioFamily
// deterministically generates labeled instances of the 1-cluster problem from
// a ScenarioSpec and a seeded Rng; the ground truth (per-point labels and the
// planted balls) makes utility computable end-to-end, which is what the
// evaluation harness in data/accuracy.h and the CI accuracy gate consume.
//
// The subsystem mirrors the api/ algorithm registry: families are registered
// by name in a ScenarioRegistry (data/registry.h). It is the library's one
// workload generator: the harness, the tests, the benches, the examples,
// dpcluster_cli --demo and the daemon benchmark all draw from it. Built-in
// families live in data/generators.cc.

#ifndef DPCLUSTER_DATA_SCENARIO_H_
#define DPCLUSTER_DATA_SCENARIO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dpcluster/common/status.h"
#include "dpcluster/geo/ball.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"
#include "dpcluster/random/rng.h"

namespace dpcluster {

/// Parameters of one scenario instance. Every family reads the shared fields
/// (n, dim, levels, axis_length) plus the knobs it understands and ignores
/// the rest — the same convention as Tuning on the api Request.
struct ScenarioSpec {
  /// Registry key, e.g. "planted_cluster"; ScenarioRegistry::Names() lists them.
  std::string scenario = "planted_cluster";
  /// Dataset size n.
  std::size_t n = 1024;
  /// Ambient dimension d.
  std::size_t dim = 2;
  /// Grid levels per axis |X|.
  std::uint64_t levels = std::uint64_t{1} << 12;
  /// Axis length of the cube domain.
  double axis_length = 1.0;

  // --- Family knobs -------------------------------------------------------
  /// Radius of the planted primary cluster, in cube units.
  double cluster_radius = 0.05;
  /// Fraction of the n points planted in the primary cluster: t is
  /// floor(cluster_fraction * n), so (t + 0.5) / n plants exactly t.
  double cluster_fraction = 0.25;
  /// Mixture families: number of components k.
  std::size_t k = 3;
  /// Gaussian mixture: per-component stddev.
  double sigma = 0.02;
  /// Gaussian mixture: minimum center separation, in units of sigma.
  double separation = 8.0;
  /// Gaussian mixture: weight ratio largest/smallest component (1 = balanced).
  double imbalance = 1.0;
  /// Fraction of points that are uniform background noise (mixture, outlier).
  double noise_fraction = 0.1;
  /// Heavy-tailed: Pareto tail index (smaller = heavier tail).
  double tail_index = 1.5;
  /// Axis-degenerate: number of coordinates the cluster actually varies in.
  std::size_t intrinsic_dim = 1;
  /// Grid-snapped: coarse sub-grid levels the cluster collapses onto.
  std::uint64_t snap_levels = 9;
  /// Annulus: shell thickness as a fraction of cluster_radius (0 = sphere).
  double shell_thickness = 0.1;
  /// Near-tie: relative radius advantage of the decoy cluster (0 = exact tie).
  double tie_margin = 0.05;
  /// Streaming: number of arrival/expiry ticks the schedule spans.
  std::size_t ticks = 8;

  /// Shared-field validation; family-specific checks are in ValidateSpec.
  Status Validate() const;
};

/// The arrival/expiry replay schedule a streaming family records alongside
/// its instance: every generated point in arrival order with the tick it
/// arrives and the tick it expires (expiry == ticks means it survives to the
/// end). The instance's own `points` hold exactly the surviving rows, in the
/// same relative order, so replaying the schedule through an incremental
/// IndexedDataset (Insert per arrival, Remove per expiry) ends in an active
/// set byte-identical to indexing the instance directly — that equivalence
/// is what dpcluster_cli --stream-ticks and the streaming benches check.
/// `ticks == 0` means the instance has no schedule (non-streaming families).
struct StreamSchedule {
  std::size_t ticks = 0;
  PointSet arrivals;                        // every point, arrival order
  std::vector<std::uint32_t> arrival_tick;  // first tick the point is live
  std::vector<std::uint32_t> expiry_tick;   // first tick it is gone
  /// The drifting planted ball per tick; back() is the instance's primary.
  std::vector<Ball> tick_balls;
};

/// A generated instance with ground truth. Points are snapped to the domain
/// grid; the truth fields are recorded before snapping (each point moves at
/// most step * sqrt(d) / 2 when snapped).
struct ScenarioInstance {
  /// The family that generated this instance.
  std::string scenario;
  GridDomain domain{2, 1};
  PointSet points;
  /// Target cluster size t: exactly the number of points labeled 0.
  std::size_t t = 0;
  /// Planted cluster balls; index 0 is the primary cluster the 1-cluster
  /// problem is asked about (the ball whose size is t).
  std::vector<Ball> true_balls;
  /// Per-point ground truth: index into true_balls, or -1 for background
  /// noise. labels.size() == points.size().
  std::vector<int> labels;
  /// Arrival/expiry replay schedule (streaming families only; see
  /// StreamSchedule — ticks == 0 everywhere else).
  StreamSchedule stream;

  const Ball& primary() const { return true_balls.front(); }

  /// Number of points carrying the given label.
  std::size_t LabelCount(int label) const;

  /// The weighted-distinct emission of this instance: byte-identical rows
  /// (grid_snapped's duplicate-heavy regime collapses n rows to the few
  /// occupied cells) merged into one weighted row each, in first-occurrence
  /// order, as a weighted IndexedDataset over `domain`. Weighted consumers
  /// (RadiusProfile, CountWithin, GoodRadius) release bytes
  /// bit-identical to running on the expanded rows — pinned by the weighted
  /// property tests. Instances with no duplicates return an all-weight-one
  /// index.
  Result<IndexedDataset> WeightedDistinctIndex() const;

  /// Structural invariants every generator must satisfy: sizes match, t
  /// equals the primary label count, balls present, points on the grid.
  Status CheckInvariants() const;
};

/// One scenario family: a named deterministic generator. Implementations must
/// be pure functions of (rng, spec) — identical seeds yield bit-identical
/// instances — and must fill labels/true_balls so CheckInvariants passes.
class ScenarioFamily {
 public:
  virtual ~ScenarioFamily() = default;

  /// Registry key ("gaussian_mixture", ...).
  virtual std::string_view name() const = 0;

  /// One-line human-readable description (harness --list output).
  virtual std::string_view description() const = 0;

  /// Family-specific spec checks, run after the generic ScenarioSpec::Validate.
  virtual Status ValidateSpec(const ScenarioSpec& spec) const = 0;

  /// Generates one instance. Draws only from `rng`.
  virtual Result<ScenarioInstance> Generate(Rng& rng,
                                            const ScenarioSpec& spec) const = 0;
};

}  // namespace dpcluster

#endif  // DPCLUSTER_DATA_SCENARIO_H_
