// RadiusProfile: the exact function L(r, S) of Algorithm 1 (GoodRadius),
//   L(r, S) = (1/t) max_{distinct i_1..i_t} sum_j min(B_r(x_{i_j}, S), t),
// materialized as a StepFunction of the radius.
//
// L is evaluated on a grid twice as fine as GoodRadius's solution grid
// {0, 1/(2|X|), ...} so that both L(r) and L(r/2) (the two ingredients of the
// quality Q of Algorithm 1, step 3) are exact lookups: solution index g maps
// to fine index 2g for L(r) and fine index g for L(r/2).
//
// Construction is an event sweep: each pair (i, j) raises B_.(x_i) by one at
// the fine index ceil(dist(i,j)/fine_step), and an amortized-O(1) tracker
// maintains the sum of the t largest capped counts. Two event generators
// yield the same profile:
//
//  * kGrid   — per point, its t-1 nearest neighbors plus possibly a few
//    farther ones (SpatialGrid::BatchKnnSupersetFor, at most 2(t-1) per
//    row, never closer than the (t-1)-th), found through a geo/SpatialGrid
//    index in ~O(n t) work at low dimension with no per-point selection,
//    and grouped by fine index with one counting sort over 4-byte center
//    ids. The distance rows are computed one block of rows at a time and
//    kept only as 4-byte fine indices, so a build holds ~8 bytes per event.
//    This is lossless pruning, not an approximation: every per-center count
//    is capped at t, so a center's increments beyond its t-1 nearest
//    neighbors are no-ops in the exact sweep — at any fine
//    index below the (t-1)-th neighbor's, the extras have not arrived, and
//    from that index on the count is saturated either way — and the
//    tracker's state after each fine index is a function of the count
//    histogram alone. The resulting StepFunction is therefore bit-identical
//    to the exact sweep's — same breakpoints, same values — which
//    determinism_test and radius_profile_test pin across all scenario
//    families and thread counts.
//  * kExact  — all n(n-1) ordered pairs, index-sorted, through the weighted
//    (coreset) generator and sweep with unit weights: the O(n^2 (d + log n))
//    quadratic core of Algorithm 1 as written. It is the oracle the tests
//    compare kGrid against; no production caller selects it.

#ifndef DPCLUSTER_CORE_RADIUS_PROFILE_H_
#define DPCLUSTER_CORE_RADIUS_PROFILE_H_

#include <cstdint>

#include "dpcluster/common/status.h"
#include "dpcluster/dp/step_function.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"

namespace dpcluster {

class IndexedDataset;
class ThreadPool;

/// How RadiusProfile::Build generates the pair events (see file comment).
/// Both yield bit-identical profiles; only the runtime differs. Library
/// callers take the kGrid default; the knob stays on Build and on
/// GoodRadiusOptions so tests and benches can run the oracle.
enum class ProfileIndex {
  kGrid,   ///< t-NN pruned events through a geo/SpatialGrid (the default).
  kExact,  ///< All-pairs event sweep, O(n^2 (d + log n)): the test oracle.
};

/// A single-value placeholder kept for one caller: the daemon benchmark's
/// tracer (daemon_bench/trace.cc) names GoodRadiusOptions::index_geometry and
/// passes it as Build's last argument, and that directory changes only with
/// the benchmark itself. The cell grid over the data's own coordinates is the
/// only spatial index, so the value configures nothing and Build ignores it;
/// the next change to the benchmark drops the field, the parameter and this
/// type.
enum class IndexGeometry { kExact };

/// Exact L(r, S) over the fine radius grid.
class RadiusProfile {
 public:
  /// Builds the profile. Fails with ResourceExhausted when s.size() >
  /// max_points (see GoodRadiusOptions::max_profile_points). `pool`
  /// parallelizes the event generation (null = serial); chunk-ordered
  /// assembly keeps the profile bit-identical at any thread count. `index`
  /// selects the event generator (bit-identical either way, see above).
  /// The trailing IndexGeometry is ignored (see IndexGeometry).
  static Result<RadiusProfile> Build(const PointSet& s, std::size_t t,
                                     const GridDomain& domain,
                                     std::size_t max_points,
                                     ThreadPool* pool = nullptr,
                                     ProfileIndex index = ProfileIndex::kGrid,
                                     IndexGeometry = IndexGeometry::kExact);

  /// Builds the profile over the *active* points of a prebuilt
  /// geo/IndexedDataset — bit-identical to Build(index.ActiveView(), ...),
  /// but the kGrid event generator queries the dataset's cached
  /// (deletion-pruned) spatial index instead of indexing the subset from
  /// scratch, which is what amortizes KCluster's per-round profile cost.
  /// When every row is active, the kGrid profile is memoized on the dataset
  /// per t (IndexedDataset::LookupProfile), so a repeat build over a
  /// resident index copies the earlier result instead of rerunning the t-NN
  /// pass; validation and the max_points check run first either way. The
  /// kExact generator sweeps the active pairs directly and never reads the
  /// memo, nor does a weighted dataset.
  static Result<RadiusProfile> Build(const IndexedDataset& index,
                                     std::size_t t, std::size_t max_points,
                                     ThreadPool* pool = nullptr,
                                     ProfileIndex profile_index =
                                         ProfileIndex::kGrid);

  /// L as a step function over fine indices [0, 2*(RadiusGridSize()-1)+1).
  const StepFunction& fine_l() const { return fine_l_; }

  /// L at solution-grid radius index g (i.e. radius g * axis/(2|X|)).
  double LAtSolutionIndex(std::uint64_t g) const;

  /// L at half the solution-grid radius g (i.e. radius g * axis/(4|X|)).
  double LAtHalfSolutionIndex(std::uint64_t g) const;

  /// L(0, S): handles duplicate input points (a zero-radius cluster).
  double LAtZero() const { return fine_l_.ValueAt(0); }

  /// Number of solution-grid indices (= GridDomain::RadiusGridSize()).
  std::uint64_t solution_grid_size() const { return solution_grid_; }

 private:
  RadiusProfile() : solution_grid_(0), fine_l_(StepFunction::Constant(1, 0.0)) {}

  std::uint64_t solution_grid_;
  StepFunction fine_l_;
};

}  // namespace dpcluster

#endif  // DPCLUSTER_CORE_RADIUS_PROFILE_H_
