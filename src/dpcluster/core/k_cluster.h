// Observation 3.5: iterating the 1-cluster solver k times (removing covered
// points after each round) yields a heuristic k-clustering that covers most of
// the data with at most k balls. The privacy budget is split across the rounds
// (basic composition by default, advanced optionally), which is where the
// paper's k <~ (eps n)^{2/3} / d^{1/3} bound comes from.

#ifndef DPCLUSTER_CORE_K_CLUSTER_H_
#define DPCLUSTER_CORE_K_CLUSTER_H_

#include <cstddef>
#include <vector>

#include "dpcluster/common/status.h"
#include "dpcluster/core/one_cluster.h"
#include "dpcluster/core/radius_refine.h"
#include "dpcluster/geo/dataset.h"

namespace dpcluster {

struct KClusterOptions {
  /// Total privacy budget across all rounds.
  PrivacyParams params{2.0, 1e-9};
  double beta = 0.1;
  /// Number of balls to find.
  std::size_t k = 2;
  /// Per-round target count; 0 means ceil(remaining/k') with k' rounds left.
  std::size_t per_round_t = 0;
  /// Use advanced composition (Theorem 4.7) to size per-round budgets.
  bool advanced_composition = false;
  /// Worker threads for every round's deterministic numeric kernels (0 = one
  /// per hardware thread, 1 = serial; outputs are bit-identical at any
  /// setting). Overwrites one_cluster.num_threads.
  std::size_t num_threads = 1;
  /// Per-round 1-cluster options (params/beta/num_threads overwritten).
  OneClusterOptions one_cluster;
  /// Rounds that fail (e.g. too few remaining points) are skipped rather than
  /// failing the whole call when true.
  bool best_effort = true;
  /// Fraction of each round's epsilon spent on refining the ball radius
  /// (RefineRadius) before removing covered points. Without refinement the
  /// guarantee-radius ball can cover the whole domain and the first round
  /// swallows everything. 0 disables refinement.
  double refine_fraction = 0.25;

  Status Validate() const;
};

struct KClusterResult {
  std::vector<OneClusterResult> rounds;
  /// Number of input points not covered by any returned ball (computed
  /// non-privately; intended for evaluation, not release).
  std::size_t uncovered = 0;
  /// Privacy ledger across all rounds (one scoped entry per phase, including
  /// the per-round RefineRadius spend). Under the configured composition rule
  /// its total stays within `KClusterOptions::params`.
  Accountant ledger;
};

/// Runs the iterated heuristic on dataset s. Every round runs on one
/// deletion-capable geo/IndexedDataset, and covered points are removed from
/// it in place — one index build instead of k. The released bytes equal
/// re-subsetting s and running the PointSet OneCluster / RefineRadius
/// overloads each round (tests/reference/k_cluster_reference.h, pinned by
/// property_test). `shared_index` (optional) lends a prebuilt IndexedDataset
/// over exactly s with every row active — e.g. the service's cached index;
/// the rounds then peel covered points from it instead of building their
/// own. A lent index may be a weighted coreset summary of s
/// (coreset/coreset.h, checked by total mass and dimension): every round then
/// peels from the summary, and per-round t sizing, refinement counts and
/// `uncovered` use expanded mass, so t keeps its raw-input meaning. The
/// index is restored to its entry state before returning (success or
/// failure), so one index serves many runs.
Result<KClusterResult> KCluster(Rng& rng, const PointSet& s,
                                const GridDomain& domain,
                                const KClusterOptions& options,
                                IndexedDataset* shared_index = nullptr);

}  // namespace dpcluster

#endif  // DPCLUSTER_CORE_K_CLUSTER_H_
