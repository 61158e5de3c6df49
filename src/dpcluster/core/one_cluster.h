// Theorem 3.2: the end-to-end (eps, delta)-DP solver for the 1-cluster problem
// (X^d, n, t). Splits the privacy budget between GoodRadius (Algorithm 1) and
// GoodCenter (Algorithm 2) and returns a ball (center, radius) such that, with
// probability >= 1 - beta,
//   * the ball holds >= t - Delta input points, Delta = O((1/eps) log(n/delta)),
//   * its radius is O(sqrt(log n)) * r_opt.

#ifndef DPCLUSTER_CORE_ONE_CLUSTER_H_
#define DPCLUSTER_CORE_ONE_CLUSTER_H_

#include <cstddef>

#include "dpcluster/common/status.h"
#include "dpcluster/core/good_center.h"
#include "dpcluster/core/good_radius.h"
#include "dpcluster/dp/accountant.h"
#include "dpcluster/dp/privacy_params.h"
#include "dpcluster/geo/ball.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"
#include "dpcluster/random/rng.h"

namespace dpcluster {

class IndexedDataset;

struct OneClusterOptions {
  /// Total privacy budget of the pipeline.
  PrivacyParams params{1.0, 1e-9};
  /// Failure probability, split evenly between the two phases.
  double beta = 0.1;
  /// Fraction of the budget given to GoodRadius (the rest goes to GoodCenter).
  double radius_budget_fraction = 0.5;
  /// Worker threads for both phases' deterministic numeric kernels (0 = one
  /// per hardware thread, 1 = serial; outputs are bit-identical at any
  /// setting). Overwrites the phase options' num_threads.
  std::size_t num_threads = 1;
  /// Phase options; their params/beta/num_threads fields are overwritten by
  /// this struct.
  GoodRadiusOptions radius;
  GoodCenterOptions center;

  Status Validate() const;
};

struct OneClusterResult {
  /// The released ball. `ball.radius` is the radius for which the theorem's
  /// counting guarantee is claimed (O(sqrt(log n)) * r_found).
  Ball ball;
  /// The GoodRadius phase output (r_found = radius_stage.radius <= 4 r_opt).
  GoodRadiusResult radius_stage;
  /// The GoodCenter phase output.
  GoodCenterResult center_stage;
  /// Privacy ledger of the run: one charge per phase; BasicTotal() equals the
  /// configured budget.
  Accountant ledger;
};

/// Solves the 1-cluster problem on s (points must lie in `domain`'s cube).
/// When `index` is non-null both phases run on it instead: either an
/// unweighted index viewing exactly s (index->ActiveView() row for row),
/// with released outputs bit-identical to the index-free run, or a weighted
/// coreset summary of s (coreset/coreset.h; the caller built it, so the call
/// runs on the summary). The index is not mutated.
Result<OneClusterResult> OneCluster(Rng& rng, const PointSet& s, std::size_t t,
                                    const GridDomain& domain,
                                    const OneClusterOptions& options,
                                    const IndexedDataset* index = nullptr);

/// Solves the 1-cluster problem on the *active* points of a prebuilt
/// geo/IndexedDataset (domain taken from the index). Both phases run through
/// the index — span-based row access and the cached spatial index, no
/// ActiveView materialization — and release outputs bit-identical to the
/// PointSet overload on index.ActiveView(). This is the entry point
/// KCluster's incremental path peels rounds through. The index is not
/// mutated.
Result<OneClusterResult> OneCluster(Rng& rng, const IndexedDataset& index,
                                    std::size_t t,
                                    const OneClusterOptions& options);

/// A data-independent recommendation for the smallest t this configuration can
/// resolve meaningfully: max of ~4*Gamma (GoodRadius loss) and the sparse-
/// vector + histogram losses of GoodCenter. Mirrors the theorem's
/// t >= O~(sqrt(d)/eps) requirement with this build's actual constants.
double RecommendedMinT(std::size_t n, const GridDomain& domain,
                       const OneClusterOptions& options);

}  // namespace dpcluster

#endif  // DPCLUSTER_CORE_ONE_CLUSTER_H_
