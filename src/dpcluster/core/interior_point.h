// Algorithm 3 (IntPoint): solving the interior point problem on X via a
// 1-cluster solver — the reduction behind the paper's lower bound (Theorem 5.3:
// any private 1-cluster solver with reasonable w yields a private interior
// point solver, whose sample complexity must grow with log*|X| by [4]; hence
// the 1-cluster problem is impossible over infinite domains, Corollary 5.4).
//
// Besides powering the lower-bound demo (bench_lowerbound), this is a useful
// primitive in its own right: a private 1D "typical value" release.

#ifndef DPCLUSTER_CORE_INTERIOR_POINT_H_
#define DPCLUSTER_CORE_INTERIOR_POINT_H_

#include <cstddef>
#include <span>

#include "dpcluster/common/status.h"
#include "dpcluster/core/one_cluster.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/random/rng.h"

namespace dpcluster {

/// Fewest points InteriorPoint accepts.
inline constexpr std::size_t kInteriorPointMinPoints = 4;

struct InteriorPointOptions {
  /// Budget of EACH of the two components; the whole call is (2 eps, 2 delta)-DP
  /// exactly as Theorem 5.3 states.
  PrivacyParams params{1.0, 1e-9};
  double beta = 0.1;
  /// Size n of the middle sub-database fed to the 1-cluster solver;
  /// 0 = half the input size.
  std::size_t middle_n = 0;
  /// Target count for the 1-cluster solver; 0 = middle_n / 2.
  std::size_t cluster_t = 0;
  /// Inner 1-cluster configuration (params/beta overwritten).
  OneClusterOptions one_cluster;

  Status Validate() const;
};

struct InteriorPointResult {
  /// The released point j with min(S) <= j <= max(S) (w.h.p.).
  double point = 0.0;
  /// Diagnostics: the inner 1-cluster output.
  OneClusterResult cluster;
  /// Number of candidate edge points |J| handed to RecConcave (releasable).
  std::size_t candidates = 0;
};

/// Runs IntPoint on a 1D database (unsorted). `domain` must be 1-dimensional.
Result<InteriorPointResult> InteriorPoint(Rng& rng, std::span<const double> data,
                                          const GridDomain& domain,
                                          const InteriorPointOptions& options);

}  // namespace dpcluster

#endif  // DPCLUSTER_CORE_INTERIOR_POINT_H_
