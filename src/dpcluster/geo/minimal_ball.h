// Non-private algorithms for the minimal ball enclosing t points
// (Definition 3.1). These are the substrate facts the paper states in Section 3:
//   1. exact solution is NP-hard in general;
//   2. a PTAS exists (Agarwal et al.);
//   3. restricting centers to input points gives a 2-approximation.
// We implement: the exact 1D solution (sliding window), the 2-approximation for
// any d, a grid-restricted exact search for tiny domains (test oracle), and the
// derived lower bound on r_opt used by the evaluation metrics.

#ifndef DPCLUSTER_GEO_MINIMAL_BALL_H_
#define DPCLUSTER_GEO_MINIMAL_BALL_H_

#include <cstddef>

#include "dpcluster/common/status.h"
#include "dpcluster/geo/ball.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"

namespace dpcluster {

/// Exact smallest interval (as a 1D ball) containing >= t points. d must be 1.
Result<Ball> SmallestInterval1D(const PointSet& s, std::size_t t);

/// 2-approximation (Section 3, fact 3): smallest ball centered at an input
/// point containing >= t points; the lowest index wins ties. Exact
/// branch-and-bound over a geo/SpatialGrid of the data: x_i is skipped unless
/// its ball of the best radius so far holds >= t points, and otherwise pays
/// one (t-1)-NN query. The same radius and center as scanning every input
/// point, at ~O(n t) work on clustered low-dimensional data (O(n^2 d) worst
/// case, e.g. when the grid collapses to one cell at high d).
Result<Ball> TwoApproxSmallestBall(const PointSet& s, std::size_t t);

/// Exact search restricted to ball centers on the grid. O(|X|^d * n d) — only
/// for tiny domains; used as a test oracle and by the exponential-mechanism
/// baseline's ground truth. Fails if |X|^d > max_centers.
Result<Ball> GridRestrictedSmallestBall(const PointSet& s, std::size_t t,
                                        const GridDomain& domain,
                                        std::size_t max_centers);

/// Lower bound on r_opt derived from the 2-approximation:
/// r_2approx / 2 <= r_opt <= r_2approx. Used by metrics to report the
/// approximation ratio w conservatively. For d == 1 the exact value is used.
Result<double> OptRadiusLowerBound(const PointSet& s, std::size_t t);

}  // namespace dpcluster

#endif  // DPCLUSTER_GEO_MINIMAL_BALL_H_
