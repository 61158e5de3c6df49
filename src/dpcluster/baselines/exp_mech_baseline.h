// Baseline: the exponential mechanism over all grid balls (Table 1, row 2,
// McSherry-Talwar [14]). A noisy binary search over the radius grid finds the
// smallest radius at which the exponential mechanism (over all |X|^d grid
// centers, quality = capped ball count) produces a ball holding ~t points.
//
// Achieves w ~ 1 and handles minority clusters, but its running time is
// poly(|X|^d) — the whole point of Table 1's comparison. The options cap the
// enumerable grid so the baseline stays honest about that cost.

#ifndef DPCLUSTER_BASELINES_EXP_MECH_BASELINE_H_
#define DPCLUSTER_BASELINES_EXP_MECH_BASELINE_H_

#include <cstddef>

#include "dpcluster/common/status.h"
#include "dpcluster/dp/privacy_params.h"
#include "dpcluster/geo/ball.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"
#include "dpcluster/random/rng.h"

namespace dpcluster {

struct ExpMechBaselineOptions {
  PrivacyParams params{1.0, 0.0};  // Pure eps-DP.
  double beta = 0.1;
  /// Refuses to enumerate more than this many grid centers (|X|^d).
  std::size_t max_grid_centers = 1u << 18;

  Status Validate() const;
};

/// ResourceExhausted when the grid has more than `max_grid_centers` centers
/// (|X|^d) — a refusal that depends only on the domain, so callers can make
/// it before spending any budget.
Status CheckGridCenters(const GridDomain& domain, std::size_t max_grid_centers);

/// Runs the baseline; (eps, 0)-DP overall.
Result<Ball> ExpMechBaseline(Rng& rng, const PointSet& s, std::size_t t,
                             const GridDomain& domain,
                             const ExpMechBaselineOptions& options);

}  // namespace dpcluster

#endif  // DPCLUSTER_BASELINES_EXP_MECH_BASELINE_H_
