#include "dpcluster/core/interior_point.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dpcluster/common/check.h"
#include "dpcluster/dp/rec_concave.h"
#include "dpcluster/dp/step_function.h"

namespace dpcluster {

Status InteriorPointOptions::Validate() const {
  DPC_RETURN_IF_ERROR(params.ValidateWithPositiveDelta());
  if (!(beta > 0.0) || !(beta < 1.0)) {
    return Status::InvalidArgument("InteriorPoint: beta must be in (0,1)");
  }
  return Status::OK();
}

Result<InteriorPointResult> InteriorPoint(Rng& rng, std::span<const double> data,
                                          const GridDomain& domain,
                                          const InteriorPointOptions& options) {
  DPC_RETURN_IF_ERROR(options.Validate());
  if (domain.dim() != 1) {
    return Status::InvalidArgument("InteriorPoint: domain must be 1-dimensional");
  }
  const std::size_t m = data.size();
  if (m < kInteriorPointMinPoints) {
    return Status::InvalidArgument("InteriorPoint: need at least 4 points");
  }

  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());

  // Step 1: the middle n entries.
  std::size_t n_mid = options.middle_n == 0 ? m / 2 : options.middle_n;
  n_mid = std::min(n_mid, m);
  n_mid = std::max<std::size_t>(n_mid, 2);
  const std::size_t lo = (m - n_mid) / 2;
  PointSet middle(1, std::vector<double>(sorted.begin() + static_cast<std::ptrdiff_t>(lo),
                                         sorted.begin() + static_cast<std::ptrdiff_t>(lo + n_mid)));

  // Step 2: run the 1-cluster solver on the middle database.
  std::size_t t = options.cluster_t == 0 ? n_mid / 2 : options.cluster_t;
  t = std::clamp<std::size_t>(t, 1, n_mid);
  OneClusterOptions oc = options.one_cluster;
  oc.params = options.params;
  oc.beta = options.beta / 2.0;

  InteriorPointResult result;
  DPC_ASSIGN_OR_RETURN(result.cluster, OneCluster(rng, middle, t, domain, oc));
  const double c = result.cluster.ball.center[0];
  if (result.cluster.radius_stage.zero_radius_shortcut) {
    // A zero-radius cluster: c sits on a mass of duplicates and is interior.
    result.point = c;
    result.candidates = 1;
    return result;
  }

  // Step 3: split I = [c - r, c + r] into intervals of length r/w and collect
  // the edge points. The realized approximation factor is bounded by
  // 4 * (ball.radius / r_stage) since r_stage <= 4 r_opt, so sub-intervals of
  // length r_stage / 4 <= r_opt can never hold t points of the middle database
  // — some edge point must be interior.
  const double r = result.cluster.ball.radius;
  const double r_stage =
      std::max(result.cluster.radius_stage.radius, domain.RadiusFromIndex(1));
  const double sub_len = r_stage / 4.0;
  const auto pieces =
      static_cast<std::size_t>(std::ceil(2.0 * r / sub_len)) + 1;
  std::vector<double> edges;
  edges.reserve(pieces + 1);
  for (std::size_t i = 0; i <= pieces; ++i) {
    edges.push_back(c - r + static_cast<double>(i) * sub_len);
  }
  result.candidates = edges.size();

  // Step 4: RecConcave on the whole database with the interior-point quality
  // q(a) = min(#{x <= a}, #{x >= a}) and promise (m - n)/2.
  std::vector<double> quality(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const double a = edges[i];
    const auto le = static_cast<double>(
        std::upper_bound(sorted.begin(), sorted.end(), a) - sorted.begin());
    const auto ge = static_cast<double>(
        sorted.end() - std::lower_bound(sorted.begin(), sorted.end(), a));
    quality[i] = std::min(le, ge);
  }
  RecConcaveOptions rc;
  rc.alpha = 0.5;
  rc.beta = options.beta / 2.0;
  rc.epsilon = options.params.epsilon;
  const double promise = static_cast<double>(m - n_mid) / 2.0;
  if (!(promise >= 1.0)) {
    return Status::InvalidArgument(
        "InteriorPoint: database too small relative to middle_n "
        "(need m > middle_n + 1)");
  }
  DPC_ASSIGN_OR_RETURN(
      std::uint64_t idx,
      RecConcave(rng, StepFunction::Dense(quality), promise, rc));
  result.point = edges[idx];
  return result;
}

}  // namespace dpcluster
