#include "dpcluster/baselines/exp_mech_baseline.h"

#include <cmath>
#include <vector>

#include "dpcluster/common/check.h"
#include "dpcluster/common/math_util.h"
#include "dpcluster/dp/exponential_mechanism.h"
#include "dpcluster/random/distributions.h"

namespace dpcluster {
namespace {

// Enumerates all |X|^d grid points into a PointSet (caller checked the cap).
PointSet EnumerateGridCenters(const GridDomain& domain) {
  const std::size_t d = domain.dim();
  std::size_t count = 1;
  for (std::size_t i = 0; i < d; ++i) {
    count *= static_cast<std::size_t>(domain.levels());
  }
  PointSet centers(d);
  std::vector<std::uint64_t> idx(d, 0);
  std::vector<double> p(d);
  for (std::size_t c = 0; c < count; ++c) {
    for (std::size_t j = 0; j < d; ++j) {
      p[j] = static_cast<double>(idx[j]) * domain.step();
    }
    centers.Add(p);
    for (std::size_t j = 0; j < d; ++j) {
      if (++idx[j] < domain.levels()) break;
      idx[j] = 0;
    }
  }
  return centers;
}

}  // namespace

Status ExpMechBaselineOptions::Validate() const {
  DPC_RETURN_IF_ERROR(params.Validate());
  if (!(beta > 0.0) || !(beta < 1.0)) {
    return Status::InvalidArgument("ExpMechBaseline: beta must be in (0,1)");
  }
  return Status::OK();
}

Status CheckGridCenters(const GridDomain& domain,
                        std::size_t max_grid_centers) {
  double total = 1.0;
  for (std::size_t i = 0; i < domain.dim(); ++i) {
    total *= static_cast<double>(domain.levels());
  }
  if (total > static_cast<double>(max_grid_centers)) {
    return Status::ResourceExhausted(
        "ExpMechBaseline: |X|^d = " + std::to_string(total) +
        " grid centers exceed the cap — this is the poly(|X|^d) cost Table 1 "
        "charges this baseline");
  }
  return Status::OK();
}

Result<Ball> ExpMechBaseline(Rng& rng, const PointSet& s, std::size_t t,
                             const GridDomain& domain,
                             const ExpMechBaselineOptions& options) {
  DPC_RETURN_IF_ERROR(options.Validate());
  if (s.empty()) return Status::InvalidArgument("ExpMechBaseline: empty dataset");
  if (t < 1 || t > s.size()) {
    return Status::InvalidArgument("ExpMechBaseline: 1 <= t <= n required");
  }
  if (s.dim() != domain.dim()) {
    return Status::InvalidArgument("ExpMechBaseline: domain dimension mismatch");
  }
  DPC_RETURN_IF_ERROR(CheckGridCenters(domain, options.max_grid_centers));

  const PointSet centers = EnumerateGridCenters(domain);
  const double eps = options.params.epsilon;
  const std::uint64_t grid = domain.RadiusGridSize();
  const int comparisons = CeilLog2(grid) + 1;
  // Each binary-search stage spends one exponential mechanism and one Laplace
  // test; one more exponential mechanism picks the returned center.
  const double eps_stage = eps / (2.0 * static_cast<double>(comparisons) + 1.0);
  const double margin = (2.0 / eps_stage) *
                        std::log(2.0 * static_cast<double>(comparisons) /
                                 options.beta);

  std::vector<double> qualities(centers.size());
  const auto eval = [&](double radius) {
    for (std::size_t c = 0; c < centers.size(); ++c) {
      qualities[c] = static_cast<double>(
          std::min<std::size_t>(CountWithin(s, centers[c], radius), t));
    }
  };

  // Noisy binary search for the smallest grid radius at which the exponential
  // mechanism finds a ~t-heavy ball.
  std::uint64_t lo = 0;
  std::uint64_t hi = grid - 1;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const double radius = domain.RadiusFromIndex(mid);
    eval(radius);
    DPC_ASSIGN_OR_RETURN(
        std::size_t pick,
        ExponentialMechanism::SelectIndex(rng, qualities, eps_stage));
    const double noisy = qualities[pick] + SampleLaplace(rng, 1.0 / eps_stage);
    if (noisy >= static_cast<double>(t) - margin) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }

  Ball ball;
  ball.radius = domain.RadiusFromIndex(lo);
  eval(ball.radius);
  DPC_ASSIGN_OR_RETURN(
      std::size_t pick,
      ExponentialMechanism::SelectIndex(rng, qualities, eps_stage));
  ball.center.assign(centers[pick].begin(), centers[pick].end());
  return ball;
}

}  // namespace dpcluster
