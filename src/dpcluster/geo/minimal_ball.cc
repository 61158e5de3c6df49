#include "dpcluster/geo/minimal_ball.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "dpcluster/common/check.h"
#include "dpcluster/geo/spatial_grid.h"

namespace dpcluster {
namespace {

Status ValidateT(const PointSet& s, std::size_t t) {
  if (t < 1 || t > s.size()) {
    return Status::InvalidArgument("t must satisfy 1 <= t <= n (t=" +
                                   std::to_string(t) +
                                   ", n=" + std::to_string(s.size()) + ")");
  }
  return Status::OK();
}

// Points per cell of TwoApproxSmallestBall's grid, as a fraction of t-1:
// SpatialGrid sizes a cell to hold a quarter of its expected neighbor count,
// so asking for (t-1)/64 neighbors puts ~(t-1)/256 points in a cell.
constexpr std::size_t kCellsPerBestBall = 256;

std::size_t CountGridNeighbors(std::size_t t) {
  return std::max<std::size_t>(1, 4 * (t - 1) / kCellsPerBestBall);
}

}  // namespace

Result<Ball> SmallestInterval1D(const PointSet& s, std::size_t t) {
  if (s.dim() != 1) {
    return Status::InvalidArgument("SmallestInterval1D requires d == 1");
  }
  DPC_RETURN_IF_ERROR(ValidateT(s, t));
  std::vector<double> xs(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) xs[i] = s[i][0];
  std::sort(xs.begin(), xs.end());
  double best_len = std::numeric_limits<double>::infinity();
  std::size_t best_i = 0;
  for (std::size_t i = 0; i + t <= xs.size(); ++i) {
    const double len = xs[i + t - 1] - xs[i];
    if (len < best_len) {
      best_len = len;
      best_i = i;
    }
  }
  Ball ball;
  ball.center = {0.5 * (xs[best_i] + xs[best_i + t - 1])};
  ball.radius = 0.5 * best_len;
  return ball;
}

Result<Ball> TwoApproxSmallestBall(const PointSet& s, std::size_t t) {
  DPC_RETURN_IF_ERROR(ValidateT(s, t));
  // Cells sized for the CountWithin calls at the running best radius, which
  // are most of the work, rather than for the (t-1)-NN queries: a cell holds
  // ~(t-1)/kCellsPerBestBall points, so the prune test scans a few cells
  // around the best ball instead of a large share of the set.
  DPC_ASSIGN_OR_RETURN(
      const SpatialGrid grid,
      SpatialGrid::BuildOverBoundingBox(s, CountGridNeighbors(t)));
  SpatialGrid::Workspace scratch;
  double best_r = std::numeric_limits<double>::infinity();
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    // x_i's radius is <= best_r iff its best_r-ball holds >= t points (the
    // grid's counts and distances are RadiusCapturing's, bit for bit); a
    // strictly larger radius can never win, so skip the k-NN query.
    if (i > 0 && grid.CountWithin(i, best_r, scratch) < t) continue;
    // t = 1: the center alone.
    const double r = t > 1 ? grid.KthNearestDistance(i, t - 1, scratch) : 0.0;
    if (r < best_r) {  // Strict: the first index wins ties.
      best_r = r;
      best_i = i;
      if (best_r == 0.0) break;  // Nothing later can be strictly smaller.
    }
  }
  Ball ball;
  ball.center.assign(s[best_i].begin(), s[best_i].end());
  ball.radius = best_r;
  return ball;
}

Result<Ball> GridRestrictedSmallestBall(const PointSet& s, std::size_t t,
                                        const GridDomain& domain,
                                        std::size_t max_centers) {
  DPC_RETURN_IF_ERROR(ValidateT(s, t));
  if (s.dim() != domain.dim()) {
    return Status::InvalidArgument("domain dimension mismatch");
  }
  double total = 1.0;
  for (std::size_t i = 0; i < domain.dim(); ++i) {
    total *= static_cast<double>(domain.levels());
  }
  if (total > static_cast<double>(max_centers)) {
    return Status::ResourceExhausted(
        "GridRestrictedSmallestBall: |X|^d exceeds max_centers");
  }

  const auto count = static_cast<std::size_t>(total);
  std::vector<double> center(domain.dim(), 0.0);
  std::vector<std::uint64_t> idx(domain.dim(), 0);
  Ball best;
  best.radius = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < count; ++c) {
    for (std::size_t k = 0; k < domain.dim(); ++k) {
      center[k] = static_cast<double>(idx[k]) * domain.step();
    }
    const double r = RadiusCapturing(s, center, t);
    if (r < best.radius) {
      best.radius = r;
      best.center = center;
    }
    // Odometer increment over the grid.
    for (std::size_t k = 0; k < domain.dim(); ++k) {
      if (++idx[k] < domain.levels()) break;
      idx[k] = 0;
    }
  }
  return best;
}

Result<double> OptRadiusLowerBound(const PointSet& s, std::size_t t) {
  DPC_RETURN_IF_ERROR(ValidateT(s, t));
  if (s.dim() == 1) {
    DPC_ASSIGN_OR_RETURN(Ball exact, SmallestInterval1D(s, t));
    return exact.radius;
  }
  DPC_ASSIGN_OR_RETURN(Ball approx, TwoApproxSmallestBall(s, t));
  return approx.radius / 2.0;
}

}  // namespace dpcluster
