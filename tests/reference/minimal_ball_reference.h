// Reference oracle for geo/minimal_ball: the brute-force scan the fast
// TwoApproxSmallestBall must reproduce bit for bit.

#ifndef DPCLUSTER_TESTS_REFERENCE_MINIMAL_BALL_REFERENCE_H_
#define DPCLUSTER_TESTS_REFERENCE_MINIMAL_BALL_REFERENCE_H_

#include <cstddef>
#include <limits>

#include "dpcluster/geo/ball.h"
#include "dpcluster/geo/point_set.h"

namespace dpcluster::reference {

/// The 2-approximation of Section 3 (fact 3) by definition: every input point
/// is tried as the center, and the smallest RadiusCapturing wins, the lowest
/// index on ties. O(n^2 d). Callers pass 1 <= t <= s.size().
inline Ball BruteForceTwoApproxSmallestBall(const PointSet& s, std::size_t t) {
  double best_r = std::numeric_limits<double>::infinity();
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double r = RadiusCapturing(s, s[i], t);
    if (r < best_r) {
      best_r = r;
      best_i = i;
    }
  }
  Ball ball;
  ball.center.assign(s[best_i].begin(), s[best_i].end());
  ball.radius = best_r;
  return ball;
}

}  // namespace dpcluster::reference

#endif  // DPCLUSTER_TESTS_REFERENCE_MINIMAL_BALL_REFERENCE_H_
