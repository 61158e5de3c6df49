// Geolocation hotspot discovery — the paper's "map searches" motivation
// (Section 1.1, data exploration): locate a dense geographic area of a
// sensitive population without revealing any individual's location.
//
// The scenario: lat/lon pings of 4096 users over a city; 30% concentrate
// around a venue. One `one_cluster` request through the Solver façade
// releases a hotspot ball and spends part of its budget tightening the
// radius (`refine_one_cluster`), so the released area is small enough to act
// on. The whole table is the input: the privacy claim is exactly what the
// request's ledger charged.

#include <cstdio>

#include "dpcluster/api/solver.h"
#include "dpcluster/random/distributions.h"

int main() {
  using namespace dpcluster;
  Rng rng(20260610);

  // City coordinates normalized to [0,1]^2, quantized to a 2^16 grid
  // (~1.5m resolution for a 100km city).
  const GridDomain city(1u << 16, 2);

  // Synthetic pings: 30% around the venue at (0.312, 0.587) within ~400m,
  // the rest spread over the city.
  const std::size_t n = 4096;
  const std::size_t venue_users = 1228;
  const std::vector<double> venue = {0.312, 0.587};
  PointSet pings(2);
  for (std::size_t i = 0; i < venue_users; ++i) {
    pings.Add(SampleBall(rng, venue, 0.004));
  }
  std::vector<double> p(2);
  for (std::size_t i = venue_users; i < n; ++i) {
    p[0] = rng.NextDouble();
    p[1] = rng.NextDouble();
    pings.Add(p);
  }
  city.SnapAll(pings);

  Request request;
  request.algorithm = "one_cluster";
  request.data = std::move(pings);
  request.domain = city;
  request.t = venue_users;
  request.budget = {2.0, 1e-9};
  request.beta = 0.1;
  // Spend refine_fraction (25%) of epsilon tightening the released radius.
  request.tuning.refine_one_cluster = true;

  std::printf("Searching for a hotspot holding >= %zu of %zu pings...\n",
              venue_users, n);
  Solver solver;
  const auto response = solver.Run(request);
  if (!response.ok()) {
    std::printf("hotspot search failed: %s\n",
                response.status().ToString().c_str());
    return 1;
  }

  std::printf("\nReleased hotspot center: (%.4f, %.4f)  [venue at (%.3f, %.3f)]\n",
              response->ball.center[0], response->ball.center[1], venue[0],
              venue[1]);
  std::printf("Released hotspot radius: %.4f  [venue spread 0.004]\n",
              response->ball.radius);
  if (response->diagnostics.has_value()) {
    std::printf("Pings inside the released hotspot (evaluation only): %zu\n",
                response->diagnostics->captured);
  }
  std::printf("\nCharged: (%g, %.1e)-DP over %zu mechanism calls.\n",
              response->charged.epsilon, response->charged.delta,
              response->ledger.interactions());
  return 0;
}
