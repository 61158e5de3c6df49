// Reference oracle for core/k_cluster: Observation 3.5's peel-and-repeat
// loop written the direct way. Every round re-subsets the uncovered points
// and runs the PointSet OneCluster / RefineRadius overloads on the subset,
// so each round indexes its data from scratch. KCluster, which peels one
// IndexedDataset in place, must release exactly these bytes.

#ifndef DPCLUSTER_TESTS_REFERENCE_K_CLUSTER_REFERENCE_H_
#define DPCLUSTER_TESTS_REFERENCE_K_CLUSTER_REFERENCE_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "dpcluster/core/k_cluster.h"
#include "dpcluster/core/one_cluster.h"
#include "dpcluster/core/radius_refine.h"
#include "dpcluster/dp/accountant.h"

namespace dpcluster::reference {

/// KCluster(rng, s, domain, options) with a fresh subset per round.
inline Result<KClusterResult> RebuildKCluster(Rng& rng, const PointSet& s,
                                              const GridDomain& domain,
                                              const KClusterOptions& options) {
  DPC_RETURN_IF_ERROR(options.Validate());

  PrivacyParams per_round;
  if (options.advanced_composition && options.k > 1) {
    const double slack = options.params.delta / 2.0;
    per_round.epsilon =
        InverseAdvancedEpsilon(options.params.epsilon, options.k, slack);
    per_round.delta =
        (options.params.delta - slack) / static_cast<double>(options.k);
  } else {
    per_round.epsilon = options.params.epsilon / static_cast<double>(options.k);
    per_round.delta = options.params.delta / static_cast<double>(options.k);
  }

  KClusterResult result;
  std::vector<std::size_t> remaining(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) remaining[i] = i;

  for (std::size_t round = 0; round < options.k; ++round) {
    const std::size_t left = remaining.size();
    if (left == 0) break;
    const PointSet current = s.Subset(remaining);

    std::size_t t = options.per_round_t;
    if (t == 0) {
      const std::size_t rounds_left = options.k - round;
      t = (left + rounds_left - 1) / rounds_left;
    }
    t = std::min(t, left);
    if (t == 0) break;

    OneClusterOptions oc = options.one_cluster;
    oc.params = per_round;
    oc.params.epsilon *= (1.0 - options.refine_fraction);
    oc.beta = options.beta / static_cast<double>(options.k);
    oc.num_threads = options.num_threads;
    auto round_result = OneCluster(rng, current, t, domain, oc);
    if (!round_result.ok()) {
      if (options.best_effort) {
        result.ledger.Charge("round" + std::to_string(round) + "/failed",
                             per_round);
        continue;
      }
      return round_result.status();
    }

    const std::string scope = "round" + std::to_string(round) + "/";
    result.ledger.Absorb(round_result->ledger, scope);

    if (options.refine_fraction > 0.0) {
      RadiusRefineOptions refine;
      refine.epsilon = per_round.epsilon * options.refine_fraction;
      refine.beta = options.beta / static_cast<double>(options.k);
      auto refined = RefineRadius(rng, current, round_result->ball.center, t,
                                  domain, refine);
      result.ledger.Charge(scope + "refine", {refine.epsilon, 0.0});
      if (refined.ok()) round_result->ball.radius = *refined;
    }

    const Ball& ball = round_result->ball;
    std::vector<std::size_t> next;
    next.reserve(remaining.size());
    for (const std::size_t idx : remaining) {
      if (!ball.Contains(s[idx])) next.push_back(idx);
    }
    remaining = std::move(next);
    result.rounds.push_back(std::move(*round_result));
  }

  result.uncovered = remaining.size();
  return result;
}

}  // namespace dpcluster::reference

#endif  // DPCLUSTER_TESTS_REFERENCE_K_CLUSTER_REFERENCE_H_
