#include "dpcluster/core/one_cluster.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dpcluster/common/check.h"
#include "dpcluster/dp/accountant.h"
#include "dpcluster/dp/stable_histogram.h"
#include "dpcluster/geo/dataset.h"

namespace dpcluster {

Status OneClusterOptions::Validate() const {
  DPC_RETURN_IF_ERROR(params.ValidateWithPositiveDelta());
  if (!(beta > 0.0) || !(beta < 1.0)) {
    return Status::InvalidArgument("OneCluster: beta must be in (0,1)");
  }
  if (!(radius_budget_fraction > 0.0) || !(radius_budget_fraction < 1.0)) {
    return Status::InvalidArgument(
        "OneCluster: radius_budget_fraction must be in (0,1)");
  }
  return Status::OK();
}

namespace {

// Shared driver: `index` == nullptr runs both phases on `s`; otherwise both
// phases are served by the index's active points (s unused) — span-based row
// access plus the cached spatial index, no ActiveView materialization.
Result<OneClusterResult> OneClusterImpl(Rng& rng, const PointSet* s,
                                        const IndexedDataset* index,
                                        std::size_t t, const GridDomain& domain,
                                        const OneClusterOptions& options) {
  OneClusterResult result;

  // Phase 1: GoodRadius with its share of the budget, served by the shared
  // index when one is provided (bit-identical outputs either way).
  GoodRadiusOptions radius_opts = options.radius;
  radius_opts.params = options.params.Fraction(options.radius_budget_fraction);
  radius_opts.beta = options.beta / 2.0;
  radius_opts.num_threads = options.num_threads;
  Result<GoodRadiusResult> radius_stage =
      index != nullptr ? GoodRadius(rng, *index, t, radius_opts)
                       : GoodRadius(rng, *s, t, domain, radius_opts);
  DPC_RETURN_IF_ERROR(radius_stage.status());
  result.radius_stage = *radius_stage;
  result.ledger.Charge("good_radius", radius_opts.params);

  // A zero radius (duplicate-point cluster) cannot drive GoodCenter's interval
  // geometry; fall back to the smallest positive grid radius.
  const double r =
      std::max(result.radius_stage.radius, domain.RadiusFromIndex(1));

  // Phase 2: GoodCenter with the rest, also through the index when provided
  // (gathered-row JL projection; bit-identical by default, see good_center.h).
  GoodCenterOptions center_opts = options.center;
  center_opts.params =
      options.params.Fraction(1.0 - options.radius_budget_fraction);
  center_opts.beta = options.beta / 2.0;
  center_opts.num_threads = options.num_threads;
  if (center_opts.domain_axis_length > 0.0) {
    center_opts.domain_axis_length = domain.axis_length();
  }
  Result<GoodCenterResult> center_stage =
      index != nullptr ? GoodCenter(rng, *index, t, r, center_opts)
                       : GoodCenter(rng, *s, t, r, center_opts);
  DPC_RETURN_IF_ERROR(center_stage.status());
  result.center_stage = std::move(*center_stage);
  result.ledger.Charge("good_center", center_opts.params);

  result.ball.center = result.center_stage.center;
  // The claimed radius; never larger than the cube's diameter.
  const double diameter = domain.axis_length() *
                          std::sqrt(static_cast<double>(domain.dim()));
  result.ball.radius = std::min(result.center_stage.guarantee_radius, diameter);
  return result;
}

}  // namespace

Result<OneClusterResult> OneCluster(Rng& rng, const PointSet& s, std::size_t t,
                                    const GridDomain& domain,
                                    const OneClusterOptions& options,
                                    const IndexedDataset* index) {
  DPC_RETURN_IF_ERROR(options.Validate());
  if (s.dim() != domain.dim()) {
    return Status::InvalidArgument("OneCluster: domain dimension mismatch");
  }
  if (index != nullptr) {
    if (index->weighted()) {
      // A weighted lend is a coreset summary of s (BuildSharedIndex or the
      // service cache); full correspondence is the lender's contract — check what is
      // checkable cheaply.
      if (index->total_mass() != s.size() || index->dim() != s.dim() ||
          index->active_size() != index->size()) {
        return Status::InvalidArgument(
            "OneCluster: weighted index must summarize exactly the dataset "
            "with every row active");
      }
    } else if (index->active_size() != s.size()) {
      return Status::InvalidArgument(
          "OneCluster: index active set does not match the dataset");
    }
  }
  return OneClusterImpl(rng, &s, index, t, domain, options);
}

Result<OneClusterResult> OneCluster(Rng& rng, const IndexedDataset& index,
                                    std::size_t t,
                                    const OneClusterOptions& options) {
  DPC_RETURN_IF_ERROR(options.Validate());
  if (index.active_size() == 0) {
    return Status::InvalidArgument("OneCluster: empty active set");
  }
  return OneClusterImpl(rng, nullptr, &index, t, index.domain(), options);
}

double RecommendedMinT(std::size_t n, const GridDomain& domain,
                       const OneClusterOptions& options) {
  // GoodRadius loses ~4*Gamma + Laplace tail.
  GoodRadiusOptions radius_opts = options.radius;
  radius_opts.params = options.params.Fraction(options.radius_budget_fraction);
  radius_opts.beta = options.beta / 2.0;
  const double gamma = GoodRadiusGamma(domain, radius_opts);
  const double radius_need =
      4.0 * gamma +
      (4.0 / radius_opts.params.epsilon) * std::log(2.0 / radius_opts.beta);

  // GoodCenter needs the heavy box to survive its threshold and histograms;
  // the binding constraint is the per-axis stable histogram fed |D|/2 points
  // with the advanced-composed epsilon (the sqrt(d)/eps term of the theorem).
  GoodCenterOptions center_opts = options.center;
  center_opts.params =
      options.params.Fraction(1.0 - options.radius_budget_fraction);
  center_opts.beta = options.beta / 2.0;
  const double eps_c = center_opts.params.epsilon;
  const double beta_c = center_opts.beta;
  const double nn = static_cast<double>(n);
  const double sv_loss = (center_opts.threshold_offset_factor / eps_c) *
                         std::log(2.0 * nn / beta_c);
  const double dd = static_cast<double>(domain.dim());
  const double eps_axis =
      std::max(InverseAdvancedEpsilon(eps_c / 4.0, domain.dim(),
                                      center_opts.params.delta / 8.0),
               (eps_c / 4.0) / dd);
  const PrivacyParams axis_params{eps_axis,
                                  center_opts.params.delta / (8.0 * dd)};
  const double axis_need =
      2.0 * StableHistogramBounds::RequiredMaxCount(axis_params, n, beta_c);
  return std::max({radius_need, 2.0 * sv_loss, axis_need});
}

}  // namespace dpcluster
