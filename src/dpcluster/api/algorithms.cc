// Built-in Algorithm adapters: the paper pipeline (one-cluster), its derived
// problems (k-cluster, outlier screening, interior point, sample-aggregate),
// and the four Table 1 baselines, each adapted from the internal free
// functions to the typed Request/Response API. The free functions remain the
// internal layer; these adapters translate options, mirror privacy ledgers
// into the request's BudgetSession, and shape the released artifact.

#include <cmath>
#include <memory>
#include <string>

#include "dpcluster/api/registry.h"
#include "dpcluster/baselines/exp_mech_baseline.h"
#include "dpcluster/baselines/noisy_mean_baseline.h"
#include "dpcluster/baselines/nonprivate_baseline.h"
#include "dpcluster/baselines/threshold_release_1d.h"
#include "dpcluster/core/good_radius.h"
#include "dpcluster/core/interior_point.h"
#include "dpcluster/core/k_cluster.h"
#include "dpcluster/core/one_cluster.h"
#include "dpcluster/core/outlier.h"
#include "dpcluster/core/radius_refine.h"
#include "dpcluster/sa/estimators.h"
#include "dpcluster/sa/sample_aggregate.h"

namespace dpcluster {
namespace {

Status RequireDomain(const Request& request) {
  if (!request.domain.has_value()) {
    return Status::InvalidArgument("Request: '" + request.algorithm +
                                   "' needs a domain");
  }
  return Status::OK();
}

Status RequireT(const Request& request) {
  if (request.t < 1 || request.t > request.data.size()) {
    return Status::InvalidArgument(
        "Request: '" + request.algorithm +
        "' needs a target count t in [1, n]; got t=" + std::to_string(request.t) +
        ", n=" + std::to_string(request.data.size()));
  }
  return Status::OK();
}

// The radius profile refuses more than max_profile_points rows unless the
// coreset collapses the rows. That refusal depends only on the request's
// shape, so it is decided here — before the service admits (and charges) the
// request — rather than inside the run, where one_cluster would fail charged
// and every k_cluster round would fail and be charged under best_effort.
Status RequireProfileFits(const Request& request) {
  const std::size_t n = request.data.size();
  const std::size_t cap = GoodRadiusOptions{}.max_profile_points;
  if (n <= cap || request.tuning.coreset_options().Applies(n)) {
    return Status::OK();
  }
  return Status::ResourceExhausted(
      "Request: '" + request.algorithm + "' has n=" + std::to_string(n) +
      " rows, over the radius profile's max_points=" + std::to_string(cap) +
      "; set tuning coreset (coreset_min_points <= n) to run it");
}

Status Require1D(const Request& request) {
  if (request.data.dim() != 1) {
    return Status::InvalidArgument("Request: '" + request.algorithm +
                                   "' handles 1D data only");
  }
  return Status::OK();
}

// The index one_cluster, k_cluster and outlier_screen run on: the lent one,
// else one built here. BuildSharedIndex applies the coreset rule, so a
// request with the coreset on runs on its summary either way.
Result<std::shared_ptr<IndexedDataset>> IndexFor(const Request& request) {
  if (request.shared_index != nullptr) return request.shared_index;
  return BuildSharedIndex(request);
}

OneClusterOptions OneClusterOptionsFrom(const Request& request) {
  OneClusterOptions o;
  o.params = request.budget;
  o.beta = request.beta;
  o.radius_budget_fraction = request.tuning.radius_budget_fraction;
  o.center.max_jl_dim = request.tuning.max_jl_dim;
  o.num_threads = request.num_threads;
  return o;
}

// ------------------------------------------------------------ one_cluster ---

class OneClusterAlgorithm : public Algorithm {
 public:
  std::string_view name() const override { return "one_cluster"; }
  ProblemKind kind() const override { return ProblemKind::kOneCluster; }
  std::string_view description() const override {
    return "Theorem 3.2 pipeline: GoodRadius + GoodCenter release a ball "
           "holding ~t points with radius O(sqrt(log n)) * r_opt";
  }
  Status ValidateRequest(const Request& request) const override {
    DPC_RETURN_IF_ERROR(RequireDomain(request));
    DPC_RETURN_IF_ERROR(RequireT(request));
    return RequireProfileFits(request);
  }
  Result<Response> Run(Rng& rng, const Request& request,
                       BudgetSession& session) const override {
    const double refine_fraction =
        request.tuning.refine_one_cluster ? request.tuning.refine_fraction
                                          : 0.0;
    OneClusterOptions options = OneClusterOptionsFrom(request);
    options.params = request.budget.Fraction(1.0 - refine_fraction);
    DPC_ASSIGN_OR_RETURN(std::shared_ptr<IndexedDataset> index,
                         IndexFor(request));
    DPC_ASSIGN_OR_RETURN(OneClusterResult run,
                         OneCluster(rng, request.data, request.t,
                                    *request.domain, options, index.get()));
    DPC_RETURN_IF_ERROR(session.ChargeLedger(run.ledger));
    Response response;
    response.ball = run.ball;
    response.note =
        "good_radius r=" + std::to_string(run.radius_stage.radius) +
        "; recommended_min_t=" +
        std::to_string(RecommendedMinT(request.data.size(), *request.domain,
                                       options));
    if (refine_fraction > 0.0) {
      RadiusRefineOptions refine;
      refine.epsilon = request.budget.epsilon * refine_fraction;
      refine.beta = request.beta;
      DPC_RETURN_IF_ERROR(session.Charge("refine", {refine.epsilon, 0.0}));
      auto refined = RefineRadius(rng, request.data, run.ball.center,
                                  request.t, *request.domain, refine);
      if (refined.ok()) {
        response.note += "; guarantee_radius=" +
                         std::to_string(run.ball.radius) + " refined";
        response.ball.radius = *refined;
      }
    }
    return response;
  }
};

// -------------------------------------------------------------- k_cluster ---

class KClusterAlgorithm : public Algorithm {
 public:
  std::string_view name() const override { return "k_cluster"; }
  ProblemKind kind() const override { return ProblemKind::kKCluster; }
  std::string_view description() const override {
    return "Observation 3.5: iterate the 1-cluster solver k times, removing "
           "covered points, to cover the data with k balls";
  }
  Status ValidateRequest(const Request& request) const override {
    DPC_RETURN_IF_ERROR(RequireDomain(request));
    if (request.k < 1) {
      return Status::InvalidArgument("Request: k_cluster needs k >= 1");
    }
    return RequireProfileFits(request);
  }
  Result<Response> Run(Rng& rng, const Request& request,
                       BudgetSession& session) const override {
    KClusterOptions o;
    o.params = request.budget;
    o.beta = request.beta;
    o.k = request.k;
    o.per_round_t = request.t;  // 0 = spread the remaining points.
    o.refine_fraction = request.tuning.refine_fraction;
    o.advanced_composition = request.tuning.advanced_composition;
    o.num_threads = request.num_threads;
    o.one_cluster.radius_budget_fraction =
        request.tuning.radius_budget_fraction;
    o.one_cluster.center.max_jl_dim = request.tuning.max_jl_dim;
    DPC_ASSIGN_OR_RETURN(std::shared_ptr<IndexedDataset> index,
                         IndexFor(request));
    DPC_ASSIGN_OR_RETURN(KClusterResult run,
                         KCluster(rng, request.data, *request.domain, o,
                                  index.get()));
    if (o.advanced_composition) {
      // The per-round ledger composes to the budget under the ADVANCED rule;
      // its basic sum may exceed it. Charge the composed total the run is
      // actually accounted at, keeping the session's basic-composition
      // invariant honest.
      DPC_RETURN_IF_ERROR(session.Charge(
          "k_cluster[advanced,k=" + std::to_string(o.k) + "]", request.budget));
    } else {
      DPC_RETURN_IF_ERROR(session.ChargeLedger(run.ledger));
    }
    Response response;
    response.balls.reserve(run.rounds.size());
    for (const OneClusterResult& round : run.rounds) {
      response.balls.push_back(round.ball);
    }
    if (!response.balls.empty()) response.ball = response.balls.front();
    response.uncovered = run.uncovered;
    response.note = std::to_string(run.rounds.size()) + " of " +
                    std::to_string(o.k) + " rounds released a ball";
    return response;
  }
};

// ---------------------------------------------------------- outlier_screen ---

class OutlierScreenAlgorithm : public Algorithm {
 public:
  std::string_view name() const override { return "outlier_screen"; }
  ProblemKind kind() const override { return ProblemKind::kOutlier; }
  std::string_view description() const override {
    return "Section 1.1: release a ball holding ~inlier_fraction of the data "
           "as an outlier-screening predicate";
  }
  Status ValidateRequest(const Request& request) const override {
    DPC_RETURN_IF_ERROR(RequireDomain(request));
    return RequireProfileFits(request);
  }
  Result<Response> Run(Rng& rng, const Request& request,
                       BudgetSession& session) const override {
    const double refine_fraction = request.tuning.refine_fraction;
    OutlierScreenOptions o;
    o.inlier_fraction = request.inlier_fraction;
    o.inflation = request.tuning.inflation;
    o.one_cluster = OneClusterOptionsFrom(request);
    o.one_cluster.params = request.budget.Fraction(1.0 - refine_fraction);
    o.refine.epsilon = request.budget.epsilon * refine_fraction;
    o.refine.beta = request.beta;
    DPC_ASSIGN_OR_RETURN(std::shared_ptr<IndexedDataset> index,
                         IndexFor(request));
    DPC_ASSIGN_OR_RETURN(
        OutlierScreen screen,
        BuildOutlierScreen(rng, request.data, *request.domain, o,
                           index.get()));
    DPC_RETURN_IF_ERROR(session.ChargeLedger(screen.pipeline.ledger));
    if (o.refine.epsilon > 0.0) {
      DPC_RETURN_IF_ERROR(session.Charge("refine", {o.refine.epsilon, 0.0}));
    }
    Response response;
    response.ball = screen.ball;
    response.note = "screen keeps points inside the released ball";
    return response;
  }
};

// ---------------------------------------------------------- interior_point ---

class InteriorPointAlgorithm : public Algorithm {
 public:
  std::string_view name() const override { return "interior_point"; }
  ProblemKind kind() const override { return ProblemKind::kInteriorPoint; }
  std::string_view description() const override {
    return "Algorithm 3 (IntPoint): a private 1D interior point via the "
           "1-cluster solver + RecConcave";
  }
  Status ValidateRequest(const Request& request) const override {
    DPC_RETURN_IF_ERROR(RequireDomain(request));
    DPC_RETURN_IF_ERROR(Require1D(request));
    if (request.data.size() < kInteriorPointMinPoints) {
      return Status::InvalidArgument(
          "Request: interior_point needs at least " +
          std::to_string(kInteriorPointMinPoints) + " points; got n=" +
          std::to_string(request.data.size()));
    }
    return Status::OK();
  }
  Result<Response> Run(Rng& rng, const Request& request,
                       BudgetSession& session) const override {
    InteriorPointOptions o;
    // InteriorPoint spends options.params on EACH of its two components
    // (Theorem 5.3); hand it half so the whole call matches request.budget.
    o.params = request.budget.Fraction(0.5);
    o.beta = request.beta;
    std::vector<double> data(request.data.Data().begin(),
                             request.data.Data().end());
    DPC_ASSIGN_OR_RETURN(InteriorPointResult run,
                         InteriorPoint(rng, data, *request.domain, o));
    DPC_RETURN_IF_ERROR(session.ChargeLedger(run.cluster.ledger, "cluster/"));
    DPC_RETURN_IF_ERROR(session.Charge("rec_concave", o.params));
    Response response;
    response.scalar = run.point;
    response.ball.center = {run.point};
    response.note =
        "candidates |J|=" + std::to_string(run.candidates);
    return response;
  }
};

// -------------------------------------------------------- sample_aggregate ---

class SampleAggregateAlgorithm : public Algorithm {
 public:
  std::string_view name() const override { return "sample_aggregate"; }
  ProblemKind kind() const override { return ProblemKind::kSampleAggregate; }
  std::string_view description() const override {
    return "Algorithm 4 (SA): compile a subsample-stable non-private "
           "estimator into a private one via 1-cluster aggregation";
  }
  Status ValidateRequest(const Request& request) const override {
    DPC_RETURN_IF_ERROR(RequireDomain(request));
    const std::size_t m = BlockSize(request);
    if (request.data.size() < 18 * m) {
      return Status::InvalidArgument(
          "Request: sample_aggregate needs n >= 18 * block_size");
    }
    return Status::OK();
  }
  Result<Response> Run(Rng& rng, const Request& request,
                       BudgetSession& session) const override {
    SampleAggregateOptions o;
    o.params = request.budget;
    o.beta = request.beta;
    o.block_size = BlockSize(request);
    o.alpha = request.alpha;
    o.num_threads = request.num_threads;
    o.one_cluster = OneClusterOptionsFrom(request);
    const Estimator f = request.estimator ? request.estimator : MeanEstimator();
    DPC_ASSIGN_OR_RETURN(
        SampleAggregateResult run,
        SampleAggregate(rng, request.data, f, *request.domain, o));
    DPC_RETURN_IF_ERROR(session.ChargeLedger(run.aggregate.ledger));
    Response response;
    response.ball.center = run.point;
    response.ball.radius = run.radius;
    response.note = "blocks k=" + std::to_string(run.blocks) +
                    "; amplified budget " + run.amplified.ToString();
    return response;
  }

 private:
  static std::size_t BlockSize(const Request& request) {
    if (request.block_size > 0) return request.block_size;
    // Default: aim for k = n/(9m) ~ 400 blocks — the aggregator needs many
    // block outputs (its target count is t = alpha k / 2, which must clear
    // the 1-cluster noise floor) far more than it needs large blocks.
    return std::max<std::size_t>(1, request.data.size() / (9 * 400));
  }
};

// ------------------------------------------------------- exp_mech_baseline ---

class ExpMechBaselineAlgorithm : public Algorithm {
 public:
  std::string_view name() const override { return "exp_mech_baseline"; }
  ProblemKind kind() const override { return ProblemKind::kBaseline; }
  std::string_view description() const override {
    return "Table 1 baseline [14]: exponential mechanism over all grid balls "
           "(w ~ 1, time poly(|X|^d))";
  }
  Status ValidateRequest(const Request& request) const override {
    DPC_RETURN_IF_ERROR(RequireDomain(request));
    DPC_RETURN_IF_ERROR(RequireT(request));
    return CheckGridCenters(*request.domain, request.tuning.max_grid_centers);
  }
  Result<Response> Run(Rng& rng, const Request& request,
                       BudgetSession& session) const override {
    ExpMechBaselineOptions o;
    o.params = {request.budget.epsilon, 0.0};  // Pure eps-DP.
    o.beta = request.beta;
    o.max_grid_centers = request.tuning.max_grid_centers;
    DPC_ASSIGN_OR_RETURN(Ball ball,
                         ExpMechBaseline(rng, request.data, request.t,
                                         *request.domain, o));
    DPC_RETURN_IF_ERROR(session.Charge("exp_mech", o.params));
    Response response;
    response.ball = std::move(ball);
    return response;
  }
};

// ----------------------------------------------------- noisy_mean_baseline ---

class NoisyMeanBaselineAlgorithm : public Algorithm {
 public:
  std::string_view name() const override { return "noisy_mean_baseline"; }
  ProblemKind kind() const override { return ProblemKind::kBaseline; }
  std::string_view description() const override {
    return "Table 1 baseline [16]: noisy mean center + noisy radius search "
           "(w ~ sqrt(d)/eps, majority clusters only)";
  }
  Status ValidateRequest(const Request& request) const override {
    DPC_RETURN_IF_ERROR(RequireDomain(request));
    return RequireT(request);
  }
  Result<Response> Run(Rng& rng, const Request& request,
                       BudgetSession& session) const override {
    NoisyMeanBaselineOptions o;
    o.params = request.budget;
    o.beta = request.beta;
    DPC_ASSIGN_OR_RETURN(Ball ball,
                         NoisyMeanBaseline(rng, request.data, request.t,
                                           *request.domain, o));
    DPC_RETURN_IF_ERROR(session.Charge("noisy_mean", o.params));
    Response response;
    response.ball = std::move(ball);
    return response;
  }
};

// --------------------------------------------------- threshold_release_1d ---

class ThresholdReleaseAlgorithm : public Algorithm {
 public:
  std::string_view name() const override { return "threshold_release_1d"; }
  ProblemKind kind() const override { return ProblemKind::kBaseline; }
  std::string_view description() const override {
    return "Table 1 baseline [3,4] (d=1): dyadic-tree threshold release, "
           "then post-process the shortest heavy interval";
  }
  Status ValidateRequest(const Request& request) const override {
    DPC_RETURN_IF_ERROR(RequireDomain(request));
    DPC_RETURN_IF_ERROR(Require1D(request));
    return RequireT(request);
  }
  Result<Response> Run(Rng& rng, const Request& request,
                       BudgetSession& session) const override {
    ThresholdRelease1DOptions o;
    o.params = {request.budget.epsilon, 0.0};  // Pure eps-DP.
    o.beta = request.beta;
    DPC_ASSIGN_OR_RETURN(
        ThresholdRelease1D release,
        ThresholdRelease1D::Build(rng, request.data, *request.domain, o));
    DPC_RETURN_IF_ERROR(session.Charge("threshold_release", o.params));
    DPC_ASSIGN_OR_RETURN(
        Ball ball,
        release.SmallestHeavyInterval(static_cast<double>(request.t)));
    Response response;
    response.ball = std::move(ball);
    response.note = "interval error bound " +
                    std::to_string(release.ErrorBound());
    return response;
  }
};

// -------------------------------------------------------------- nonprivate ---

class NonPrivateAlgorithm : public Algorithm {
 public:
  std::string_view name() const override { return "nonprivate"; }
  ProblemKind kind() const override { return ProblemKind::kBaseline; }
  std::string_view description() const override {
    return "Non-private reference: exact interval (d=1) or 2-approximation; "
           "charges no privacy budget";
  }
  Status ValidateRequest(const Request& request) const override {
    return RequireT(request);
  }
  Result<Response> Run(Rng&, const Request& request,
                       BudgetSession&) const override {
    DPC_ASSIGN_OR_RETURN(Ball ball,
                         NonPrivateBestEffort(request.data, request.t));
    Response response;
    response.ball = std::move(ball);
    response.note = "NOT differentially private (reference only)";
    return response;
  }
};

}  // namespace

Status RegisterBuiltinAlgorithms(AlgorithmRegistry& registry) {
  const auto add = [&registry](std::unique_ptr<Algorithm> algorithm) {
    if (registry.Contains(algorithm->name())) return Status::OK();
    return registry.Register(std::move(algorithm));
  };
  DPC_RETURN_IF_ERROR(add(std::make_unique<OneClusterAlgorithm>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<KClusterAlgorithm>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<OutlierScreenAlgorithm>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<InteriorPointAlgorithm>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<SampleAggregateAlgorithm>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<ExpMechBaselineAlgorithm>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<NoisyMeanBaselineAlgorithm>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<ThresholdReleaseAlgorithm>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<NonPrivateAlgorithm>()));
  return Status::OK();
}

}  // namespace dpcluster
