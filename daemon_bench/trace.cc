#include "trace.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "dpcluster/api/registry.h"
#include "dpcluster/api/request.h"
#include "dpcluster/api/response.h"
#include "dpcluster/api/solver.h"
#include "dpcluster/baselines/threshold_release_1d.h"
#include "dpcluster/core/good_center.h"
#include "dpcluster/core/good_radius.h"
#include "dpcluster/core/k_cluster.h"
#include "dpcluster/core/one_cluster.h"
#include "dpcluster/core/radius_profile.h"
#include "dpcluster/core/radius_refine.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/minimal_ball.h"
#include "dpcluster/parallel/thread_pool.h"
#include "dpcluster/random/rng.h"
#include "dpcluster/service/json.h"
#include "dpcluster/service/protocol.h"
#include "dpcluster/workload/metrics.h"

namespace daemon_bench {

using namespace dpcluster;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kHttpServer: return "http_server";
    case Layer::kService: return "service";
    case Layer::kDecode: return "protocol.decode";
    case Layer::kValidate: return "service.validate";
    case Layer::kAcquire: return "index_cache.acquire";
    case Layer::kCompact: return "dataset.compact";
    case Layer::kMutateStream: return "index_cache.mutate_stream";
    case Layer::kInsert: return "dataset.insert";
    case Layer::kRemove: return "dataset.remove";
    case Layer::kSolverRun: return "solver.run";
    case Layer::kKCluster: return "k_cluster";
    case Layer::kGoodRadius: return "good_radius";
    case Layer::kRadiusProfile: return "radius_profile.build";
    case Layer::kGoodCenter: return "good_center";
    case Layer::kRadiusRefine: return "radius_refine";
    case Layer::kThresholdRelease: return "threshold_release";
    case Layer::kEvaluate: return "diagnostics.evaluate";
    case Layer::kOptRadius: return "diagnostics.opt_radius_lower_bound";
    case Layer::kEncode: return "protocol.encode";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::Begin(Layer layer, int parent) {
  spans_.push_back({layer, parent, request_, Now(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) {
  spans_[static_cast<std::size_t>(span)].end_ns = Now();
}

namespace {

CoresetOptions CoresetOptionsOf(const Tuning& tuning) {
  CoresetOptions c;
  c.enabled = tuning.coreset;
  c.min_points = tuning.coreset_min_points;
  c.target_size = tuning.coreset_target_size;
  return c;
}

/// one_cluster's two phases, each called on its own with the phase options
/// OneCluster derives from the request (at the default tuning the workloads
/// send): GoodRadius, RadiusProfile::Build on the same input (GoodRadius's
/// child), and GoodCenter at the radius GoodRadius found.
Status OneClusterStages(Rng& rng, const Request& request, Tracer* tracer,
                        int run) {
  OneClusterOptions o;
  o.params = request.budget;
  o.beta = request.beta;
  o.num_threads = request.num_threads;
  const GridDomain& domain = *request.domain;
  const IndexedDataset* index = request.shared_index.get();
  const std::size_t t = request.t;

  GoodRadiusOptions radius = o.radius;
  radius.params = o.params.Fraction(o.radius_budget_fraction);
  radius.beta = o.beta / 2.0;
  radius.num_threads = o.num_threads;
  Result<GoodRadiusResult> found = Status::Internal("unset");
  int good_radius = -1;
  {
    ScopedSpan span(tracer, Layer::kGoodRadius, run);
    found = index != nullptr
                ? GoodRadius(rng, *index, t, radius)
                : GoodRadius(rng, request.data, t, domain, radius);
    good_radius = span.index();
  }
  DPC_RETURN_IF_ERROR(found.status());
  {
    ThreadPool pool(radius.num_threads);
    ScopedSpan span(tracer, Layer::kRadiusProfile, good_radius);
    DPC_RETURN_IF_ERROR(
        (index != nullptr
             ? RadiusProfile::Build(*index, t, radius.max_profile_points,
                                    &pool, radius.profile_index)
             : RadiusProfile::Build(request.data, t, domain,
                                    radius.max_profile_points, &pool,
                                    radius.profile_index,
                                    radius.index_geometry))
            .status());
  }

  GoodCenterOptions center = o.center;
  center.params = o.params.Fraction(1.0 - o.radius_budget_fraction);
  center.beta = o.beta / 2.0;
  center.num_threads = o.num_threads;
  if (center.domain_axis_length > 0.0) {
    center.domain_axis_length = domain.axis_length();
  }
  const double r = std::max(found->radius, domain.RadiusFromIndex(1));
  ScopedSpan span(tracer, Layer::kGoodCenter, run);
  return (index != nullptr ? GoodCenter(rng, *index, t, r, center)
                           : GoodCenter(rng, request.data, t, r, center))
      .status();
}

/// KCluster as one span. Its rounds run GoodRadius, GoodCenter and
/// RefineRadius inside it, which cannot be timed apart without restating the
/// round loop; radius_refine instead times one round's RefineRadius on round
/// one's input (the full index, the first released center) as a span with no
/// parent, so it is never subtracted from k_cluster.
Status KClusterStages(Rng& rng, const Request& request, Tracer* tracer,
                      int run, LayerFacts* facts) {
  KClusterOptions o;
  o.params = request.budget;
  o.beta = request.beta;
  o.k = request.k;
  o.per_round_t = request.t;
  o.num_threads = request.num_threads;
  IndexedDataset* index = request.shared_index.get();
  Result<KClusterResult> covered = Status::Internal("unset");
  {
    ScopedSpan span(tracer, Layer::kKCluster, run);
    covered = KCluster(rng, request.data, *request.domain, o, index);
  }
  DPC_RETURN_IF_ERROR(covered.status());
  facts->kcluster_rounds += covered->rounds.size();
  facts->kcluster_k += o.k;
  if (o.refine_fraction <= 0.0 || covered->rounds.empty() ||
      index == nullptr) {
    return Status::OK();
  }
  const double k = static_cast<double>(o.k);
  RadiusRefineOptions refine;
  refine.epsilon = o.params.epsilon / k * o.refine_fraction;
  refine.beta = o.beta / k;
  ScopedSpan span(tracer, Layer::kRadiusRefine);
  return RefineRadius(rng, *index, covered->rounds.front().ball.center,
                      request.t, refine)
      .status();
}

Status ThresholdReleaseStage(Rng& rng, const Request& request, Tracer* tracer,
                             int run) {
  ThresholdRelease1DOptions o;
  o.params = {request.budget.epsilon, 0.0};
  o.beta = request.beta;
  ScopedSpan span(tracer, Layer::kThresholdRelease, run);
  DPC_ASSIGN_OR_RETURN(ThresholdRelease1D release,
                       ThresholdRelease1D::Build(rng, request.data,
                                                 *request.domain, o));
  return release.SmallestHeavyInterval(static_cast<double>(request.t))
      .status();
}

}  // namespace

Breakdown::Breakdown(const ServiceOptions& options)
    : options_(options), cache_(options.cache_capacity) {}

Status Breakdown::Run(std::string_view path, std::string_view body,
                      Tracer* tracer, int service, LayerFacts* facts) {
  if (path == "/v1/solve") return Solve(body, tracer, service, facts);
  if (path == "/v1/stream/append") {
    return StreamMutate(body, /*append=*/true, tracer, service, facts);
  }
  if (path == "/v1/stream/expire") {
    return StreamMutate(body, /*append=*/false, tracer, service, facts);
  }
  return Status::InvalidArgument("no breakdown for " + std::string(path));
}

Status Breakdown::Solve(std::string_view body, Tracer* tracer, int service,
                        LayerFacts* facts) {
  Result<WireRequest> parsed = Status::Internal("unset");
  {
    ScopedSpan span(tracer, Layer::kDecode, service);
    parsed = ParseWireRequest(body);
  }
  DPC_RETURN_IF_ERROR(parsed.status());
  WireRequest wire = std::move(*parsed);
  Request& request = wire.request;
  const CoresetOptions coreset = CoresetOptionsOf(request.tuning);

  IndexCache::Lease lease;
  if (wire.stream) {
    ScopedSpan acquire(tracer, Layer::kAcquire, service);
    // AcquireStream compacts expired rows before lending; compacting them
    // first through MutateStream gives IndexedDataset::Compact its own span.
    DPC_RETURN_IF_ERROR(
        cache_
            .MutateStream(wire.dataset, nullptr, /*compact_fraction=*/0.0,
                          [&](IndexedDataset& index) -> Result<std::size_t> {
                            if (index.active_size() < index.size()) {
                              ScopedSpan span(tracer, Layer::kCompact,
                                              acquire.index());
                              index.Compact();
                              ++facts->compactions;
                            }
                            return std::size_t{0};
                          })
            .status());
    PointSet active;
    GridDomain domain(2, 1);
    IndexCache::StreamStatus status;
    DPC_ASSIGN_OR_RETURN(
        lease, cache_.AcquireStream(wire.dataset, coreset,
                                    request.tuning.coreset_staleness_fraction,
                                    &active, &domain, &status));
    request.data = std::move(active);
    request.domain = domain;
  }

  const AlgorithmRegistry& registry = options_.registry != nullptr
                                          ? *options_.registry
                                          : AlgorithmRegistry::Global();
  {
    ScopedSpan span(tracer, Layer::kValidate, service);
    if (wire.snap && request.domain.has_value()) {
      request.domain->SnapAll(request.data);
    }
    DPC_ASSIGN_OR_RETURN(const Algorithm* algorithm,
                         registry.Lookup(request.algorithm));
    DPC_RETURN_IF_ERROR(request.Validate());
    DPC_RETURN_IF_ERROR(algorithm->ValidateRequest(request));
  }
  if (!wire.stream && request.domain.has_value() && !request.data.empty()) {
    ScopedSpan span(tracer, Layer::kAcquire, service);
    lease = cache_.Acquire(wire.dataset, request.data, *request.domain,
                           coreset);
  }
  if (lease) request.shared_index = lease.index();

  SolverOptions solver_options;
  solver_options.seed = wire.seed != 0 ? wire.seed : options_.seed;
  solver_options.diagnostics = false;
  solver_options.registry = options_.registry;
  Result<Response> response = Status::Internal("unset");
  int run = -1;
  {
    ScopedSpan span(tracer, Layer::kSolverRun, service);
    response = Solver(solver_options).Run(request);
    run = span.index();
  }
  DPC_RETURN_IF_ERROR(response.status());

  Rng rng(solver_options.seed);
  if (request.algorithm == "one_cluster") {
    DPC_RETURN_IF_ERROR(OneClusterStages(rng, request, tracer, run));
  } else if (request.algorithm == "k_cluster") {
    DPC_RETURN_IF_ERROR(KClusterStages(rng, request, tracer, run, facts));
  } else if (request.algorithm == "threshold_release_1d") {
    DPC_RETURN_IF_ERROR(ThresholdReleaseStage(rng, request, tracer, run));
  }
  request.shared_index.reset();
  lease = IndexCache::Lease();

  // Solver::Run's diagnostics pass, under the same condition Solver::Run
  // applies; OptRadiusLowerBound is its child.
  if (options_.diagnostics && std::isnan(response->scalar) && request.t >= 1 &&
      request.t <= request.data.size() &&
      response->ball.center.size() == request.data.dim()) {
    int evaluate = -1;
    {
      ScopedSpan span(tracer, Layer::kEvaluate, service);
      DPC_RETURN_IF_ERROR(
          Evaluate(request.data, request.t, response->ball).status());
      evaluate = span.index();
    }
    ScopedSpan span(tracer, Layer::kOptRadius, evaluate);
    DPC_RETURN_IF_ERROR(OptRadiusLowerBound(request.data, request.t).status());
  }

  ScopedSpan span(tracer, Layer::kEncode, service);
  const std::string encoded = ResponseToJson(*response).Encode();
  return encoded.empty() ? Status::Internal("empty reply") : Status::OK();
}

Status Breakdown::StreamMutate(std::string_view body, bool append,
                               Tracer* tracer, int service,
                               LayerFacts* facts) {
  Result<StreamRequest> parsed = Status::Internal("unset");
  {
    ScopedSpan span(tracer, Layer::kDecode, service);
    parsed = append ? ParseStreamAppend(body) : ParseStreamExpire(body);
  }
  DPC_RETURN_IF_ERROR(parsed.status());
  const StreamRequest stream = std::move(*parsed);
  std::optional<GridDomain> create_domain;
  if (append && stream.levels > 0) {
    create_domain.emplace(stream.levels, stream.points.dim(), stream.axis);
  }

  ScopedSpan mutate(tracer, Layer::kMutateStream, service);
  const auto edit = [&](IndexedDataset& index) -> Result<std::size_t> {
    if (append) {
      ScopedSpan span(tracer, Layer::kInsert, mutate.index());
      for (std::size_t i = 0; i < stream.points.size(); ++i) {
        DPC_RETURN_IF_ERROR(index.Insert(stream.points[i]).status());
      }
      return stream.points.size();
    }
    std::vector<std::uint32_t> doomed = stream.expire_ids;
    if (stream.expire_count > 0) {
      const std::span<const std::uint32_t> active = index.ActiveIds();
      if (stream.expire_count > active.size()) {
        return Status::InvalidArgument("count exceeds the live rows");
      }
      doomed.assign(active.begin(),
                    active.begin() +
                        static_cast<std::ptrdiff_t>(stream.expire_count));
    }
    ScopedSpan span(tracer, Layer::kRemove, mutate.index());
    for (const std::uint32_t id : doomed) index.Remove(id);
    return doomed.size();
  };
  DPC_ASSIGN_OR_RETURN(
      const IndexCache::StreamStatus status,
      cache_.MutateStream(stream.dataset,
                          create_domain.has_value() ? &*create_domain : nullptr,
                          stream.tuning.stream_compact_fraction, edit));
  if (status.compacted) ++facts->compactions;
  return Status::OK();
}

}  // namespace daemon_bench
