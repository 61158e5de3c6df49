#include "dpcluster/service/service.h"

#include <optional>
#include <utility>
#include <vector>

#include "dpcluster/api/solver.h"
#include "dpcluster/common/check.h"

namespace dpcluster {

namespace {

// Same floating-point slack BudgetSession allows on its own overdraw check:
// admission must not refuse a request that composition arithmetic would
// accept.
constexpr double kSlack = 1e-12;

std::string LedgerKey(const std::string& tenant, const std::string& dataset) {
  return tenant + "\n" + dataset;
}

JsonValue BudgetToJson(const PrivacyParams& cap, const PrivacyParams& spent) {
  PrivacyParams remaining{cap.epsilon - spent.epsilon, cap.delta - spent.delta};
  if (remaining.epsilon < 0.0) remaining.epsilon = 0.0;
  if (remaining.delta < 0.0) remaining.delta = 0.0;
  JsonValue object = JsonValue::Object();
  object.Set("cap", PrivacyParamsToJson(cap));
  object.Set("spent", PrivacyParamsToJson(spent));
  object.Set("remaining", PrivacyParamsToJson(remaining));
  return object;
}

ServiceReply ReplyWith(int http_status, const JsonValue& json) {
  return ServiceReply{http_status, json.Encode()};
}

/// The wire code for an IndexCache stream error: absent stream = 404,
/// busy/full = 503 (retryable), bad arguments = 400.
ServiceErrorCode StreamErrorCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound: return ServiceErrorCode::kUnknownDataset;
    case StatusCode::kResourceExhausted: return ServiceErrorCode::kQueueFull;
    case StatusCode::kInvalidArgument:
      return ServiceErrorCode::kInvalidRequest;
    default: return ServiceErrorCode::kInternal;
  }
}

}  // namespace

ClusterService::ClusterService(ServiceOptions options)
    : options_(std::move(options)),
      registry_(options_.registry != nullptr ? options_.registry
                                             : &AlgorithmRegistry::Global()),
      cache_(options_.cache_capacity) {}

bool ClusterService::shutdown_requested() const {
  return shutdown_.load(std::memory_order_acquire);
}

void ClusterService::RequestShutdown() {
  shutdown_.store(true, std::memory_order_release);
}

ClusterService::Stats ClusterService::GetStats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

PrivacyParams ClusterService::SpentBy(const std::string& tenant,
                                      const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  const auto it = ledgers_.find(LedgerKey(tenant, dataset));
  if (it == ledgers_.end()) return PrivacyParams{0.0, 0.0};
  return it->second.charges.BasicTotal();
}

PrivacyParams ClusterService::CapFor(const std::string& tenant) const {
  const auto it = options_.tenant_budgets.find(tenant);
  return it != options_.tenant_budgets.end() ? it->second
                                             : options_.default_budget;
}

ServiceReply ClusterService::Error(ServiceErrorCode code,
                                   const std::string& message) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.rejected;
    if (code == ServiceErrorCode::kBudgetExhausted) ++stats_.budget_rejections;
  }
  return ReplyWith(HttpStatusOf(code), ErrorToJson(code, message));
}

ServiceReply ClusterService::Handle(std::string_view method,
                                    std::string_view path,
                                    std::string_view body) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests;
  }
  if (path == "/healthz") {
    if (method != "GET") {
      return ReplyWith(405, ErrorToJson(ServiceErrorCode::kMethodNotAllowed,
                                        "/healthz accepts GET"));
    }
    return Health();
  }
  if (path == "/v1/algorithms") {
    if (method != "GET") {
      return ReplyWith(405, ErrorToJson(ServiceErrorCode::kMethodNotAllowed,
                                        "/v1/algorithms accepts GET"));
    }
    return Algorithms();
  }
  if (path == "/v1/stats") {
    if (method != "GET") {
      return ReplyWith(405, ErrorToJson(ServiceErrorCode::kMethodNotAllowed,
                                        "/v1/stats accepts GET"));
    }
    return StatsReply();
  }
  if (path == "/v1/solve") {
    if (method != "POST") {
      return ReplyWith(405, ErrorToJson(ServiceErrorCode::kMethodNotAllowed,
                                        "/v1/solve accepts POST"));
    }
    if (shutdown_requested()) {
      return Error(ServiceErrorCode::kShuttingDown, "server is draining");
    }
    return Solve(body);
  }
  if (path == "/v1/stream/append" || path == "/v1/stream/expire") {
    if (method != "POST") {
      return ReplyWith(405, ErrorToJson(ServiceErrorCode::kMethodNotAllowed,
                                        std::string(path) + " accepts POST"));
    }
    if (shutdown_requested()) {
      return Error(ServiceErrorCode::kShuttingDown, "server is draining");
    }
    return StreamMutate(body, /*append=*/path == "/v1/stream/append");
  }
  if (path == "/v1/shutdown") {
    if (method != "POST") {
      return ReplyWith(405, ErrorToJson(ServiceErrorCode::kMethodNotAllowed,
                                        "/v1/shutdown accepts POST"));
    }
    if (!options_.allow_remote_shutdown) {
      return ReplyWith(404, ErrorToJson(ServiceErrorCode::kRouteNotFound,
                                        "remote shutdown is disabled"));
    }
    RequestShutdown();
    JsonValue reply = JsonValue::Object();
    reply.Set("ok", JsonValue::Bool(true));
    reply.Set("status", JsonValue::String("draining"));
    return ReplyWith(200, reply);
  }
  return ReplyWith(404, ErrorToJson(ServiceErrorCode::kRouteNotFound,
                                    "no route " + std::string(path)));
}

ServiceReply ClusterService::Health() const {
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", JsonValue::Bool(true));
  reply.Set("status", JsonValue::String(shutdown_requested() ? "draining"
                                                             : "serving"));
  return ReplyWith(200, reply);
}

ServiceReply ClusterService::Algorithms() const {
  JsonValue names = JsonValue::Array();
  for (const std::string& name : registry_->Names()) {
    names.Append(JsonValue::String(name));
  }
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", JsonValue::Bool(true));
  reply.Set("algorithms", std::move(names));
  return ReplyWith(200, reply);
}

ServiceReply ClusterService::StatsReply() const {
  const Stats stats = GetStats();
  const IndexCache::Stats cache = cache_.GetStats();
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", JsonValue::Bool(true));
  JsonValue requests = JsonValue::Object();
  requests.Set("handled", JsonValue::Number(stats.requests));
  requests.Set("solved", JsonValue::Number(stats.solved));
  requests.Set("rejected", JsonValue::Number(stats.rejected));
  requests.Set("budget_rejections",
               JsonValue::Number(stats.budget_rejections));
  reply.Set("requests", std::move(requests));
  JsonValue stream_json = JsonValue::Object();
  stream_json.Set("appends", JsonValue::Number(stats.stream_appends));
  stream_json.Set("expires", JsonValue::Number(stats.stream_expires));
  stream_json.Set("compactions",
                  JsonValue::Number(stats.stream_compactions));
  reply.Set("stream", std::move(stream_json));
  JsonValue cache_json = JsonValue::Object();
  cache_json.Set("hits", JsonValue::Number(cache.hits));
  cache_json.Set("misses", JsonValue::Number(cache.misses));
  cache_json.Set("replaced", JsonValue::Number(cache.replaced));
  cache_json.Set("evictions", JsonValue::Number(cache.evictions));
  cache_json.Set("bypasses", JsonValue::Number(cache.bypasses));
  cache_json.Set("entries", JsonValue::Number(cache.entries));
  cache_json.Set("profile_hits", JsonValue::Number(cache.profile_hits));
  cache_json.Set("profile_misses", JsonValue::Number(cache.profile_misses));
  reply.Set("index_cache", std::move(cache_json));
  JsonValue tenants = JsonValue::Array();
  {
    std::lock_guard<std::mutex> lock(ledger_mutex_);
    for (const auto& [key, ledger] : ledgers_) {
      const std::size_t split = key.find('\n');
      JsonValue row = JsonValue::Object();
      row.Set("tenant", JsonValue::String(key.substr(0, split)));
      row.Set("dataset", JsonValue::String(key.substr(split + 1)));
      row.Set("budget",
              BudgetToJson(ledger.cap, ledger.charges.BasicTotal()));
      tenants.Append(std::move(row));
    }
  }
  reply.Set("tenants", std::move(tenants));
  return ReplyWith(200, reply);
}

ServiceReply ClusterService::Solve(std::string_view body) {
  if (body.size() > options_.max_body_bytes) {
    return Error(ServiceErrorCode::kPayloadTooLarge,
                 "body exceeds " + std::to_string(options_.max_body_bytes) +
                     " bytes");
  }

  // Phase 1 — parse. Shape problems are ParseError; nothing is charged.
  auto parsed = ParseWireRequest(body);
  if (!parsed.ok()) {
    return Error(ServiceErrorCode::kParseError, parsed.status().message());
  }
  WireRequest wire = std::move(*parsed);
  Request& request = wire.request;

  // Stream solves ("stream": true) run over the resident streaming dataset:
  // the lease is version-tagged (no client bytes to fingerprint) and carries
  // the maintained index, so the solve pays no re-index. Acquired before
  // admission because the data and domain come from the entry; an admission
  // rejection releases the lease untouched.
  IndexCache::Lease lease;
  IndexCache::StreamStatus stream_status;
  if (wire.stream) {
    PointSet active;
    GridDomain stream_domain(2, 1);
    auto acquired = cache_.AcquireStream(
        wire.dataset, request.tuning.coreset_options(),
        request.tuning.coreset_staleness_fraction,
        &active, &stream_domain, &stream_status);
    if (!acquired.ok()) {
      return Error(StreamErrorCode(acquired.status()),
                   acquired.status().message());
    }
    lease = std::move(*acquired);
    if (active.empty()) {
      return Error(ServiceErrorCode::kInvalidRequest,
                   "stream \"" + wire.dataset + "\" has no live rows");
    }
    request.data = std::move(active);
    request.domain = stream_domain;
  }

  if (wire.snap && request.domain.has_value()) {
    request.domain->SnapAll(request.data);
  }
  if (!wire.stream && request.data.size() > options_.max_points) {
    return Error(ServiceErrorCode::kPayloadTooLarge,
                 "request carries " + std::to_string(request.data.size()) +
                     " points; the server caps at " +
                     std::to_string(options_.max_points));
  }

  // Phase 2 — validate everything that can fail without touching the data,
  // so invalid requests charge nothing. The same checks run again inside
  // Solver::Run; they are cheap.
  auto algorithm = registry_->Lookup(request.algorithm);
  if (!algorithm.ok()) {
    return Error(ServiceErrorCode::kUnknownAlgorithm,
                 algorithm.status().message());
  }
  if (Status status = request.Validate(); !status.ok()) {
    return Error(ServiceErrorCode::kInvalidRequest, status.message());
  }
  if (Status status = (*algorithm)->ValidateRequest(request); !status.ok()) {
    // A shape-only resource refusal (n over the radius profile's cap) keeps
    // its 422 ResourceLimit code; either way nothing has been charged.
    return Error(ServiceErrorFromStatus(status), status.message());
  }

  // Phase 3 — admission. Under the ledger mutex: charge the FULL requested
  // budget up front, or reject with the structured remaining-budget error.
  PrivacyParams cap, spent;
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(ledger_mutex_);
    auto [it, inserted] =
        ledgers_.try_emplace(LedgerKey(wire.tenant, wire.dataset));
    TenantLedger& ledger = it->second;
    if (inserted) ledger.cap = CapFor(wire.tenant);
    cap = ledger.cap;
    spent = ledger.charges.BasicTotal();
    if (spent.epsilon + request.budget.epsilon <= cap.epsilon + kSlack &&
        spent.delta + request.budget.delta <= cap.delta + kSlack) {
      ledger.charges.Charge("solve/" + request.algorithm, request.budget);
      spent = ledger.charges.BasicTotal();
      admitted = true;
    }
  }
  if (!admitted) {
    JsonValue error = ErrorToJson(
        ServiceErrorCode::kBudgetExhausted,
        "(tenant \"" + wire.tenant + "\", dataset \"" + wire.dataset +
            "\") cannot cover (epsilon=" +
            JsonNumberLexeme(request.budget.epsilon) +
            ", delta=" + JsonNumberLexeme(request.budget.delta) + ")");
    error.Set("budget", BudgetToJson(cap, spent));
    error.Set("requested", PrivacyParamsToJson(request.budget));
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected;
      ++stats_.budget_rejections;
    }
    return ReplyWith(HttpStatusOf(ServiceErrorCode::kBudgetExhausted),
                     std::move(error));
  }

  // Phase 4 — borrow the shared index when the request has a domain. A busy
  // or full cache bypasses: the algorithm then builds its own index
  // (BuildSharedIndex, bit-identical outputs). When the coreset rule applies,
  // the lease carries the cached weighted summary instead of the raw index
  // (built once per dataset, reused across solves).
  // Stream solves already hold their version-tagged lease from above.
  if (!wire.stream && request.domain.has_value() && !request.data.empty()) {
    lease = cache_.Acquire(wire.dataset, request.data, *request.domain,
                           request.tuning.coreset_options());
  }
  if (lease) request.shared_index = lease.index();

  // Phase 5 — solve on a per-request Solver, seeded from the wire request so
  // responses are deterministic per (request, seed) regardless of traffic.
  SolverOptions solver_options;
  solver_options.seed = wire.seed != 0 ? wire.seed : options_.seed;
  solver_options.diagnostics = options_.diagnostics;
  solver_options.registry = registry_;
  Solver solver(solver_options);
  auto response = solver.Run(request);
  request.shared_index.reset();  // Returned to the cache when `lease` dies.
  if (!response.ok()) {
    const ServiceErrorCode code = ServiceErrorFromStatus(response.status());
    JsonValue error = ErrorToJson(code, response.status().message());
    error.Set("budget", BudgetToJson(cap, spent));
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected;
      if (code == ServiceErrorCode::kBudgetExhausted) {
        ++stats_.budget_rejections;
      }
    }
    return ReplyWith(HttpStatusOf(code), std::move(error));
  }

  JsonValue reply = JsonValue::Object();
  reply.Set("ok", JsonValue::Bool(true));
  reply.Set("tenant", JsonValue::String(wire.tenant));
  reply.Set("dataset", JsonValue::String(wire.dataset));
  reply.Set("seed", JsonValue::Number(solver_options.seed));
  reply.Set("indexed", JsonValue::Bool(static_cast<bool>(lease)));
  if (wire.stream) {
    JsonValue stream_json = JsonValue::Object();
    stream_json.Set("version", JsonValue::Number(stream_status.version));
    stream_json.Set("live", JsonValue::Number(static_cast<std::uint64_t>(
                                stream_status.live)));
    stream_json.Set("compacted", JsonValue::Bool(stream_status.compacted));
    reply.Set("stream", std::move(stream_json));
  }
  reply.Set("budget", BudgetToJson(cap, spent));
  reply.Set("response", ResponseToJson(*response));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.solved;
  }
  return ReplyWith(200, reply);
}

ServiceReply ClusterService::StreamMutate(std::string_view body, bool append) {
  if (body.size() > options_.max_body_bytes) {
    return Error(ServiceErrorCode::kPayloadTooLarge,
                 "body exceeds " + std::to_string(options_.max_body_bytes) +
                     " bytes");
  }
  auto parsed = append ? ParseStreamAppend(body) : ParseStreamExpire(body);
  if (!parsed.ok()) {
    return Error(ServiceErrorCode::kParseError, parsed.status().message());
  }
  StreamRequest stream = std::move(*parsed);
  if (stream.points.size() > options_.max_points) {
    return Error(ServiceErrorCode::kPayloadTooLarge,
                 "request carries " + std::to_string(stream.points.size()) +
                     " points; the server caps at " +
                     std::to_string(options_.max_points));
  }
  std::optional<GridDomain> create_domain;
  if (append && stream.levels > 0) {
    create_domain.emplace(stream.levels, stream.points.dim(), stream.axis);
  }

  // The mutation body validates the whole batch before touching the dataset,
  // so a rejected request leaves the stream exactly as it was.
  std::size_t first_id = 0;
  auto mutate = [&](IndexedDataset& index) -> Result<std::size_t> {
    if (append) {
      if (stream.points.dim() != index.domain().dim()) {
        return Status::InvalidArgument(
            "points are " + std::to_string(stream.points.dim()) +
            "-dimensional; the stream is " +
            std::to_string(index.domain().dim()) + "-dimensional");
      }
      if (create_domain.has_value() &&
          (index.domain().levels() != create_domain->levels() ||
           index.domain().axis_length() != create_domain->axis_length())) {
        return Status::InvalidArgument(
            "\"levels\"/\"axis\" do not match the resident stream's domain");
      }
      if (stream.snap) index.domain().SnapAll(stream.points);
      const double axis = index.domain().axis_length();
      for (std::size_t i = 0; i < stream.points.size(); ++i) {
        for (const double x : stream.points[i]) {
          if (!(x >= 0.0 && x <= axis)) {
            return Status::InvalidArgument(
                "point " + std::to_string(i) +
                " lies outside the stream's cube (set \"snap\": true, or "
                "rescale the coordinates)");
          }
        }
      }
      first_id = index.size();
      for (std::size_t i = 0; i < stream.points.size(); ++i) {
        DPC_CHECK(index.Insert(stream.points[i]).ok());  // Validated above.
      }
      return stream.points.size();
    }
    // Expire: resolve every target row up front (oldest-first for "count").
    std::vector<std::uint32_t> doomed;
    if (stream.expire_count > 0) {
      const auto active = index.ActiveIds();
      if (stream.expire_count > active.size()) {
        return Status::InvalidArgument(
            "\"count\" = " + std::to_string(stream.expire_count) +
            " exceeds the " + std::to_string(active.size()) + " live rows");
      }
      doomed.assign(active.begin(),
                    active.begin() +
                        static_cast<std::ptrdiff_t>(stream.expire_count));
    } else {
      std::vector<std::uint8_t> seen(index.size(), 0);
      for (const std::uint32_t id : stream.expire_ids) {
        if (id >= index.size() || !index.IsActive(id)) {
          return Status::InvalidArgument(
              "row id " + std::to_string(id) +
              " is not a live row of this stream (ids go stale when a "
              "reply reports \"compacted\": true)");
        }
        if (seen[id] != 0) {
          return Status::InvalidArgument("row id " + std::to_string(id) +
                                         " listed twice");
        }
        seen[id] = 1;
      }
      doomed = stream.expire_ids;
    }
    for (const std::uint32_t id : doomed) index.Remove(id);
    return doomed.size();
  };

  auto status = cache_.MutateStream(
      stream.dataset, create_domain.has_value() ? &*create_domain : nullptr,
      stream.tuning.stream_compact_fraction, mutate);
  if (!status.ok()) {
    return Error(StreamErrorCode(status.status()),
                 status.status().message());
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (append) {
      ++stats_.stream_appends;
    } else {
      ++stats_.stream_expires;
    }
    if (status->compacted) ++stats_.stream_compactions;
  }
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", JsonValue::Bool(true));
  reply.Set("dataset", JsonValue::String(stream.dataset));
  if (append) {
    reply.Set("appended",
              JsonValue::Number(
                  static_cast<std::uint64_t>(stream.points.size())));
    // Row ids [first_id, first_id + appended) — until a compaction
    // renumbers; then the reply says so and clients re-learn ids.
    reply.Set("first_id", status->compacted
                              ? JsonValue::Null()
                              : JsonValue::Number(
                                    static_cast<std::uint64_t>(first_id)));
  } else {
    reply.Set("expired",
              JsonValue::Number(stream.expire_count > 0
                                    ? stream.expire_count
                                    : static_cast<std::uint64_t>(
                                          stream.expire_ids.size())));
  }
  reply.Set("version", JsonValue::Number(status->version));
  reply.Set("live",
            JsonValue::Number(static_cast<std::uint64_t>(status->live)));
  reply.Set("total",
            JsonValue::Number(static_cast<std::uint64_t>(status->total)));
  reply.Set("compacted", JsonValue::Bool(status->compacted));
  reply.Set("created", JsonValue::Bool(status->created));
  return ReplyWith(200, reply);
}

}  // namespace dpcluster
