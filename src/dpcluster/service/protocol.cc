#include "dpcluster/service/protocol.h"

#include <cmath>
#include <utility>
#include <vector>

#include "dpcluster/geo/spatial_grid.h"

namespace dpcluster {

namespace {

Status FieldError(std::string_view key, const std::string& what) {
  return Status::InvalidArgument("field \"" + std::string(key) + "\": " + what);
}

Result<double> AsDoubleField(std::string_view key, const JsonValue& v) {
  if (!v.is_number()) return FieldError(key, "expected a number");
  return v.AsDouble();
}

Result<std::uint64_t> AsU64Field(std::string_view key, const JsonValue& v) {
  if (!v.is_number()) return FieldError(key, "expected an integer");
  auto u = v.AsU64();
  if (!u.ok()) return FieldError(key, u.status().message());
  return *u;
}

Result<bool> AsBoolField(std::string_view key, const JsonValue& v) {
  if (!v.is_bool()) return FieldError(key, "expected true/false");
  return v.AsBool();
}

Result<std::string> AsStringField(std::string_view key, const JsonValue& v) {
  if (!v.is_string()) return FieldError(key, "expected a string");
  return v.AsString();
}

/// Parses "points": a non-empty array of equal-length coordinate rows.
Result<PointSet> ParsePoints(const JsonValue& v) {
  if (!v.is_array()) return FieldError("points", "expected an array of rows");
  std::size_t dim = 0;
  std::vector<double> flat;
  for (std::size_t i = 0; i < v.items().size(); ++i) {
    const JsonValue& row = v.items()[i];
    if (!row.is_array() || row.items().empty()) {
      return FieldError("points", "row " + std::to_string(i) +
                                      " is not a non-empty coordinate array");
    }
    if (dim == 0) {
      dim = row.items().size();
      flat.reserve(v.items().size() * dim);
    } else if (row.items().size() != dim) {
      return FieldError("points", "ragged rows (row " + std::to_string(i) +
                                      " has " +
                                      std::to_string(row.items().size()) +
                                      " coordinates, expected " +
                                      std::to_string(dim) + ")");
    }
    for (const JsonValue& coordinate : row.items()) {
      if (!coordinate.is_number()) {
        return FieldError("points", "row " + std::to_string(i) +
                                        " holds a non-number coordinate");
      }
      // An out-of-range literal such as 1e999 decodes to infinity.
      const double x = coordinate.AsDouble();
      if (!std::isfinite(x)) {
        return FieldError("points", "row " + std::to_string(i) +
                                        " holds a non-finite coordinate");
      }
      flat.push_back(x);
    }
  }
  if (dim == 0) return FieldError("points", "empty dataset");
  return PointSet(dim, std::move(flat));
}

Status ParseTuning(const JsonValue& v, Tuning& tuning) {
  if (!v.is_object()) return FieldError("tuning", "expected an object");
  for (const auto& [key, value] : v.members()) {
    if (key == "radius_budget_fraction") {
      DPC_ASSIGN_OR_RETURN(tuning.radius_budget_fraction,
                           AsDoubleField(key, value));
    } else if (key == "max_jl_dim") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      tuning.max_jl_dim = static_cast<std::size_t>(u);
    } else if (key == "refine_fraction") {
      DPC_ASSIGN_OR_RETURN(tuning.refine_fraction, AsDoubleField(key, value));
    } else if (key == "refine_one_cluster") {
      DPC_ASSIGN_OR_RETURN(tuning.refine_one_cluster, AsBoolField(key, value));
    } else if (key == "advanced_composition") {
      DPC_ASSIGN_OR_RETURN(tuning.advanced_composition,
                           AsBoolField(key, value));
    } else if (key == "coreset") {
      DPC_ASSIGN_OR_RETURN(tuning.coreset, AsBoolField(key, value));
    } else if (key == "coreset_min_points") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      tuning.coreset_min_points = static_cast<std::size_t>(u);
    } else if (key == "coreset_target_size") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      tuning.coreset_target_size = static_cast<std::size_t>(u);
    } else if (key == "stream_compact_fraction") {
      DPC_ASSIGN_OR_RETURN(tuning.stream_compact_fraction,
                           AsDoubleField(key, value));
    } else if (key == "coreset_staleness_fraction") {
      DPC_ASSIGN_OR_RETURN(tuning.coreset_staleness_fraction,
                           AsDoubleField(key, value));
    } else if (key == "inflation") {
      DPC_ASSIGN_OR_RETURN(tuning.inflation, AsDoubleField(key, value));
    } else if (key == "max_grid_centers") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      tuning.max_grid_centers = static_cast<std::size_t>(u);
    } else {
      return FieldError("tuning." + key, "unknown key");
    }
  }
  return Status::OK();
}

JsonValue BallToJson(const Ball& ball) {
  JsonValue object = JsonValue::Object();
  JsonValue center = JsonValue::Array();
  for (const double c : ball.center) center.Append(JsonValue::Number(c));
  object.Set("center", std::move(center));
  object.Set("radius", JsonValue::Number(ball.radius));
  return object;
}

}  // namespace

Result<WireRequest> ParseWireRequest(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("wire request must be a JSON object");
  }
  WireRequest wire;
  std::uint64_t levels = 0;
  double axis = 1.0;
  bool have_points = false;
  bool have_algorithm = false;
  for (const auto& [key, value] : json.members()) {
    if (key == "tenant") {
      DPC_ASSIGN_OR_RETURN(wire.tenant, AsStringField(key, value));
      if (wire.tenant.empty()) return FieldError(key, "must be non-empty");
    } else if (key == "dataset") {
      DPC_ASSIGN_OR_RETURN(wire.dataset, AsStringField(key, value));
    } else if (key == "seed") {
      DPC_ASSIGN_OR_RETURN(wire.seed, AsU64Field(key, value));
    } else if (key == "snap") {
      DPC_ASSIGN_OR_RETURN(wire.snap, AsBoolField(key, value));
    } else if (key == "stream") {
      DPC_ASSIGN_OR_RETURN(wire.stream, AsBoolField(key, value));
    } else if (key == "algorithm") {
      DPC_ASSIGN_OR_RETURN(wire.request.algorithm, AsStringField(key, value));
      have_algorithm = true;
    } else if (key == "points") {
      DPC_ASSIGN_OR_RETURN(wire.request.data, ParsePoints(value));
      have_points = true;
    } else if (key == "levels") {
      DPC_ASSIGN_OR_RETURN(levels, AsU64Field(key, value));
    } else if (key == "axis") {
      DPC_ASSIGN_OR_RETURN(axis, AsDoubleField(key, value));
    } else if (key == "epsilon") {
      DPC_ASSIGN_OR_RETURN(wire.request.budget.epsilon,
                           AsDoubleField(key, value));
    } else if (key == "delta") {
      DPC_ASSIGN_OR_RETURN(wire.request.budget.delta,
                           AsDoubleField(key, value));
    } else if (key == "beta") {
      DPC_ASSIGN_OR_RETURN(wire.request.beta, AsDoubleField(key, value));
    } else if (key == "t") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      wire.request.t = static_cast<std::size_t>(u);
    } else if (key == "k") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      wire.request.k = static_cast<std::size_t>(u);
    } else if (key == "inlier_fraction") {
      DPC_ASSIGN_OR_RETURN(wire.request.inlier_fraction,
                           AsDoubleField(key, value));
    } else if (key == "alpha") {
      DPC_ASSIGN_OR_RETURN(wire.request.alpha, AsDoubleField(key, value));
    } else if (key == "block_size") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      wire.request.block_size = static_cast<std::size_t>(u);
    } else if (key == "num_threads") {
      DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, value));
      wire.request.num_threads = static_cast<std::size_t>(u);
    } else if (key == "label") {
      DPC_ASSIGN_OR_RETURN(wire.request.label, AsStringField(key, value));
    } else if (key == "tuning") {
      DPC_RETURN_IF_ERROR(ParseTuning(value, wire.request.tuning));
    } else {
      return FieldError(key, "unknown key");
    }
  }
  if (wire.dataset.empty()) {
    return Status::InvalidArgument("missing required field \"dataset\"");
  }
  // Request::algorithm has a non-empty default, so presence is tracked
  // explicitly: the wire format requires the client to name its algorithm.
  if (!have_algorithm || wire.request.algorithm.empty()) {
    return Status::InvalidArgument("missing required field \"algorithm\"");
  }
  if (wire.stream) {
    // A stream solve runs over server-resident data: the body must not also
    // carry its own geometry.
    if (have_points) {
      return FieldError("stream", "a stream solve must omit \"points\"");
    }
    if (levels > 0) {
      return FieldError("stream",
                        "a stream solve must omit \"levels\" (the stream "
                        "owns its domain)");
    }
    if (wire.snap) {
      return FieldError("stream", "a stream solve must omit \"snap\"");
    }
    return wire;
  }
  if (!have_points) {
    return Status::InvalidArgument("missing required field \"points\"");
  }
  if (levels > 0) {
    if (levels < 2) return FieldError("levels", "|X| must be >= 2");
    if (!(axis > 0.0) || !std::isfinite(axis)) {
      return FieldError("axis", "must be a positive finite length");
    }
    wire.request.domain = GridDomain(levels, wire.request.data.dim(), axis);
  } else if (wire.snap) {
    return FieldError("snap", "requires a domain (set \"levels\")");
  }
  // NOTE: `snap` is a pure flag here — the service applies SnapAll after
  // parsing, so Parse/Encode stay exact inverses (the round-trip contract).
  return wire;
}

Result<WireRequest> ParseWireRequest(std::string_view body) {
  DPC_ASSIGN_OR_RETURN(const JsonValue json, JsonValue::Parse(body));
  return ParseWireRequest(json);
}

JsonValue TuningToJson(const Tuning& tuning) {
  JsonValue object = JsonValue::Object();
  object.Set("radius_budget_fraction",
             JsonValue::Number(tuning.radius_budget_fraction));
  object.Set("max_jl_dim",
             JsonValue::Number(static_cast<std::uint64_t>(tuning.max_jl_dim)));
  object.Set("refine_fraction", JsonValue::Number(tuning.refine_fraction));
  object.Set("refine_one_cluster", JsonValue::Bool(tuning.refine_one_cluster));
  object.Set("advanced_composition",
             JsonValue::Bool(tuning.advanced_composition));
  object.Set("coreset", JsonValue::Bool(tuning.coreset));
  object.Set("coreset_min_points",
             JsonValue::Number(
                 static_cast<std::uint64_t>(tuning.coreset_min_points)));
  object.Set("coreset_target_size",
             JsonValue::Number(
                 static_cast<std::uint64_t>(tuning.coreset_target_size)));
  object.Set("stream_compact_fraction",
             JsonValue::Number(tuning.stream_compact_fraction));
  object.Set("coreset_staleness_fraction",
             JsonValue::Number(tuning.coreset_staleness_fraction));
  object.Set("inflation", JsonValue::Number(tuning.inflation));
  object.Set("max_grid_centers",
             JsonValue::Number(
                 static_cast<std::uint64_t>(tuning.max_grid_centers)));
  return object;
}

JsonValue WireRequestToJson(const WireRequest& wire) {
  const Request& request = wire.request;
  JsonValue object = JsonValue::Object();
  object.Set("tenant", JsonValue::String(wire.tenant));
  object.Set("dataset", JsonValue::String(wire.dataset));
  object.Set("seed", JsonValue::Number(wire.seed));
  object.Set("snap", JsonValue::Bool(wire.snap));
  object.Set("stream", JsonValue::Bool(wire.stream));
  object.Set("algorithm", JsonValue::String(request.algorithm));
  // Stream solves carry no geometry of their own (the parser rejects
  // "points"/"levels" next to "stream": true), so the encoder omits the keys
  // to stay an exact inverse.
  if (!wire.stream) {
    JsonValue points = JsonValue::Array();
    for (std::size_t i = 0; i < request.data.size(); ++i) {
      JsonValue row = JsonValue::Array();
      for (const double c : request.data[i]) row.Append(JsonValue::Number(c));
      points.Append(std::move(row));
    }
    object.Set("points", std::move(points));
    object.Set("levels",
               JsonValue::Number(request.domain.has_value()
                                     ? request.domain->levels()
                                     : std::uint64_t{0}));
    object.Set("axis", JsonValue::Number(request.domain.has_value()
                                             ? request.domain->axis_length()
                                             : 1.0));
  }
  object.Set("epsilon", JsonValue::Number(request.budget.epsilon));
  object.Set("delta", JsonValue::Number(request.budget.delta));
  object.Set("beta", JsonValue::Number(request.beta));
  object.Set("t", JsonValue::Number(static_cast<std::uint64_t>(request.t)));
  object.Set("k", JsonValue::Number(static_cast<std::uint64_t>(request.k)));
  object.Set("inlier_fraction", JsonValue::Number(request.inlier_fraction));
  object.Set("alpha", JsonValue::Number(request.alpha));
  object.Set("block_size",
             JsonValue::Number(static_cast<std::uint64_t>(request.block_size)));
  object.Set("num_threads",
             JsonValue::Number(
                 static_cast<std::uint64_t>(request.num_threads)));
  object.Set("label", JsonValue::String(request.label));
  object.Set("tuning", TuningToJson(request.tuning));
  return object;
}

Status ParseTuningJson(const JsonValue& json, Tuning& tuning) {
  return ParseTuning(json, tuning);
}

namespace {

/// The fields append and expire share; `key` dispatch returns false when the
/// key belongs to neither so the caller can reject it by route.
Result<StreamRequest> ParseStreamCommon(std::string_view body,
                                        bool is_append) {
  DPC_ASSIGN_OR_RETURN(const JsonValue json, JsonValue::Parse(body));
  if (!json.is_object()) {
    return Status::InvalidArgument("stream request must be a JSON object");
  }
  StreamRequest stream;
  bool have_points = false;
  bool have_count = false;
  bool have_ids = false;
  for (const auto& [key, value] : json.members()) {
    if (key == "dataset") {
      DPC_ASSIGN_OR_RETURN(stream.dataset, AsStringField(key, value));
    } else if (key == "tuning") {
      DPC_RETURN_IF_ERROR(ParseTuning(value, stream.tuning));
    } else if (is_append && key == "points") {
      DPC_ASSIGN_OR_RETURN(stream.points, ParsePoints(value));
      have_points = true;
    } else if (is_append && key == "levels") {
      DPC_ASSIGN_OR_RETURN(stream.levels, AsU64Field(key, value));
    } else if (is_append && key == "axis") {
      DPC_ASSIGN_OR_RETURN(stream.axis, AsDoubleField(key, value));
    } else if (is_append && key == "snap") {
      DPC_ASSIGN_OR_RETURN(stream.snap, AsBoolField(key, value));
    } else if (!is_append && key == "count") {
      DPC_ASSIGN_OR_RETURN(stream.expire_count, AsU64Field(key, value));
      have_count = true;
    } else if (!is_append && key == "ids") {
      if (!value.is_array()) {
        return FieldError(key, "expected an array of row ids");
      }
      for (const JsonValue& id : value.items()) {
        DPC_ASSIGN_OR_RETURN(const std::uint64_t u, AsU64Field(key, id));
        if (u > 0xffffffffull) return FieldError(key, "row id out of range");
        stream.expire_ids.push_back(static_cast<std::uint32_t>(u));
      }
      have_ids = true;
    } else {
      return FieldError(key, "unknown key");
    }
  }
  if (stream.dataset.empty()) {
    return Status::InvalidArgument("missing required field \"dataset\"");
  }
  if (is_append) {
    if (!have_points) {
      return Status::InvalidArgument("missing required field \"points\"");
    }
    if (stream.levels > 0) {
      if (stream.levels < 2) return FieldError("levels", "|X| must be >= 2");
      if (!(stream.axis > 0.0) || !std::isfinite(stream.axis)) {
        return FieldError("axis", "must be a positive finite length");
      }
    } else if (stream.snap) {
      return FieldError("snap", "requires a domain (set \"levels\")");
    }
  } else {
    if (have_count == have_ids) {
      return Status::InvalidArgument(
          "expire takes exactly one of \"count\" or \"ids\"");
    }
    if (have_count && stream.expire_count == 0) {
      return FieldError("count", "must be >= 1");
    }
    if (have_ids && stream.expire_ids.empty()) {
      return FieldError("ids", "must be non-empty");
    }
  }
  return stream;
}

}  // namespace

Result<StreamRequest> ParseStreamAppend(std::string_view body) {
  return ParseStreamCommon(body, /*is_append=*/true);
}

Result<StreamRequest> ParseStreamExpire(std::string_view body) {
  return ParseStreamCommon(body, /*is_append=*/false);
}

JsonValue PrivacyParamsToJson(const PrivacyParams& params) {
  JsonValue object = JsonValue::Object();
  object.Set("epsilon", JsonValue::Number(params.epsilon));
  object.Set("delta", JsonValue::Number(params.delta));
  return object;
}

JsonValue ResponseToJson(const Response& response) {
  JsonValue object = JsonValue::Object();
  object.Set("algorithm", JsonValue::String(response.algorithm));
  object.Set("kind",
             JsonValue::String(ProblemKindName(response.kind)));
  object.Set("ball", response.ball.center.empty()
                         ? JsonValue::Null()
                         : BallToJson(response.ball));
  JsonValue balls = JsonValue::Array();
  for (const Ball& ball : response.balls) balls.Append(BallToJson(ball));
  object.Set("balls", std::move(balls));
  object.Set("scalar", std::isnan(response.scalar)
                           ? JsonValue::Null()
                           : JsonValue::Number(response.scalar));
  object.Set("charged", PrivacyParamsToJson(response.charged));
  JsonValue ledger = JsonValue::Array();
  for (const Accountant::ChargeEntry& entry : response.ledger.charges()) {
    JsonValue row = JsonValue::Object();
    row.Set("label", JsonValue::String(entry.label));
    row.Set("epsilon", JsonValue::Number(entry.params.epsilon));
    row.Set("delta", JsonValue::Number(entry.params.delta));
    ledger.Append(std::move(row));
  }
  object.Set("ledger", std::move(ledger));
  if (response.diagnostics.has_value()) {
    const EvalMetrics& m = *response.diagnostics;
    JsonValue diagnostics = JsonValue::Object();
    diagnostics.Set("captured",
                    JsonValue::Number(static_cast<std::uint64_t>(m.captured)));
    diagnostics.Set("delta", JsonValue::Number(m.delta));
    diagnostics.Set("tight_radius", JsonValue::Number(m.tight_radius));
    diagnostics.Set("r_opt_lower", JsonValue::Number(m.r_opt_lower));
    diagnostics.Set("w_reported", JsonValue::Number(m.w_reported));
    diagnostics.Set("w_effective", JsonValue::Number(m.w_effective));
    object.Set("diagnostics", std::move(diagnostics));
  } else {
    object.Set("diagnostics", JsonValue::Null());
  }
  object.Set("note", JsonValue::String(response.note));
  object.Set("wall_ms", JsonValue::Number(response.wall_ms));
  return object;
}

const char* ServiceErrorCodeName(ServiceErrorCode code) {
  switch (code) {
    case ServiceErrorCode::kParseError: return "ParseError";
    case ServiceErrorCode::kInvalidRequest: return "InvalidRequest";
    case ServiceErrorCode::kUnknownAlgorithm: return "UnknownAlgorithm";
    case ServiceErrorCode::kRouteNotFound: return "RouteNotFound";
    case ServiceErrorCode::kMethodNotAllowed: return "MethodNotAllowed";
    case ServiceErrorCode::kPayloadTooLarge: return "PayloadTooLarge";
    case ServiceErrorCode::kUnknownDataset: return "UnknownDataset";
    case ServiceErrorCode::kBudgetExhausted: return "BudgetExhausted";
    case ServiceErrorCode::kQueueFull: return "QueueFull";
    case ServiceErrorCode::kShuttingDown: return "ShuttingDown";
    case ServiceErrorCode::kNoPrivateAnswer: return "NoPrivateAnswer";
    case ServiceErrorCode::kResourceLimit: return "ResourceLimit";
    case ServiceErrorCode::kDeadlineExceeded: return "DeadlineExceeded";
    case ServiceErrorCode::kInternal: return "Internal";
  }
  return "Internal";
}

int HttpStatusOf(ServiceErrorCode code) {
  switch (code) {
    case ServiceErrorCode::kParseError: return 400;
    case ServiceErrorCode::kInvalidRequest: return 400;
    case ServiceErrorCode::kUnknownAlgorithm: return 404;
    case ServiceErrorCode::kRouteNotFound: return 404;
    case ServiceErrorCode::kMethodNotAllowed: return 405;
    case ServiceErrorCode::kPayloadTooLarge: return 413;
    case ServiceErrorCode::kUnknownDataset: return 404;
    case ServiceErrorCode::kBudgetExhausted: return 429;
    case ServiceErrorCode::kQueueFull: return 503;
    case ServiceErrorCode::kShuttingDown: return 503;
    case ServiceErrorCode::kNoPrivateAnswer: return 422;
    case ServiceErrorCode::kResourceLimit: return 422;
    case ServiceErrorCode::kDeadlineExceeded: return 504;
    case ServiceErrorCode::kInternal: return 500;
  }
  return 500;
}

ServiceErrorCode ServiceErrorFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument: return ServiceErrorCode::kInvalidRequest;
    case StatusCode::kNotFound: return ServiceErrorCode::kUnknownAlgorithm;
    case StatusCode::kNoPrivateAnswer: return ServiceErrorCode::kNoPrivateAnswer;
    case StatusCode::kResourceExhausted: return ServiceErrorCode::kResourceLimit;
    case StatusCode::kDeadlineExceeded: return ServiceErrorCode::kDeadlineExceeded;
    case StatusCode::kOk:
    case StatusCode::kInternal:
      break;
  }
  return ServiceErrorCode::kInternal;
}

JsonValue ErrorToJson(ServiceErrorCode code, const std::string& message) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::String(ServiceErrorCodeName(code)));
  error.Set("http_status", JsonValue::Number(HttpStatusOf(code)));
  error.Set("message", JsonValue::String(message));
  JsonValue object = JsonValue::Object();
  object.Set("ok", JsonValue::Bool(false));
  object.Set("error", std::move(error));
  return object;
}

}  // namespace dpcluster
