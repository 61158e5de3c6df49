#include "dpcluster/service/protocol.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>
#include <vector>

#include "dpcluster/geo/spatial_grid.h"

namespace dpcluster {

namespace {

Status FieldError(std::string_view key, const std::string& what) {
  return Status::InvalidArgument("field \"" + std::string(key) + "\": " + what);
}

/// One pass over a request body: each field decodes where it lands while
/// the cursor checks the grammar. A read returns false on a syntax error or
/// on the first field error, which ends the pass. A syntax error anywhere
/// in the body wins over any field error, so a field error is returned only
/// once a second pass has checked the whole body.
class BodyDecoder : public JsonCursor {
 public:
  using Kind = JsonValue::Kind;
  explicit BodyDecoder(std::string_view body)
      : JsonCursor(body), body_(body) {}

  /// Keeps the field error; false, ending the pass.
  bool Reject(Status error) {
    field_error_ = std::move(error);
    return false;
  }

  /// Reads the body as one object, calling `member(key)` to read each
  /// member's value. Returns the syntax error, else the field error
  /// (`not_object` when the body is not an object), else OK.
  template <typename F>
  Status Document(const char* not_object, F&& member) {
    if (Next() != Kind::kObject) {
      Reject(Status::InvalidArgument(not_object));
    } else if (ReadObject(member)) {
      Finish();
    }
    if (!ok() || field_error_.ok()) return status();
    JsonCursor whole(body_);
    if (!whole.Skip() || !whole.Finish()) return whole.status();
    return field_error_;
  }

  /// True when the value at the cursor is of `kind`, else a field error.
  bool Expect(Kind kind, std::string_view key, const char* what) {
    return Next() == kind || Reject(FieldError(key, what));
  }

  /// Reads the value at the cursor into a bool, string, double or unsigned
  /// `out`; a value of another kind is a field error naming `key`.
  template <typename T>
  bool Field(std::string_view key, T& out) {
    if constexpr (std::is_same_v<T, bool>) {
      return Expect(Kind::kBool, key, "expected true/false") && ReadBool(out);
    } else if constexpr (std::is_same_v<T, std::string>) {
      return Expect(Kind::kString, key, "expected a string") &&
             ReadString(out);
    } else {
      constexpr bool kDouble = std::is_floating_point_v<T>;
      static_assert(kDouble || std::is_unsigned_v<T>);
      std::string_view lexeme;
      if (!Expect(Kind::kNumber, key,
                  kDouble ? "expected a number" : "expected an integer") ||
          !ReadNumber(lexeme)) {
        return false;
      }
      if constexpr (kDouble) {
        out = JsonNumberToDouble(lexeme);
      } else {
        const Result<std::uint64_t> u =
            JsonValue::NumberFromLexeme(std::string(lexeme)).AsU64();
        if (!u.ok()) return Reject(FieldError(key, u.status().message()));
        out = static_cast<T>(*u);
      }
      return true;
    }
  }

 private:
  std::string_view body_;
  Status field_error_;
};

/// Grows the full coordinate buffer toward a bound on what the rest of the
/// body can hold (a row of d numbers takes at least 2d + 2 bytes, "[0],"),
/// so even mid-reallocation it holds under 8 bytes per body byte (under 4
/// for one-coordinate rows).
void GrowCoordinates(std::vector<double>& flat, std::size_t dim,
                     std::size_t remaining_bytes) {
  const std::size_t bound =
      flat.size() + 1 +
      (dim == 0 ? remaining_bytes / 2
                : remaining_bytes * dim / (2 * dim + 2) + dim);
  flat.reserve(std::max<std::size_t>(
      16, bound <= 4 * flat.capacity() ? bound : 2 * flat.capacity()));
}

Status RowError(std::size_t row, const char* what) {
  return FieldError("points", "row " + std::to_string(row) + what);
}

/// Reads "points": a non-empty array of equal-length coordinate rows, each
/// coordinate converted straight into the PointSet's buffer. A row's first
/// problem is reported once the row is read: not a non-empty array, then
/// ragged, then its first bad coordinate.
bool ParsePoints(BodyDecoder& in, PointSet& out) {
  using Kind = JsonValue::Kind;
  if (!in.Expect(Kind::kArray, "points", "expected an array of rows")) {
    return false;
  }
  std::size_t dim = 0;
  std::vector<double> flat;
  const bool read = in.ReadArray([&](std::size_t i) {
    if (in.Next() != Kind::kArray) {
      return in.Reject(RowError(i, " is not a non-empty coordinate array"));
    }
    std::size_t count = 0;
    const char* bad = nullptr;  // The row's first bad coordinate.
    const bool row_read = in.ReadArray([&](std::size_t) {
      ++count;
      std::string_view lexeme;
      if (in.Next() != Kind::kNumber) {
        if (bad == nullptr) bad = " holds a non-number coordinate";
        return in.Skip();
      }
      if (!in.ReadNumber(lexeme)) return false;
      const double x = JsonNumberToDouble(lexeme);  // 1e999 decodes to inf.
      if (!std::isfinite(x) && bad == nullptr) {
        bad = " holds a non-finite coordinate";
      }
      if (bad != nullptr) return true;
      if (flat.size() == flat.capacity()) {
        GrowCoordinates(flat, dim, in.remaining());
      }
      flat.push_back(x);
      return true;
    });
    if (!row_read) return false;
    if (count == 0) {
      return in.Reject(RowError(i, " is not a non-empty coordinate array"));
    }
    if (dim == 0) dim = count;
    if (count != dim) {
      return in.Reject(FieldError(
          "points", "ragged rows (row " + std::to_string(i) + " has " +
                        std::to_string(count) + " coordinates, expected " +
                        std::to_string(dim) + ")"));
    }
    return bad == nullptr || in.Reject(RowError(i, bad));
  });
  if (!read) return false;
  if (dim == 0) return in.Reject(FieldError("points", "empty dataset"));
  out = PointSet(dim, std::move(flat));
  return true;
}

bool ParseTuning(BodyDecoder& in, Tuning& tuning) {
  if (!in.Expect(JsonValue::Kind::kObject, "tuning", "expected an object")) {
    return false;
  }
  return in.ReadObject([&](const std::string& key) {
    if (key == "radius_budget_fraction") {
      return in.Field(key, tuning.radius_budget_fraction);
    }
    if (key == "max_jl_dim") return in.Field(key, tuning.max_jl_dim);
    if (key == "refine_fraction") return in.Field(key, tuning.refine_fraction);
    if (key == "refine_one_cluster") {
      return in.Field(key, tuning.refine_one_cluster);
    }
    if (key == "advanced_composition") {
      return in.Field(key, tuning.advanced_composition);
    }
    if (key == "coreset") return in.Field(key, tuning.coreset);
    if (key == "coreset_min_points") {
      return in.Field(key, tuning.coreset_min_points);
    }
    if (key == "coreset_target_size") {
      return in.Field(key, tuning.coreset_target_size);
    }
    if (key == "stream_compact_fraction") {
      return in.Field(key, tuning.stream_compact_fraction);
    }
    if (key == "coreset_staleness_fraction") {
      return in.Field(key, tuning.coreset_staleness_fraction);
    }
    if (key == "inflation") return in.Field(key, tuning.inflation);
    if (key == "max_grid_centers") {
      return in.Field(key, tuning.max_grid_centers);
    }
    return in.Reject(FieldError("tuning." + key, "unknown key"));
  });
}

/// The "levels" / "axis" / "snap" checks solve and append bodies share.
Status CheckDomain(std::uint64_t levels, double axis, bool snap) {
  if (levels > 0) {
    if (levels < 2) return FieldError("levels", "|X| must be >= 2");
    if (!(axis > 0.0) || !std::isfinite(axis)) {
      return FieldError("axis", "must be a positive finite length");
    }
  } else if (snap) {
    return FieldError("snap", "requires a domain (set \"levels\")");
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

Result<WireRequest> ParseWireRequest(std::string_view body) {
  BodyDecoder in(body);
  WireRequest wire;
  Request& request = wire.request;
  std::uint64_t levels = 0;
  double axis = 1.0;
  bool have_points = false;
  bool have_algorithm = false;
  const auto member = [&](const std::string& key) {
    if (key == "tenant") {
      return in.Field(key, wire.tenant) &&
             (!wire.tenant.empty() ||
              in.Reject(FieldError(key, "must be non-empty")));
    }
    if (key == "dataset") return in.Field(key, wire.dataset);
    if (key == "seed") return in.Field(key, wire.seed);
    if (key == "snap") return in.Field(key, wire.snap);
    if (key == "stream") return in.Field(key, wire.stream);
    if (key == "algorithm") {
      have_algorithm = true;
      return in.Field(key, request.algorithm);
    }
    if (key == "points") {
      have_points = true;
      return ParsePoints(in, request.data);
    }
    if (key == "levels") return in.Field(key, levels);
    if (key == "axis") return in.Field(key, axis);
    if (key == "epsilon") return in.Field(key, request.budget.epsilon);
    if (key == "delta") return in.Field(key, request.budget.delta);
    if (key == "beta") return in.Field(key, request.beta);
    if (key == "t") return in.Field(key, request.t);
    if (key == "k") return in.Field(key, request.k);
    if (key == "inlier_fraction") return in.Field(key, request.inlier_fraction);
    if (key == "alpha") return in.Field(key, request.alpha);
    if (key == "block_size") return in.Field(key, request.block_size);
    if (key == "num_threads") return in.Field(key, request.num_threads);
    if (key == "label") return in.Field(key, request.label);
    if (key == "tuning") return ParseTuning(in, request.tuning);
    return in.Reject(FieldError(key, "unknown key"));
  };
  DPC_RETURN_IF_ERROR(
      in.Document("wire request must be a JSON object", member));
  if (wire.dataset.empty()) {
    return Status::InvalidArgument("missing required field \"dataset\"");
  }
  // Request::algorithm has a non-empty default, so presence is tracked
  // explicitly: the wire format requires the client to name its algorithm.
  if (!have_algorithm || request.algorithm.empty()) {
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
  DPC_RETURN_IF_ERROR(CheckDomain(levels, axis, wire.snap));
  if (levels > 0) request.domain = GridDomain(levels, request.data.dim(), axis);
  // NOTE: `snap` is a pure flag here — the service applies SnapAll after
  // parsing, so Parse/Encode stay exact inverses (the round-trip contract).
  return wire;
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

namespace {

/// The fields append and expire share; a key that belongs to the other
/// route is unknown here.
Result<StreamRequest> ParseStreamCommon(std::string_view body,
                                        bool is_append) {
  BodyDecoder in(body);
  StreamRequest stream;
  bool have_points = false;
  bool have_count = false;
  bool have_ids = false;
  const auto member = [&](const std::string& key) {
    if (key == "dataset") return in.Field(key, stream.dataset);
    if (key == "tuning") return ParseTuning(in, stream.tuning);
    if (is_append && key == "points") {
      have_points = true;
      return ParsePoints(in, stream.points);
    }
    if (is_append && key == "levels") return in.Field(key, stream.levels);
    if (is_append && key == "axis") return in.Field(key, stream.axis);
    if (is_append && key == "snap") return in.Field(key, stream.snap);
    if (!is_append && key == "count") {
      have_count = true;
      return in.Field(key, stream.expire_count);
    }
    if (is_append || key != "ids") {
      return in.Reject(FieldError(key, "unknown key"));
    }
    have_ids = true;
    if (!in.Expect(JsonValue::Kind::kArray, key,
                   "expected an array of row ids")) {
      return false;
    }
    return in.ReadArray([&](std::size_t) {
      std::uint64_t u = 0;
      if (!in.Field(key, u)) return false;
      if (u > 0xffffffffull) {
        return in.Reject(FieldError(key, "row id out of range"));
      }
      stream.expire_ids.push_back(static_cast<std::uint32_t>(u));
      return true;
    });
  };
  DPC_RETURN_IF_ERROR(
      in.Document("stream request must be a JSON object", member));
  if (stream.dataset.empty()) {
    return Status::InvalidArgument("missing required field \"dataset\"");
  }
  if (is_append) {
    if (!have_points) {
      return Status::InvalidArgument("missing required field \"points\"");
    }
    DPC_RETURN_IF_ERROR(CheckDomain(stream.levels, stream.axis, stream.snap));
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
