// The JSON wire protocol of the dpcluster service daemon: how a typed
// Request travels over HTTP as a JSON object, how Responses and errors are
// encoded, and the service-level error-code vocabulary (including
// BudgetExhausted, the structured rejection a tenant receives once its
// (eps, delta) budget for a dataset is spent).
//
// Round-trip contract (pinned by service_protocol_test): for every wire
// request w, Encode(Parse(Encode(w))) == Encode(w) byte-for-byte. The
// encoder emits every field in a fixed order with exact number lexemes, so
// the protocol is deterministic and diffable. Two Request fields are
// deliberately NOT wire-exposed: `estimator` (a function object; the
// sample-aggregate default, the coordinate-wise mean, is always used) and
// `shared_index` (server-owned — the daemon's keyed index cache decides
// reuse; see service/index_cache.h).
//
// Request object (all fields optional unless marked required):
//   {
//     "tenant": "alice",              // budget scope  (default "public")
//     "dataset": "sensors-eu",        // REQUIRED: budget + index-cache key
//     "algorithm": "one_cluster",     // REQUIRED: registry name
//     "points": [[x, y], ...],        // REQUIRED: n rows of d coordinates
//     "levels": 65536,                // |X| per axis; 0 = no domain
//     "axis": 1.0,                    // axis length of the cube
//     "snap": false,                  // snap points onto the domain grid
//     "stream": false,                // solve the resident stream "dataset"
//                                     // (omit points/levels/snap then)
//     "epsilon": 1.0, "delta": 1e-9,  // this request's budget
//     "beta": 0.1, "t": 500, "k": 2,
//     "inlier_fraction": 0.9, "alpha": 0.5, "block_size": 0,
//     "num_threads": 1, "label": "", "seed": 0,  // 0 = server default seed
//     "tuning": { ... every Tuning field, see TuningToJson ... }
//   }

#ifndef DPCLUSTER_SERVICE_PROTOCOL_H_
#define DPCLUSTER_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dpcluster/api/request.h"
#include "dpcluster/api/response.h"
#include "dpcluster/common/status.h"
#include "dpcluster/service/json.h"

namespace dpcluster {

/// A Request plus the service-level envelope: which tenant is asking, which
/// dataset key scopes the budget and the index cache, and the per-request
/// solver seed (0 = the server's configured default).
struct WireRequest {
  std::string tenant = "public";
  std::string dataset;
  std::uint64_t seed = 0;
  bool snap = false;
  /// True = solve over the resident streaming dataset named by `dataset`
  /// (fed through /v1/stream/append). The body must then omit "points" and
  /// "levels": the data and domain live server-side, and the reply carries
  /// the stream version the solve saw. Mutually exclusive with "points".
  bool stream = false;
  Request request;
};

/// Parses a wire request from raw body text in one pass of a JsonCursor:
/// fields decode where they land, "points" straight into the PointSet, with
/// no JSON tree. Strict: a syntax error anywhere (a duplicate key or nesting
/// past 64 levels too) wins over field errors; otherwise the first field
/// error in document order — unknown keys, wrong types, ragged point rows,
/// missing required fields — is InvalidArgument naming the field. No
/// semantic validation beyond shape: Request::Validate and the algorithm's
/// own checks run in the service. The coordinate buffer holds under 8 bytes
/// per body byte (under 4 for one-coordinate rows), reallocations included.
Result<WireRequest> ParseWireRequest(std::string_view body);

/// Deterministic inverse of ParseWireRequest: every wire-exposed field, in
/// fixed order, with exact integer lexemes.
JsonValue WireRequestToJson(const WireRequest& wire);

/// The tuning sub-object (every Tuning knob, fixed order).
JsonValue TuningToJson(const Tuning& tuning);

// --- Streaming endpoints --------------------------------------------------

/// One /v1/stream/append or /v1/stream/expire body. Append bodies carry
/// "points" (plus "levels"/"axis" to create the stream on first use, and
/// optional "snap" to snap arrivals onto the stream's grid); expire bodies
/// carry exactly one of "count" (oldest rows first) or "ids" (row ids from
/// append replies — invalidated whenever a reply reports "compacted").
/// Both accept an optional "tuning" object; the endpoints read
/// tuning.stream_compact_fraction.
struct StreamRequest {
  std::string dataset;
  PointSet points;                       // append arrivals (arrival order)
  std::uint64_t levels = 0;              // 0 = the stream must already exist
  double axis = 1.0;
  bool snap = false;
  std::uint64_t expire_count = 0;        // oldest-first row count
  std::vector<std::uint32_t> expire_ids; // explicit row ids
  Tuning tuning;
};

/// Strict parses of the stream bodies, one pass each with ParseWireRequest's
/// error precedence (required fields, unknown keys, and shape errors are
/// InvalidArgument naming the field).
Result<StreamRequest> ParseStreamAppend(std::string_view body);
Result<StreamRequest> ParseStreamExpire(std::string_view body);

/// Encodes a served Response: released artifact (ball/balls/scalar),
/// accounting (charged + per-phase ledger), diagnostics when present, and
/// timing. The service wraps this with the envelope fields (ok, tenant,
/// queue_ms, budget).
JsonValue ResponseToJson(const Response& response);

// --- Service errors -------------------------------------------------------

/// The error vocabulary of the wire protocol. Stable names (ErrorCodeName)
/// appear in the "code" field of error responses; HttpStatusOf maps each to
/// the HTTP status the daemon answers with.
enum class ServiceErrorCode {
  kParseError,        ///< Body is not valid JSON / not a valid wire request.
  kInvalidRequest,    ///< Parsed, but a field is out of domain (e.g. eps <= 0).
  kUnknownAlgorithm,  ///< "algorithm" names no registry entry.
  kRouteNotFound,     ///< No such endpoint.
  kMethodNotAllowed,  ///< Endpoint exists, wrong HTTP method.
  kPayloadTooLarge,   ///< Body or point count above the configured cap.
  kUnknownDataset,    ///< A stream route (or "stream": true solve) named a
                      ///< dataset with no resident stream.
  kBudgetExhausted,   ///< The (tenant, dataset) budget cannot cover this
                      ///< request; the error carries the remaining budget.
  kQueueFull,         ///< Admission queue at capacity; retry later.
  kShuttingDown,      ///< Server is draining; no new requests.
  kNoPrivateAnswer,   ///< The mechanism ended with no admissible output
                      ///< (a legitimate DP outcome; budget was still spent).
  kResourceLimit,     ///< A documented library resource cap was exceeded.
  kDeadlineExceeded,  ///< The algorithm ran out of its iteration budget.
  kInternal,          ///< Invariant failure; nothing charged unless noted.
};

/// Stable wire name ("BudgetExhausted", "ParseError", ...).
const char* ServiceErrorCodeName(ServiceErrorCode code);

/// The HTTP status the daemon answers with (429 for BudgetExhausted, ...).
int HttpStatusOf(ServiceErrorCode code);

/// Maps a library Status (from validation or a Solver run) onto the wire
/// vocabulary. `code` must not be kOk.
ServiceErrorCode ServiceErrorFromStatus(const Status& status);

/// {"ok": false, "error": {"code": ..., "http_status": ..., "message": ...}}.
JsonValue ErrorToJson(ServiceErrorCode code, const std::string& message);

/// {"epsilon": ..., "delta": ...} with exact double lexemes.
JsonValue PrivacyParamsToJson(const PrivacyParams& params);

}  // namespace dpcluster

#endif  // DPCLUSTER_SERVICE_PROTOCOL_H_
