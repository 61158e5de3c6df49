// Tests for the daemon's JSON layer and wire protocol (service/json.h,
// service/protocol.h): strict parsing, lexeme-preserving numbers, the
// byte-exact round-trip contract Encode(Parse(Encode(w))) == Encode(w) over
// every wire-exposed Request field, and the structured error replies for
// malformed inputs (truncated body, unknown algorithm, negative epsilon).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "dpcluster/service/json.h"
#include "dpcluster/service/protocol.h"
#include "dpcluster/service/service.h"
#include "test_util.h"

namespace dpcluster {
namespace {

// --- JsonValue ------------------------------------------------------------

TEST(JsonTest, ParsesScalarsAndContainers) {
  ASSERT_OK_AND_ASSIGN(JsonValue v,
                       JsonValue::Parse(R"({"a": [1, 2.5, -3e-2], "b": )"
                                        R"("x\ny", "c": true, "d": null})"));
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[1].AsDouble(), 2.5);
  EXPECT_EQ(v.Find("b")->AsString(), "x\ny");
  EXPECT_TRUE(v.Find("c")->AsBool());
  EXPECT_TRUE(v.Find("d")->is_null());
}

TEST(JsonTest, NumberLexemesSurviveParseAndEncode) {
  // Values no double can hold (u64 seeds) and spellings a double would
  // reformat ("1e-9" vs 1e-09, "0.10") must re-encode byte-identically.
  const std::string text =
      R"({"seed": 18446744073709551615, "delta": 1e-9, "x": 0.10})";
  ASSERT_OK_AND_ASSIGN(JsonValue v, JsonValue::Parse(text));
  EXPECT_EQ(v.Encode(),
            R"({"seed":18446744073709551615,"delta":1e-9,"x":0.10})");
  ASSERT_OK_AND_ASSIGN(const std::uint64_t seed, v.Find("seed")->AsU64());
  EXPECT_EQ(seed, 18446744073709551615ull);
}

TEST(JsonTest, AsU64RejectsNonIntegers) {
  ASSERT_OK_AND_ASSIGN(JsonValue v,
                       JsonValue::Parse(R"([1.5, -2, 18446744073709551616])"));
  for (const JsonValue& item : v.items()) {
    EXPECT_FALSE(item.AsU64().ok());
  }
}

TEST(JsonTest, StrictParserRejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":1,}", "nul", "01", "+1", "1.", ".5",
        "\"unterminated", "{\"a\":1}extra", "{\"a\":1 \"b\":2}",
        "{\"dup\":1,\"dup\":2}", "[1 2]", "\"bad\\q\"", "\"\\u12\"",
        "'single'"}) {
    EXPECT_FALSE(JsonValue::Parse(bad).ok()) << bad;
  }
}

TEST(JsonTest, DepthCapStopsAdversarialNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
  // 100 opens with closes is still too deep; 10 is fine.
  std::string ok = "[[[[[[[[[[1]]]]]]]]]]";
  EXPECT_TRUE(JsonValue::Parse(ok).ok());
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  ASSERT_OK_AND_ASSIGN(JsonValue v, JsonValue::Parse(R"("\u00e9\ud83d\ude00")"));
  EXPECT_EQ(v.AsString(), "\xc3\xa9\xf0\x9f\x98\x80");  // é, 😀
}

// --- Wire round trip ------------------------------------------------------

/// A wire request exercising every wire-exposed field with non-default
/// values (seed above 2^53 so double round-tripping would corrupt it).
WireRequest FullWireRequest() {
  WireRequest wire;
  wire.tenant = "alice";
  wire.dataset = "sensors/eu-west";
  wire.seed = 9007199254740993ull;  // 2^53 + 1
  wire.snap = true;
  Request& request = wire.request;
  request.algorithm = "k_cluster";
  request.data = PointSet(2, {0.125, 0.25, 0.5, 0.75, 0.0625, 1.0});
  request.domain = GridDomain(4096, 2, 2.0);
  request.budget = {1.5, 1e-9};
  request.beta = 0.05;
  request.t = 2;
  request.k = 3;
  request.inlier_fraction = 0.85;
  request.alpha = 0.25;
  request.block_size = 7;
  request.num_threads = 4;
  request.label = "nightly-sweep";
  request.tuning.radius_budget_fraction = 0.4;
  request.tuning.max_jl_dim = 9;
  request.tuning.refine_fraction = 0.3;
  request.tuning.refine_one_cluster = true;
  request.tuning.advanced_composition = true;
  request.tuning.coreset = true;
  request.tuning.coreset_min_points = 4096;
  request.tuning.coreset_target_size = 333;
  request.tuning.stream_compact_fraction = 0.125;
  request.tuning.coreset_staleness_fraction = 0.75;
  request.tuning.inflation = 1.5;
  request.tuning.max_grid_centers = 99999;
  return wire;
}

TEST(WireProtocolTest, EncodeParseEncodeIsByteExact) {
  const WireRequest wire = FullWireRequest();
  const std::string encoded = WireRequestToJson(wire).Encode();
  ASSERT_OK_AND_ASSIGN(const WireRequest reparsed, ParseWireRequest(encoded));
  EXPECT_EQ(WireRequestToJson(reparsed).Encode(), encoded);
}

TEST(WireProtocolTest, EveryFieldSurvivesTheRoundTrip) {
  const WireRequest wire = FullWireRequest();
  ASSERT_OK_AND_ASSIGN(const WireRequest back,
                       ParseWireRequest(WireRequestToJson(wire).Encode()));
  EXPECT_EQ(back.tenant, "alice");
  EXPECT_EQ(back.dataset, "sensors/eu-west");
  EXPECT_EQ(back.seed, 9007199254740993ull);
  EXPECT_TRUE(back.snap);
  const Request& r = back.request;
  EXPECT_EQ(r.algorithm, "k_cluster");
  ASSERT_EQ(r.data.size(), 3u);
  ASSERT_EQ(r.data.dim(), 2u);
  EXPECT_EQ(r.data[2][1], 1.0);
  ASSERT_TRUE(r.domain.has_value());
  EXPECT_EQ(r.domain->levels(), 4096u);
  EXPECT_EQ(r.domain->dim(), 2u);
  EXPECT_DOUBLE_EQ(r.domain->axis_length(), 2.0);
  EXPECT_DOUBLE_EQ(r.budget.epsilon, 1.5);
  EXPECT_DOUBLE_EQ(r.budget.delta, 1e-9);
  EXPECT_DOUBLE_EQ(r.beta, 0.05);
  EXPECT_EQ(r.t, 2u);
  EXPECT_EQ(r.k, 3u);
  EXPECT_DOUBLE_EQ(r.inlier_fraction, 0.85);
  EXPECT_DOUBLE_EQ(r.alpha, 0.25);
  EXPECT_EQ(r.block_size, 7u);
  EXPECT_EQ(r.num_threads, 4u);
  EXPECT_EQ(r.label, "nightly-sweep");
  EXPECT_DOUBLE_EQ(r.tuning.radius_budget_fraction, 0.4);
  EXPECT_EQ(r.tuning.max_jl_dim, 9u);
  EXPECT_DOUBLE_EQ(r.tuning.refine_fraction, 0.3);
  EXPECT_TRUE(r.tuning.refine_one_cluster);
  EXPECT_TRUE(r.tuning.advanced_composition);
  EXPECT_TRUE(r.tuning.coreset);
  EXPECT_EQ(r.tuning.coreset_min_points, 4096u);
  EXPECT_EQ(r.tuning.coreset_target_size, 333u);
  EXPECT_DOUBLE_EQ(r.tuning.stream_compact_fraction, 0.125);
  EXPECT_DOUBLE_EQ(r.tuning.coreset_staleness_fraction, 0.75);
  EXPECT_DOUBLE_EQ(r.tuning.inflation, 1.5);
  EXPECT_EQ(r.tuning.max_grid_centers, 99999u);
}

TEST(WireProtocolTest, MinimalRequestGetsDefaults) {
  ASSERT_OK_AND_ASSIGN(
      const WireRequest wire,
      ParseWireRequest(R"({"dataset": "d", "algorithm": "one_cluster",)"
                       R"( "points": [[0.5]]})"));
  EXPECT_EQ(wire.tenant, "public");
  EXPECT_EQ(wire.seed, 0u);
  EXPECT_FALSE(wire.snap);
  EXPECT_FALSE(wire.request.domain.has_value());
  EXPECT_DOUBLE_EQ(wire.request.budget.epsilon, 1.0);
  EXPECT_EQ(wire.request.k, 2u);
}

TEST(WireProtocolTest, ParseSnapDoesNotMutatePoints) {
  // `snap` is a flag for the service, not the codec: parsing must hand back
  // the client's exact coordinates (the round-trip contract depends on it).
  ASSERT_OK_AND_ASSIGN(
      const WireRequest wire,
      ParseWireRequest(R"({"dataset": "d", "algorithm": "one_cluster",)"
                       R"( "points": [[0.333]], "levels": 4, "snap": true})"));
  EXPECT_TRUE(wire.snap);
  EXPECT_DOUBLE_EQ(wire.request.data[0][0], 0.333);
}

TEST(WireProtocolTest, RejectsMalformedWireRequests) {
  const WireRequest full = FullWireRequest();
  const std::string good = WireRequestToJson(full).Encode();
  // Truncated body (cut mid-document).
  EXPECT_FALSE(ParseWireRequest(good.substr(0, good.size() / 2)).ok());
  // Unknown and misshapen fields.
  for (const char* bad : {
           R"({"dataset": "d", "algorithm": "a"})",              // no points
           R"({"dataset": "d", "points": [[1]]})",               // no algorithm
           R"({"algorithm": "a", "points": [[1]]})",             // no dataset
           R"({"dataset": "d", "algorithm": "a", "points": []})",
           R"({"dataset": "d", "algorithm": "a", "points": [[1],[1,2]]})",
           R"({"dataset": "d", "algorithm": "a", "points": [[1]], "bogus": 1})",
           R"({"dataset": "d", "algorithm": "a", "points": [[1]], "t": -1})",
           R"({"dataset": "d", "algorithm": "a", "points": [[1]], "t": 1.5})",
           R"({"dataset": "d", "algorithm": "a", "points": [["x"]]})",
           R"({"dataset": "d", "algorithm": "a", "points": [[1e999]]})",
           R"({"dataset": "d", "algorithm": "a", "points": [[1]], "snap": true})",
           R"({"dataset": "d", "algorithm": "a", "points": [[1]],)"
           R"( "tuning": {"bogus_knob": 1}})",
           R"({"dataset": "d", "algorithm": "a", "points": [[1]],)"
           R"( "tuning": {"profile_index": "exact"}})",
       }) {
    EXPECT_FALSE(ParseWireRequest(bad).ok()) << bad;
  }
}

// --- Stream wire format ---------------------------------------------------

TEST(WireProtocolTest, StreamSolveRoundTripsAndOwnsNoGeometry) {
  WireRequest wire;
  wire.dataset = "sensors/live";
  wire.seed = 42;
  wire.stream = true;
  wire.request.algorithm = "one_cluster";
  wire.request.t = 96;
  wire.request.budget = {2.0, 1e-9};
  const std::string encoded = WireRequestToJson(wire).Encode();
  ASSERT_OK_AND_ASSIGN(const WireRequest back, ParseWireRequest(encoded));
  EXPECT_TRUE(back.stream);
  EXPECT_EQ(back.dataset, "sensors/live");
  EXPECT_EQ(back.request.t, 96u);
  EXPECT_TRUE(back.request.data.empty());
  EXPECT_FALSE(back.request.domain.has_value());
  // Exact inverse: the encoder omits "points"/"levels" for stream solves.
  EXPECT_EQ(WireRequestToJson(back).Encode(), encoded);

  // A stream solve must not also carry client-side geometry.
  const std::string base =
      R"({"dataset": "d", "algorithm": "a", "stream": true)";
  for (const char* bad : {
           R"(, "points": [[1]]})",  // stream + points
           R"(, "levels": 1024})",   // stream + levels
           R"(, "snap": true})",     // stream + snap
       }) {
    EXPECT_FALSE(ParseWireRequest(base + std::string(bad)).ok()) << bad;
  }
}

TEST(WireProtocolTest, ParseStreamAppendIsStrict) {
  ASSERT_OK_AND_ASSIGN(
      const StreamRequest append,
      ParseStreamAppend(
          R"({"dataset": "s", "points": [[0.25, 0.5], [0.75, 1.0]],)"
          R"( "levels": 1024, "axis": 2.0, "snap": true,)"
          R"( "tuning": {"stream_compact_fraction": 0.1}})"));
  EXPECT_EQ(append.dataset, "s");
  ASSERT_EQ(append.points.size(), 2u);
  EXPECT_EQ(append.points.dim(), 2u);
  EXPECT_EQ(append.levels, 1024u);
  EXPECT_DOUBLE_EQ(append.axis, 2.0);
  EXPECT_TRUE(append.snap);
  EXPECT_DOUBLE_EQ(append.tuning.stream_compact_fraction, 0.1);

  for (const char* bad : {
           R"({"points": [[1]]})",                       // no dataset
           R"({"dataset": "s"})",                        // no points
           R"({"dataset": "s", "points": [[1],[1,2]]})", // ragged rows
           R"({"dataset": "s", "points": [[1]], "levels": 1})",
           R"({"dataset": "s", "points": [[1]], "snap": true})",  // no domain
           R"({"dataset": "s", "points": [[1]], "count": 1})",    // expire key
           R"({"dataset": "s", "points": [[1]], "bogus": 1})",
       }) {
    EXPECT_FALSE(ParseStreamAppend(bad).ok()) << bad;
  }
}

TEST(WireProtocolTest, ParseStreamExpireIsStrict) {
  ASSERT_OK_AND_ASSIGN(
      const StreamRequest by_count,
      ParseStreamExpire(R"({"dataset": "s", "count": 12})"));
  EXPECT_EQ(by_count.expire_count, 12u);
  ASSERT_OK_AND_ASSIGN(
      const StreamRequest by_ids,
      ParseStreamExpire(R"({"dataset": "s", "ids": [3, 1, 2]})"));
  ASSERT_EQ(by_ids.expire_ids.size(), 3u);
  EXPECT_EQ(by_ids.expire_ids[0], 3u);

  for (const char* bad : {
           R"({"dataset": "s"})",                        // neither selector
           R"({"dataset": "s", "count": 1, "ids": [0]})",// both selectors
           R"({"dataset": "s", "count": 0})",
           R"({"dataset": "s", "ids": []})",
           R"({"dataset": "s", "ids": [4294967296]})",   // > uint32
           R"({"dataset": "s", "points": [[1]]})",       // append key
       }) {
    EXPECT_FALSE(ParseStreamExpire(bad).ok()) << bad;
  }
}

// --- Error vocabulary -----------------------------------------------------

TEST(WireProtocolTest, ErrorCodesMapToStableNamesAndHttpStatuses) {
  EXPECT_STREQ(ServiceErrorCodeName(ServiceErrorCode::kBudgetExhausted),
               "BudgetExhausted");
  EXPECT_EQ(HttpStatusOf(ServiceErrorCode::kBudgetExhausted), 429);
  EXPECT_EQ(HttpStatusOf(ServiceErrorCode::kParseError), 400);
  EXPECT_EQ(HttpStatusOf(ServiceErrorCode::kUnknownAlgorithm), 404);
  EXPECT_EQ(HttpStatusOf(ServiceErrorCode::kQueueFull), 503);
  EXPECT_EQ(HttpStatusOf(ServiceErrorCode::kNoPrivateAnswer), 422);
  EXPECT_EQ(ServiceErrorFromStatus(Status::InvalidArgument("x")),
            ServiceErrorCode::kInvalidRequest);
  EXPECT_EQ(ServiceErrorFromStatus(Status::NotFound("x")),
            ServiceErrorCode::kUnknownAlgorithm);
  const JsonValue error =
      ErrorToJson(ServiceErrorCode::kQueueFull, "try later");
  EXPECT_FALSE(error.Find("ok")->AsBool());
  EXPECT_EQ(error.Find("error")->Find("code")->AsString(), "QueueFull");
}

// --- Service-level malformed-input pinning (no sockets) -------------------

TEST(ServiceErrorTest, TruncatedBodyIsParseErrorAndChargesNothing) {
  ClusterService service;
  const ServiceReply reply =
      service.Handle("POST", "/v1/solve", R"({"dataset": "d", "alg)");
  EXPECT_EQ(reply.http_status, 400);
  ASSERT_OK_AND_ASSIGN(JsonValue body, JsonValue::Parse(reply.body));
  EXPECT_EQ(body.Find("error")->Find("code")->AsString(), "ParseError");
  EXPECT_DOUBLE_EQ(service.SpentBy("public", "d").epsilon, 0.0);
}

TEST(ServiceErrorTest, UnknownAlgorithmIs404AndChargesNothing) {
  ClusterService service;
  const ServiceReply reply = service.Handle(
      "POST", "/v1/solve",
      R"({"dataset": "d", "algorithm": "no_such_algo", "points": [[0.5]]})");
  EXPECT_EQ(reply.http_status, 404);
  ASSERT_OK_AND_ASSIGN(JsonValue body, JsonValue::Parse(reply.body));
  EXPECT_EQ(body.Find("error")->Find("code")->AsString(), "UnknownAlgorithm");
  EXPECT_DOUBLE_EQ(service.SpentBy("public", "d").epsilon, 0.0);
}

TEST(ServiceErrorTest, NegativeEpsilonIsInvalidRequestAndChargesNothing) {
  ClusterService service;
  const ServiceReply reply = service.Handle(
      "POST", "/v1/solve",
      R"({"dataset": "d", "algorithm": "nonprivate", "points": [[0.5]],)"
      R"( "epsilon": -1.0, "t": 1})");
  EXPECT_EQ(reply.http_status, 400);
  ASSERT_OK_AND_ASSIGN(JsonValue body, JsonValue::Parse(reply.body));
  EXPECT_EQ(body.Find("error")->Find("code")->AsString(), "InvalidRequest");
  EXPECT_DOUBLE_EQ(service.SpentBy("public", "d").epsilon, 0.0);
}

// A coordinate literal too large for a double decodes to infinity; the wire
// parser refuses it (400 ParseError, nothing charged) instead of handing it
// to the spatial index, and the service keeps serving.
TEST(ServiceErrorTest, NonFiniteCoordinateIsParseErrorAndChargesNothing) {
  ClusterService service;
  std::string rows;
  for (int i = 0; i < 256; ++i) {
    rows += "[0.5" + std::to_string(i % 8) + ", 0.4" +
            std::to_string(i / 8 % 8) + "], ";
  }
  const auto body = [&](const std::string& last_row) {
    return R"({"dataset": "d", "algorithm": "one_cluster", "levels": 1024,)"
           R"( "snap": false, "epsilon": 4, "t": 256, "points": [)" +
           rows + last_row + "]}";
  };
  const ServiceReply bad =
      service.Handle("POST", "/v1/solve", body("[1e999, 0.5]"));
  EXPECT_EQ(bad.http_status, 400);
  ASSERT_OK_AND_ASSIGN(JsonValue json, JsonValue::Parse(bad.body));
  EXPECT_EQ(json.Find("error")->Find("code")->AsString(), "ParseError");
  EXPECT_NE(json.Find("error")->Find("message")->AsString().find("non-finite"),
            std::string::npos)
      << json.Find("error")->Find("message")->AsString();
  EXPECT_DOUBLE_EQ(service.SpentBy("public", "d").epsilon, 0.0);

  const ServiceReply good =
      service.Handle("POST", "/v1/solve", body("[0.5, 0.5]"));
  EXPECT_EQ(good.http_status, 200) << good.body;
  EXPECT_DOUBLE_EQ(service.SpentBy("public", "d").epsilon, 4.0);
}

// index_geometry, projection_seed, profile_index and the two subsample
// knobs are not tuning keys: a body naming any of them is a 400 ParseError
// that says which key, and charges nothing.
TEST(ServiceErrorTest, RemovedTuningKeysAreUnknownKeys) {
  for (const auto& [key, value] : {std::pair<const char*, const char*>{
                                       "index_geometry", R"("exact")"},
                                   {"projection_seed", "7"},
                                   {"profile_index", R"("exact")"},
                                   {"subsample_large_inputs", "true"},
                                   {"subsample_grid_cap_factor", "10"}}) {
    ClusterService service;
    const std::string body =
        std::string(R"({"dataset": "d", "algorithm": "one_cluster",)") +
        R"( "points": [[0.5]], "levels": 4, "tuning": {")" + key + R"(": )" +
        value + "}}";
    const ServiceReply reply = service.Handle("POST", "/v1/solve", body);
    EXPECT_EQ(reply.http_status, 400) << key;
    ASSERT_OK_AND_ASSIGN(JsonValue json, JsonValue::Parse(reply.body));
    EXPECT_EQ(json.Find("error")->Find("code")->AsString(), "ParseError")
        << key;
    EXPECT_NE(json.Find("error")->Find("message")->AsString().find(
                  "tuning." + std::string(key) + "\": unknown key"),
              std::string::npos)
        << json.Find("error")->Find("message")->AsString();
    EXPECT_DOUBLE_EQ(service.SpentBy("public", "d").epsilon, 0.0) << key;
  }
}

}  // namespace
}  // namespace dpcluster
