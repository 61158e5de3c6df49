// End-to-end tests for the dpcluster daemon: routing, the per-(tenant,
// dataset) budget ledgers (a budget-exhausted tenant gets the structured
// 429 while other tenants keep solving), the keyed index cache, concurrent
// HTTP clients against a live server, queue-full shedding, and graceful
// shutdown. ClusterService::Handle is driven directly where sockets add
// nothing; HttpServer + the loopback client cover the socket path.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dpcluster/api/algorithm.h"
#include "dpcluster/api/registry.h"
#include "dpcluster/core/good_radius.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/parallel/bounded_queue.h"
#include "dpcluster/random/rng.h"
#include "dpcluster/service/http_client.h"
#include "dpcluster/service/http_server.h"
#include "dpcluster/service/json.h"
#include "dpcluster/service/protocol.h"
#include "dpcluster/service/service.h"
#include "reference/minimal_ball_reference.h"
#include "test_util.h"

namespace dpcluster {
namespace {

using std::chrono::milliseconds;

/// A planted 2-d cluster every built-in under test answers reliably at
/// eps = 8 (the bench traffic shape, seeds verified there).
Result<ScenarioInstance> SmallWorkload(std::uint64_t seed = 7) {
  Rng rng(seed);
  return GenerateScenario(rng, {.n = 512, .dim = 2, .levels = 1u << 10,
                                .cluster_radius = 0.02,
                                .cluster_fraction = (192 + 0.5) / 512});
}

std::string SolveBody(const ScenarioInstance& workload,
                      const std::string& algorithm, const std::string& tenant,
                      const std::string& dataset, double epsilon = 8.0,
                      std::uint64_t seed = 99) {
  WireRequest wire;
  wire.tenant = tenant;
  wire.dataset = dataset;
  wire.seed = seed;
  wire.request.algorithm = algorithm;
  wire.request.data = workload.points;
  wire.request.domain = workload.domain;
  wire.request.t = workload.t;
  wire.request.budget = {epsilon, 1e-9};
  return WireRequestToJson(wire).Encode();
}

/// Options with a budget far above anything a test requests; budget
/// admission has its own tests.
ServiceOptions UnmeteredOptions() {
  ServiceOptions options;
  options.default_budget = {1e9, 0.5};
  return options;
}

JsonValue MustParse(const std::string& body) {
  auto parsed = JsonValue::Parse(body);
  EXPECT_TRUE(parsed.ok()) << body;
  return parsed.ok() ? *std::move(parsed) : JsonValue::Null();
}

// --- Routing --------------------------------------------------------------

TEST(ServiceRoutingTest, HealthzReportsServingState) {
  ClusterService service;
  const ServiceReply reply = service.Handle("GET", "/healthz", "");
  EXPECT_EQ(reply.http_status, 200);
  JsonValue body = MustParse(reply.body);
  EXPECT_TRUE(body.Find("ok")->AsBool());
  EXPECT_EQ(body.Find("status")->AsString(), "serving");
}

TEST(ServiceRoutingTest, AlgorithmsListsTheRegistry) {
  ClusterService service;
  const ServiceReply reply = service.Handle("GET", "/v1/algorithms", "");
  ASSERT_EQ(reply.http_status, 200);
  JsonValue body = MustParse(reply.body);
  const JsonValue* algorithms = body.Find("algorithms");
  ASSERT_NE(algorithms, nullptr);
  std::vector<std::string> names;
  for (const JsonValue& item : algorithms->items()) {
    names.push_back(item.AsString());
  }
  for (const char* expected :
       {"one_cluster", "k_cluster", "interior_point", "outlier_screen",
        "sample_aggregate", "exp_mech_baseline", "noisy_mean_baseline",
        "nonprivate", "threshold_release_1d"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(ServiceRoutingTest, UnknownRouteAndWrongMethodAreStructuredErrors) {
  ClusterService service;
  const ServiceReply missing = service.Handle("GET", "/v1/nope", "");
  EXPECT_EQ(missing.http_status, 404);
  EXPECT_EQ(MustParse(missing.body).Find("error")->Find("code")->AsString(),
            "RouteNotFound");
  const ServiceReply wrong_method = service.Handle("GET", "/v1/solve", "{}");
  EXPECT_EQ(wrong_method.http_status, 405);
  EXPECT_EQ(
      MustParse(wrong_method.body).Find("error")->Find("code")->AsString(),
      "MethodNotAllowed");
}

// --- Released fields ------------------------------------------------------

TEST(ServiceReplyTest, KClusterReplyCarriesNoExactUncoveredCount) {
  // |S \ (union of balls)| is an exact count: with the released balls and
  // every other row it tells whether the last row is covered.
  ClusterService service(UnmeteredOptions());
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance workload, SmallWorkload());
  const ServiceReply reply = service.Handle(
      "POST", "/v1/solve", SolveBody(workload, "k_cluster", "kc", "kc/data"));
  ASSERT_EQ(reply.http_status, 200) << reply.body;
  const JsonValue body = MustParse(reply.body);
  const JsonValue* response = body.Find("response");
  ASSERT_NE(response, nullptr) << reply.body;
  EXPECT_NE(response->Find("balls"), nullptr);
  EXPECT_EQ(response->Find("uncovered"), nullptr) << reply.body;
}

// --- Budget exhaustion ----------------------------------------------------

TEST(ServiceBudgetTest, ExhaustedTenantGets429WhileOthersSucceed) {
  ServiceOptions options;
  options.default_budget = {2.0, 1e-6};
  ClusterService service(options);
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance workload, SmallWorkload());

  // Tenant A's first solve fits (1.5 of 2.0) and charges the full request.
  const std::string body_a =
      SolveBody(workload, "nonprivate", "alice", "shared/data", 1.5);
  EXPECT_EQ(service.Handle("POST", "/v1/solve", body_a).http_status, 200);
  EXPECT_DOUBLE_EQ(service.SpentBy("alice", "shared/data").epsilon, 1.5);

  // The second identical request cannot fit: structured 429 with the
  // ledger's cap / spent / remaining and the attempted charge.
  const ServiceReply rejected = service.Handle("POST", "/v1/solve", body_a);
  EXPECT_EQ(rejected.http_status, 429);
  JsonValue body = MustParse(rejected.body);
  EXPECT_FALSE(body.Find("ok")->AsBool());
  EXPECT_EQ(body.Find("error")->Find("code")->AsString(), "BudgetExhausted");
  const JsonValue* budget = body.Find("budget");
  ASSERT_NE(budget, nullptr);
  EXPECT_DOUBLE_EQ(budget->Find("cap")->Find("epsilon")->AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(budget->Find("spent")->Find("epsilon")->AsDouble(), 1.5);
  EXPECT_DOUBLE_EQ(budget->Find("remaining")->Find("epsilon")->AsDouble(),
                   0.5);
  EXPECT_DOUBLE_EQ(body.Find("requested")->Find("epsilon")->AsDouble(), 1.5);
  // The rejection charged nothing.
  EXPECT_DOUBLE_EQ(service.SpentBy("alice", "shared/data").epsilon, 1.5);

  // Tenant B on the same dataset key has its own ledger and still solves;
  // so does tenant A on a different dataset.
  EXPECT_EQ(service
                .Handle("POST", "/v1/solve",
                        SolveBody(workload, "nonprivate", "bob",
                                  "shared/data", 1.5))
                .http_status,
            200);
  EXPECT_EQ(service
                .Handle("POST", "/v1/solve",
                        SolveBody(workload, "nonprivate", "alice",
                                  "other/data", 1.5))
                .http_status,
            200);

  const ClusterService::Stats stats = service.GetStats();
  EXPECT_EQ(stats.solved, 3u);
  EXPECT_EQ(stats.budget_rejections, 1u);
}

TEST(ServiceBudgetTest, TenantOverrideBeatsTheDefaultCap) {
  ServiceOptions options;
  options.default_budget = {1.0, 1e-6};
  options.tenant_budgets["vip"] = {20.0, 1e-6};
  ClusterService service(options);
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance workload, SmallWorkload());
  // eps = 8 overdraws the 1.0 default but fits the vip override.
  EXPECT_EQ(service
                .Handle("POST", "/v1/solve",
                        SolveBody(workload, "nonprivate", "vip", "d", 8.0))
                .http_status,
            200);
  EXPECT_EQ(service
                .Handle("POST", "/v1/solve",
                        SolveBody(workload, "nonprivate", "basic", "d", 8.0))
                .http_status,
            429);
}

// --- Index cache ----------------------------------------------------------

TEST(ServiceCacheTest, RepeatSolvesOnOneDatasetHitTheIndexCache) {
  ClusterService service(UnmeteredOptions());
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance workload, SmallWorkload());
  const std::string body =
      SolveBody(workload, "one_cluster", "public", "cache/me");
  ASSERT_EQ(service.Handle("POST", "/v1/solve", body).http_status, 200);
  ASSERT_EQ(service.Handle("POST", "/v1/solve", body).http_status, 200);
  ASSERT_EQ(service.Handle("POST", "/v1/solve", body).http_status, 200);
  IndexCache::Stats stats = service.CacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 1u);

  // Same key, different bytes: the fingerprint check replaces the entry
  // instead of serving the stale geometry.
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance other, SmallWorkload(/*seed=*/8));
  ASSERT_EQ(service
                .Handle("POST", "/v1/solve",
                        SolveBody(other, "one_cluster", "public", "cache/me"))
                .http_status,
            200);
  stats = service.CacheStats();
  EXPECT_EQ(stats.replaced, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ServiceCacheTest, CachedAndColdRunsReleaseIdenticalAnswers) {
  // The cache must only accelerate: the first (miss) and second (hit) runs
  // of the same seeded request release byte-identical artifacts.
  ClusterService service(UnmeteredOptions());
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance workload, SmallWorkload());
  const std::string body =
      SolveBody(workload, "one_cluster", "public", "det/data");
  const ServiceReply cold = service.Handle("POST", "/v1/solve", body);
  const ServiceReply warm = service.Handle("POST", "/v1/solve", body);
  ASSERT_EQ(cold.http_status, 200);
  ASSERT_EQ(warm.http_status, 200);
  JsonValue cold_body = MustParse(cold.body);
  JsonValue warm_body = MustParse(warm.body);
  EXPECT_EQ(cold_body.Find("response")->Find("ball")->Encode(),
            warm_body.Find("response")->Find("ball")->Encode());
  EXPECT_TRUE(warm_body.Find("indexed")->AsBool());
}

TEST(ServiceCacheTest, NonprivateReplyCarriesTheBruteForceOracleBytes) {
  // `nonprivate` releases TwoApproxSmallestBall's ball, and the default
  // diagnostics carry OptRadiusLowerBound = its radius / 2: both must stay
  // the bytes of the brute-force scan over every input point.
  ClusterService service(UnmeteredOptions());
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    ASSERT_OK_AND_ASSIGN(const ScenarioInstance workload, SmallWorkload(seed));
    const ServiceReply reply = service.Handle(
        "POST", "/v1/solve",
        SolveBody(workload, "nonprivate", "public",
                  "nonprivate/" + std::to_string(seed)));
    ASSERT_EQ(reply.http_status, 200) << reply.body;
    const JsonValue body = MustParse(reply.body);
    const JsonValue* response = body.Find("response");
    ASSERT_NE(response, nullptr) << reply.body;
    const Ball oracle = reference::BruteForceTwoApproxSmallestBall(
        workload.points, workload.t);
    JsonValue center = JsonValue::Array();
    for (const double c : oracle.center) center.Append(JsonValue::Number(c));
    JsonValue ball = JsonValue::Object();
    ball.Set("center", std::move(center));
    ball.Set("radius", JsonValue::Number(oracle.radius));
    EXPECT_EQ(response->Find("ball")->Encode(), ball.Encode());
    EXPECT_EQ(response->Find("diagnostics")->Find("r_opt_lower")->Encode(),
              JsonValue::Number(oracle.radius / 2.0).Encode());
  }
}

// --- Streaming datasets ---------------------------------------------------

/// Reads an integer reply field, failing the test (not crashing) when the
/// key is absent or not a JSON integer.
std::uint64_t U64(const JsonValue& object, const char* key) {
  const JsonValue* value = object.Find(key);
  EXPECT_NE(value, nullptr) << key;
  if (value == nullptr) return ~0ull;
  const auto parsed = value->AsU64();
  EXPECT_TRUE(parsed.ok()) << key;
  return parsed.ok() ? *parsed : ~0ull;
}

std::string AppendBody(const std::string& dataset, const PointSet& points,
                       std::uint64_t levels = 0, double axis = 1.0) {
  JsonValue object = JsonValue::Object();
  object.Set("dataset", JsonValue::String(dataset));
  JsonValue rows = JsonValue::Array();
  for (std::size_t i = 0; i < points.size(); ++i) {
    JsonValue row = JsonValue::Array();
    for (const double c : points[i]) row.Append(JsonValue::Number(c));
    rows.Append(std::move(row));
  }
  object.Set("points", std::move(rows));
  if (levels > 0) {
    object.Set("levels", JsonValue::Number(levels));
    object.Set("axis", JsonValue::Number(axis));
  }
  return object.Encode();
}

std::string StreamSolveBody(const std::string& algorithm,
                            const std::string& dataset, std::size_t t,
                            std::uint64_t seed = 99) {
  WireRequest wire;
  wire.dataset = dataset;
  wire.seed = seed;
  wire.stream = true;
  wire.request.algorithm = algorithm;
  wire.request.t = t;
  wire.request.budget = {8.0, 1e-9};
  return WireRequestToJson(wire).Encode();
}

TEST(ServiceStreamTest, AppendCreatesStreamAndSolvesDeterministically) {
  ClusterService service(UnmeteredOptions());
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance workload, SmallWorkload());

  const ServiceReply appended = service.Handle(
      "POST", "/v1/stream/append",
      AppendBody("sensors/live", workload.points, workload.domain.levels(),
                 workload.domain.axis_length()));
  ASSERT_EQ(appended.http_status, 200) << appended.body;
  JsonValue ack = MustParse(appended.body);
  EXPECT_TRUE(ack.Find("created")->AsBool());
  EXPECT_EQ(U64(ack, "appended"), workload.points.size());
  EXPECT_EQ(U64(ack, "first_id"), 0u);
  EXPECT_EQ(U64(ack, "version"), 1u);
  EXPECT_EQ(U64(ack, "live"), workload.points.size());
  EXPECT_EQ(U64(ack, "total"), workload.points.size());
  EXPECT_FALSE(ack.Find("compacted")->AsBool());

  // Two stream solves at the same wire seed release byte-identical
  // artifacts: the resident index only accelerates, never perturbs.
  const std::string solve =
      StreamSolveBody("one_cluster", "sensors/live", workload.t);
  const ServiceReply first = service.Handle("POST", "/v1/solve", solve);
  const ServiceReply second = service.Handle("POST", "/v1/solve", solve);
  ASSERT_EQ(first.http_status, 200) << first.body;
  ASSERT_EQ(second.http_status, 200) << second.body;
  JsonValue first_body = MustParse(first.body);
  JsonValue second_body = MustParse(second.body);
  // Identical released artifact and accounting (only wall_ms may differ).
  for (const char* key : {"ball", "balls", "charged", "diagnostics"}) {
    EXPECT_EQ(first_body.Find("response")->Find(key)->Encode(),
              second_body.Find("response")->Find(key)->Encode())
        << key;
  }
  EXPECT_TRUE(first_body.Find("indexed")->AsBool());
  const JsonValue* stream = first_body.Find("stream");
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(U64(*stream, "version"), 1u);
  EXPECT_EQ(U64(*stream, "live"), workload.points.size());
  EXPECT_EQ(service.GetStats().stream_appends, 1u);
}

TEST(ServiceStreamTest, ExpireBumpsVersionAndCompactionInvalidatesIds) {
  ClusterService service(UnmeteredOptions());
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance workload, SmallWorkload());
  const std::size_t n = workload.points.size();  // 512
  ASSERT_EQ(service
                .Handle("POST", "/v1/stream/append",
                        AppendBody("churn", workload.points,
                                   workload.domain.levels(),
                                   workload.domain.axis_length()))
                .http_status,
            200);

  // Oldest-first count expiry: version bumps, total stays (lazy deletion).
  const ServiceReply by_count = service.Handle(
      "POST", "/v1/stream/expire", R"({"dataset": "churn", "count": 16})");
  ASSERT_EQ(by_count.http_status, 200) << by_count.body;
  JsonValue ack = MustParse(by_count.body);
  EXPECT_EQ(U64(ack, "expired"), 16u);
  EXPECT_EQ(U64(ack, "version"), 2u);
  EXPECT_EQ(U64(ack, "live"), n - 16);
  EXPECT_EQ(U64(ack, "total"), n);
  EXPECT_FALSE(ack.Find("compacted")->AsBool());

  // Explicit row ids (handed out by append replies).
  const ServiceReply by_ids = service.Handle(
      "POST", "/v1/stream/expire", R"({"dataset": "churn", "ids": [16, 17]})");
  ASSERT_EQ(by_ids.http_status, 200) << by_ids.body;
  ack = MustParse(by_ids.body);
  EXPECT_EQ(U64(ack, "expired"), 2u);
  EXPECT_EQ(U64(ack, "version"), 3u);
  EXPECT_EQ(U64(ack, "live"), n - 18);

  // Dropping below live/total = 1/4 triggers compaction: ids renumber, the
  // reply says so, and the version bumps twice (mutation + renumbering).
  const ServiceReply big = service.Handle(
      "POST", "/v1/stream/expire", R"({"dataset": "churn", "count": 400})");
  ASSERT_EQ(big.http_status, 200) << big.body;
  ack = MustParse(big.body);
  EXPECT_TRUE(ack.Find("compacted")->AsBool());
  EXPECT_EQ(U64(ack, "version"), 5u);
  EXPECT_EQ(U64(ack, "live"), n - 418);
  EXPECT_EQ(U64(ack, "total"), n - 418);  // storage reclaimed
  EXPECT_EQ(service.GetStats().stream_compactions, 1u);

  // A pre-compaction id is now out of range: the whole batch is refused and
  // the stream is untouched (atomic validation).
  const ServiceReply stale = service.Handle(
      "POST", "/v1/stream/expire", R"({"dataset": "churn", "ids": [500]})");
  EXPECT_EQ(stale.http_status, 400);
  EXPECT_EQ(MustParse(stale.body).Find("error")->Find("code")->AsString(),
            "InvalidRequest");
  EXPECT_EQ(U64(MustParse(service
                         .Handle("POST", "/v1/stream/expire",
                                 R"({"dataset": "churn", "count": 1})")
                         .body),
                "live"),
            n - 419);
}

TEST(ServiceStreamTest, MissingStreamsAreStructured404s) {
  ClusterService service(UnmeteredOptions());
  const auto expect_unknown = [&](const ServiceReply& reply) {
    EXPECT_EQ(reply.http_status, 404);
    EXPECT_EQ(MustParse(reply.body).Find("error")->Find("code")->AsString(),
              "UnknownDataset");
  };
  // Solving, expiring, and appending-without-"levels" against a dataset
  // with no resident stream all name the same structured error.
  expect_unknown(service.Handle("POST", "/v1/solve",
                                StreamSolveBody("one_cluster", "ghost", 8)));
  expect_unknown(service.Handle("POST", "/v1/stream/expire",
                                R"({"dataset": "ghost", "count": 1})"));
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance workload, SmallWorkload());
  expect_unknown(service.Handle("POST", "/v1/stream/append",
                                AppendBody("ghost", workload.points)));
}

// --- Radius-profile memo and shape-only refusals ---------------------------

/// The released bytes of a 200 reply's "response": everything but wall_ms.
std::string ReleasedBytes(const ServiceReply& reply) {
  JsonValue response = *MustParse(reply.body).Find("response");
  response.Set("wall_ms", JsonValue::Number(0));
  return response.Encode();
}

TEST(ServiceProfileMemoTest, RepeatSolvesReleaseColdBytesAndCountMemoHits) {
  // Repeat one_cluster solves and interleaved k_cluster solves over one
  // resident key: every reply must carry the bytes a cold service releases
  // for the same body, while the memoized full-set profile serves the
  // repeats.
  ClusterService warm(UnmeteredOptions());
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance workload, SmallWorkload());
  std::vector<std::string> bodies;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    WireRequest wire;
    wire.dataset = "memo/data";
    wire.seed = seed;
    wire.request.algorithm = seed % 2 == 0 ? "k_cluster" : "one_cluster";
    wire.request.data = workload.points;
    wire.request.domain = workload.domain;
    wire.request.t = workload.t;
    wire.request.k = 2;
    wire.request.budget = {16.0, 1e-9};
    bodies.push_back(WireRequestToJson(wire).Encode());
  }
  for (const std::string& body : bodies) {
    const ServiceReply reply = warm.Handle("POST", "/v1/solve", body);
    ASSERT_EQ(reply.http_status, 200) << reply.body;
    EXPECT_TRUE(MustParse(reply.body).Find("indexed")->AsBool());
    ClusterService cold(UnmeteredOptions());
    const ServiceReply reference = cold.Handle("POST", "/v1/solve", body);
    ASSERT_EQ(reference.http_status, 200) << reference.body;
    EXPECT_EQ(ReleasedBytes(reply), ReleasedBytes(reference));
    const JsonValue balls = *MustParse(reply.body).Find("response")->Find(
        "balls");
    if (body.find("k_cluster") != std::string::npos) {
      ASSERT_EQ(balls.items().size(), 2u) << "both rounds must release";
    }
  }
  // one_cluster builds the profile once, k_cluster once per round (round 0
  // on the full set, round 1 on what round 0 left): the first solve misses,
  // every later full-set build hits, and round 1 always runs cold.
  const IndexCache::Stats stats = warm.CacheStats();
  EXPECT_EQ(stats.profile_hits, 3u);
  EXPECT_EQ(stats.profile_misses, 3u);
  const JsonValue cache =
      *MustParse(warm.Handle("GET", "/v1/stats", "").body).Find("index_cache");
  EXPECT_EQ(U64(cache, "profile_hits"), 3u);
  EXPECT_EQ(U64(cache, "profile_misses"), 3u);
}

/// n points of a planted 2-d cluster at daemon-default caps: t = 256 keeps
/// the n = 4096 solves cheap.
Result<ScenarioInstance> ProfileCapWorkload(std::size_t n) {
  Rng rng(29);
  return GenerateScenario(rng, {.n = n, .dim = 2, .levels = 1u << 10,
                                .cluster_radius = 0.02,
                                .cluster_fraction = (256 + 0.5) / n});
}

/// The first `n` rows of `workload`.
ScenarioInstance FirstRows(const ScenarioInstance& workload, std::size_t n) {
  ScenarioInstance prefix = workload;
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  prefix.points = workload.points.Subset(rows);
  prefix.labels.resize(n);
  return prefix;
}

TEST(ServiceRefusalTest, OverProfileCapSolveIsRefusedUncharged) {
  // At daemon defaults the radius profile caps n at 4096 rows. A request
  // over the cap is refused with 422 ResourceLimit before admission, so the
  // ledger is untouched; one_cluster used to be charged for its 422, and
  // k_cluster answered 200 with no balls and the whole budget spent.
  const std::size_t cap = GoodRadiusOptions{}.max_profile_points;
  ASSERT_EQ(cap, 4096u);
  ClusterService service(UnmeteredOptions());
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance over,
                       ProfileCapWorkload(cap + 1));
  const ScenarioInstance at = FirstRows(over, cap);
  for (const char* algorithm : {"one_cluster", "k_cluster"}) {
    const std::string dataset = std::string("cap/") + algorithm;
    WireRequest wire;
    wire.dataset = dataset;
    wire.request.algorithm = algorithm;
    wire.request.domain = at.domain;
    wire.request.t = at.t;
    wire.request.k = 1;
    wire.request.budget = {8.0, 1e-9};
    wire.request.data = at.points;
    const ServiceReply fits =
        service.Handle("POST", "/v1/solve", WireRequestToJson(wire).Encode());
    ASSERT_EQ(fits.http_status, 200) << algorithm << " " << fits.body;
    const PrivacyParams spent = service.SpentBy("public", dataset);
    EXPECT_DOUBLE_EQ(spent.epsilon, 8.0) << algorithm;

    wire.request.data = over.points;
    const ServiceReply refused =
        service.Handle("POST", "/v1/solve", WireRequestToJson(wire).Encode());
    EXPECT_EQ(refused.http_status, 422) << algorithm << " " << refused.body;
    const JsonValue body = MustParse(refused.body);
    ASSERT_NE(body.Find("error"), nullptr) << algorithm << " " << refused.body;
    EXPECT_EQ(body.Find("error")->Find("code")->AsString(), "ResourceLimit")
        << algorithm;
    EXPECT_EQ(service.SpentBy("public", dataset).epsilon, spent.epsilon)
        << algorithm;
  }
}

TEST(ServiceRefusalTest, OverProfileCapStreamSolveIsRefusedUncharged) {
  // A stream solve over 4096 live rows answers; one more row is refused
  // uncharged the same way.
  const std::size_t cap = GoodRadiusOptions{}.max_profile_points;
  ClusterService service(UnmeteredOptions());
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance over,
                       ProfileCapWorkload(cap + 1));
  const ScenarioInstance at = FirstRows(over, cap);
  ASSERT_EQ(service
                .Handle("POST", "/v1/stream/append",
                        AppendBody("cap/stream", at.points, at.domain.levels(),
                                   at.domain.axis_length()))
                .http_status,
            200);
  const std::string solve =
      StreamSolveBody("one_cluster", "cap/stream", at.t);
  const ServiceReply fits = service.Handle("POST", "/v1/solve", solve);
  ASSERT_EQ(fits.http_status, 200) << fits.body;
  const PrivacyParams spent = service.SpentBy("public", "cap/stream");
  EXPECT_DOUBLE_EQ(spent.epsilon, 8.0);
  PointSet extra(2);
  extra.Add(over.points[cap]);
  ASSERT_EQ(service
                .Handle("POST", "/v1/stream/append",
                        AppendBody("cap/stream", extra))
                .http_status,
            200);
  const ServiceReply refused = service.Handle("POST", "/v1/solve", solve);
  EXPECT_EQ(refused.http_status, 422) << refused.body;
  const JsonValue body = MustParse(refused.body);
  ASSERT_NE(body.Find("error"), nullptr) << refused.body;
  EXPECT_EQ(body.Find("error")->Find("code")->AsString(), "ResourceLimit");
  EXPECT_EQ(service.SpentBy("public", "cap/stream").epsilon, spent.epsilon);
}

TEST(ServiceRefusalTest, ShapeOnlyRefusalsAreUncharged) {
  // interior_point on fewer than 4 points, and exp_mech_baseline over more
  // grid centers than tuning.max_grid_centers (levels=1024, d=2 is 2^20 at
  // the default 2^18 cap), fail on the request's shape alone. Both are
  // refused before admission and charge nothing; both used to answer their
  // error with the budget spent.
  ClusterService service(UnmeteredOptions());

  WireRequest few;
  few.dataset = "shape/interior_point";
  few.request.algorithm = "interior_point";
  few.request.domain = GridDomain(1u << 10, 1);
  few.request.data = testing_util::MakePointSet(1, {0.25, 0.5, 0.75});
  few.request.t = 2;
  few.request.budget = {2.0, 1e-6};
  const ServiceReply few_reply =
      service.Handle("POST", "/v1/solve", WireRequestToJson(few).Encode());
  EXPECT_EQ(few_reply.http_status, 400) << few_reply.body;
  const JsonValue few_body = MustParse(few_reply.body);
  ASSERT_NE(few_body.Find("error"), nullptr) << few_reply.body;
  EXPECT_EQ(few_body.Find("error")->Find("code")->AsString(),
            "InvalidRequest");
  EXPECT_EQ(service.SpentBy("public", few.dataset).epsilon, 0.0);
  EXPECT_EQ(service.SpentBy("public", few.dataset).delta, 0.0);

  ASSERT_OK_AND_ASSIGN(const ScenarioInstance fine, SmallWorkload());
  ASSERT_EQ(fine.domain.levels(), 1u << 10);
  ASSERT_EQ(fine.domain.dim(), 2u);
  WireRequest wide;
  wide.dataset = "shape/exp_mech_baseline";
  wide.request.algorithm = "exp_mech_baseline";
  wide.request.domain = fine.domain;
  wide.request.data = fine.points;
  wide.request.t = fine.t;
  wide.request.budget = {2.0, 1e-6};
  const ServiceReply wide_reply =
      service.Handle("POST", "/v1/solve", WireRequestToJson(wide).Encode());
  EXPECT_EQ(wide_reply.http_status, 422) << wide_reply.body;
  const JsonValue wide_body = MustParse(wide_reply.body);
  ASSERT_NE(wide_body.Find("error"), nullptr) << wide_reply.body;
  EXPECT_EQ(wide_body.Find("error")->Find("code")->AsString(),
            "ResourceLimit");
  EXPECT_EQ(service.SpentBy("public", wide.dataset).epsilon, 0.0);
  EXPECT_EQ(service.SpentBy("public", wide.dataset).delta, 0.0);
}

// --- Live HTTP server -----------------------------------------------------

TEST(HttpServerTest, ServesSolvesOverLoopbackDeterministically) {
  ClusterService service(UnmeteredOptions());
  HttpServerOptions options;
  options.workers = 2;
  HttpServer server(&service, options);
  ASSERT_OK(server.Start());

  ASSERT_OK_AND_ASSIGN(const HttpResponse health,
                       HttpGet(server.port(), "/healthz"));
  EXPECT_EQ(health.status, 200);

  ASSERT_OK_AND_ASSIGN(const ScenarioInstance workload, SmallWorkload());
  const std::string body =
      SolveBody(workload, "one_cluster", "net", "net/data");
  ASSERT_OK_AND_ASSIGN(const HttpResponse first,
                       HttpPost(server.port(), "/v1/solve", body));
  ASSERT_OK_AND_ASSIGN(const HttpResponse second,
                       HttpPost(server.port(), "/v1/solve", body));
  ASSERT_EQ(first.status, 200);
  ASSERT_EQ(second.status, 200);
  // Same wire seed -> same released ball, regardless of which worker ran it.
  EXPECT_EQ(MustParse(first.body).Find("response")->Find("ball")->Encode(),
            MustParse(second.body).Find("response")->Find("ball")->Encode());

  server.Stop();
  const HttpServer::Stats stats = server.GetStats();
  EXPECT_GE(stats.accepted, 3u);
  EXPECT_EQ(stats.served, stats.accepted);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(HttpServerTest, KeepAliveServesManyRequestsPerConnection) {
  ClusterService service(UnmeteredOptions());
  HttpServerOptions options;
  options.workers = 2;
  HttpServer server(&service, options);
  ASSERT_OK(server.Start());

  // One socket, many requests: GETs and a full solve POST share the
  // connection, and the client never has to re-dial.
  HttpConnection connection(server.port());
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(const HttpResponse health,
                         connection.Get("/healthz"));
    EXPECT_EQ(health.status, 200);
  }
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance workload, SmallWorkload());
  ASSERT_OK_AND_ASSIGN(
      const HttpResponse solved,
      connection.Post("/v1/solve",
                      SolveBody(workload, "one_cluster", "ka", "ka/data")));
  EXPECT_EQ(solved.status, 200);
  EXPECT_EQ(connection.reconnects(), 0u);

  server.Stop();
  const HttpServer::Stats stats = server.GetStats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.served, 9u);
  EXPECT_EQ(stats.reused, 8u);
}

TEST(HttpServerTest, RequestCapClosesAndClientRedials) {
  ClusterService service(UnmeteredOptions());
  HttpServerOptions options;
  options.workers = 1;
  options.max_requests_per_connection = 3;
  HttpServer server(&service, options);
  ASSERT_OK(server.Start());

  // The server announces "Connection: close" on every 3rd reply; the client
  // notices and re-dials, so 7 requests ride 3 connections (3 + 3 + 1).
  HttpConnection connection(server.port());
  for (int i = 0; i < 7; ++i) {
    ASSERT_OK_AND_ASSIGN(const HttpResponse health,
                         connection.Get("/healthz"));
    EXPECT_EQ(health.status, 200);
  }
  EXPECT_EQ(connection.reconnects(), 2u);

  server.Stop();
  const HttpServer::Stats stats = server.GetStats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.served, 7u);
  EXPECT_EQ(stats.reused, 4u);
}

TEST(HttpServerTest, ConcurrentClientsAllSucceed) {
  ClusterService service(UnmeteredOptions());
  HttpServerOptions options;
  options.workers = 4;
  HttpServer server(&service, options);
  ASSERT_OK(server.Start());

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 3;
  std::atomic<int> ok_count{0};
  std::vector<ScenarioInstance> workloads;
  for (std::size_t c = 0; c < kClients; ++c) {
    ASSERT_OK_AND_ASSIGN(ScenarioInstance workload, SmallWorkload(c));
    workloads.push_back(std::move(workload));
  }
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string tenant = "tenant" + std::to_string(c);
      const std::string body = SolveBody(workloads[c], "nonprivate",
                                         tenant, tenant + "/data", 8.0,
                                         /*seed=*/100 + c);
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const auto reply = HttpPost(server.port(), "/v1/solve", body);
        if (reply.ok() && reply->status == 200) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  EXPECT_EQ(ok_count.load(), static_cast<int>(kClients * kPerClient));
  EXPECT_EQ(service.GetStats().solved, kClients * kPerClient);
}

// --- Queue-full shedding --------------------------------------------------

std::atomic<bool> g_release_slow{false};

/// Registry-injected algorithm that parks its worker until the test opens
/// the gate (bounded by a safety timeout so a bug cannot hang the suite).
class SlowBlockAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "slow_block"; }
  ProblemKind kind() const override { return ProblemKind::kBaseline; }
  std::string_view description() const override {
    return "test-only: blocks until released";
  }
  Status ValidateRequest(const Request&) const override { return Status::OK(); }
  Result<Response> Run(Rng&, const Request&, BudgetSession&) const override {
    const auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
    while (!g_release_slow.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    return Response{};
  }
};

TEST(HttpServerTest, FullAdmissionQueueShedsWith503QueueFull) {
  AlgorithmRegistry registry;
  ASSERT_OK(registry.Register(std::make_unique<SlowBlockAlgorithm>()));
  ServiceOptions service_options;
  service_options.registry = &registry;
  ClusterService service(service_options);
  HttpServerOptions options;
  options.workers = 1;      // One drain loop...
  options.queue_depth = 1;  // ...and room for exactly one waiting connection.
  HttpServer server(&service, options);
  ASSERT_OK(server.Start());

  g_release_slow.store(false, std::memory_order_release);
  const std::string slow_body =
      R"({"dataset": "d", "algorithm": "slow_block", "points": [[0.5]],)"
      R"( "t": 1})";
  std::vector<std::thread> blocked;
  std::atomic<int> slow_ok{0};
  // First request occupies the worker; second fills the queue.
  for (int i = 0; i < 2; ++i) {
    blocked.emplace_back([&] {
      const auto reply = HttpPost(server.port(), "/v1/solve", slow_body);
      if (reply.ok() && reply->status == 200) {
        slow_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::this_thread::sleep_for(milliseconds(150));
  }

  // The next connection finds the queue full: the accept loop itself
  // answers the structured 503 without admitting it. (Assertions wait
  // until the parked threads are joined.)
  const auto shed = HttpPost(server.port(), "/v1/solve", slow_body);

  g_release_slow.store(true, std::memory_order_release);
  for (std::thread& t : blocked) t.join();
  server.Stop();

  ASSERT_OK(shed.status());
  EXPECT_EQ(shed->status, 503);
  EXPECT_EQ(MustParse(shed->body).Find("error")->Find("code")->AsString(),
            "QueueFull");
  EXPECT_EQ(slow_ok.load(), 2);  // Admitted requests were never dropped.
  EXPECT_GE(server.GetStats().shed, 1u);
}

// --- Graceful shutdown ----------------------------------------------------

TEST(HttpServerTest, RemoteShutdownDrainsAndStops) {
  ClusterService service;
  HttpServer server(&service, HttpServerOptions{});
  ASSERT_OK(server.Start());
  const int port = server.port();

  ASSERT_OK_AND_ASSIGN(const HttpResponse ack,
                       HttpPost(port, "/v1/shutdown", ""));
  EXPECT_EQ(ack.status, 200);
  EXPECT_EQ(MustParse(ack.body).Find("status")->AsString(), "draining");
  EXPECT_TRUE(service.shutdown_requested());

  // While draining, a solve that is already in flight is refused with the
  // structured 503 (the accept loop stops taking NEW connections, so the
  // drain window is exercised at the service seam).
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance workload, SmallWorkload());
  const ServiceReply refused = service.Handle(
      "POST", "/v1/solve", SolveBody(workload, "nonprivate", "late", "d"));
  EXPECT_EQ(refused.http_status, 503);
  EXPECT_EQ(MustParse(refused.body).Find("error")->Find("code")->AsString(),
            "ShuttingDown");

  server.Stop();
  EXPECT_FALSE(server.running());
  // The port is actually released: a fresh connection cannot reach it.
  EXPECT_FALSE(HttpGet(port, "/healthz").ok());
}

TEST(HttpServerTest, RemoteShutdownCanBeDisabled) {
  ServiceOptions options;
  options.allow_remote_shutdown = false;
  ClusterService service(options);
  const ServiceReply reply = service.Handle("POST", "/v1/shutdown", "");
  EXPECT_EQ(reply.http_status, 404);
  EXPECT_FALSE(service.shutdown_requested());
}

/// Sends `request` verbatim on a fresh loopback connection, half-closes,
/// reads until the server closes, and returns the first reply's HTTP status
/// (0 when no status line arrived).
int RawExchangeStatus(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string reply;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
          0 &&
      ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(request.size())) {
    ::shutdown(fd, SHUT_WR);
    char chunk[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
      reply.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  if (reply.compare(0, 9, "HTTP/1.1 ") != 0 || reply.size() < 12) return 0;
  return std::stoi(reply.substr(9, 3));
}

TEST(HttpServerTest, AmbiguousBodyFramingIsRejectedWith400) {
  ClusterService service(UnmeteredOptions());
  HttpServerOptions options;
  options.workers = 2;
  HttpServer server(&service, options);
  ASSERT_OK(server.Start());
  const auto status = [&](const std::string& headers, const std::string& body) {
    return RawExchangeStatus(server.port(),
                             "GET /healthz HTTP/1.1\r\nHost: x\r\n" +
                                 headers + "Connection: close\r\n\r\n" +
                                 body);
  };
  // 2^64 + 1 must not wrap around to a 1-byte body.
  EXPECT_EQ(status("Content-Length: 18446744073709551617\r\n", "x"), 400);
  EXPECT_EQ(status("Content-Length: abc\r\n", ""), 400);
  EXPECT_EQ(status("Content-Length: 1x\r\n", "x"), 400);
  EXPECT_EQ(status("Content-Length: -1\r\n", ""), 400);
  EXPECT_EQ(status("Content-Length:\r\n", ""), 400);
  EXPECT_EQ(status("Content-Length: 0\r\nContent-Length: 5\r\n", "hello"),
            400);
  EXPECT_EQ(status("Transfer-Encoding: chunked\r\n", "0\r\n\r\n"), 400);
  EXPECT_EQ(status("transfer-encoding: identity\r\nContent-Length: 0\r\n", ""),
            400);
  // Well-formed framing still serves, identical duplicates included.
  EXPECT_EQ(status("Content-Length: 2\r\n", "ok"), 200);
  EXPECT_EQ(status("Content-Length:  2 \r\nContent-Length: 2\r\n", "ok"), 200);
  EXPECT_EQ(status("", ""), 200);
  server.Stop();
}

// --- BoundedQueue ---------------------------------------------------------

TEST(BoundedQueueTest, TryPushShedsAtCapacityAndCloseDrains) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full -> shed
  EXPECT_EQ(queue.size(), 2u);

  queue.Close();
  EXPECT_FALSE(queue.TryPush(4));  // closed -> refused
  EXPECT_EQ(queue.Pop(), 1);       // already-admitted items still drain
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

TEST(BoundedQueueTest, PopBlocksUntilWorkOrClose) {
  BoundedQueue<int> queue(1);
  std::thread consumer([&] {
    EXPECT_EQ(queue.Pop(), 42);
    EXPECT_EQ(queue.Pop(), std::nullopt);
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_TRUE(queue.TryPush(42));
  std::this_thread::sleep_for(milliseconds(20));
  queue.Close();
  consumer.join();
}

}  // namespace
}  // namespace dpcluster
