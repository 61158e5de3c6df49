// Golden digests of the released bytes on the default paths. Every reply the
// daemon's three benchmark request shapes produce (resident keys, a 1-d bulk
// body, a stream's append / expire / solve ticks), every registered
// algorithm through the Solver façade at dpcluster_cli's demo configuration,
// and the coreset path through both the façade and the daemon, are hashed
// (FNV-1a, one digest per label) and compared against
// tests/golden/replies.txt. `wall_ms` and `queue_ms` are masked: they time
// the run, they are not part of what it computes.
//
// A failure names every label whose bytes moved. When a change moves bytes
// on purpose, rewrite the file and name the moved labels in the change's
// description:
//
//   ./build/golden_replies_test --regenerate

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dpcluster/api/solver.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/random/rng.h"
#include "dpcluster/service/json.h"
#include "dpcluster/service/protocol.h"
#include "dpcluster/service/service.h"
#include "test_util.h"

#ifndef DPCLUSTER_GOLDEN_REPLIES
#error "DPCLUSTER_GOLDEN_REPLIES must name tests/golden/replies.txt"
#endif

namespace dpcluster {
namespace {

using Digests = std::map<std::string, std::string>;

bool Regenerating() {
  for (const std::string& arg : ::testing::internal::GetArgvs()) {
    if (arg == "--regenerate") return true;
  }
  return false;
}

/// Replaces the value of every `"wall_ms":` / `"queue_ms":` member with 0.
std::string MaskTimings(std::string body) {
  for (const char* key : {"\"wall_ms\":", "\"queue_ms\":"}) {
    for (std::size_t at = body.find(key); at != std::string::npos;
         at = body.find(key, at)) {
      at += std::strlen(key);
      const std::size_t end = body.find_first_of(",}", at);
      body.replace(at, end - at, "0");
    }
  }
  return body;
}

std::string Fnv1aHex(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const unsigned char c : bytes) hash = (hash ^ c) * 1099511628211ULL;
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

std::string ReplyBytes(const ServiceReply& reply) {
  return std::to_string(reply.http_status) + " " + MaskTimings(reply.body);
}

std::string ResponseBytes(const Result<Response>& response) {
  if (!response.ok()) return "error " + response.status().ToString();
  return MaskTimings(ResponseToJson(*response).Encode());
}

Digests LoadGolden() {
  Digests golden;
  std::ifstream in(DPCLUSTER_GOLDEN_REPLIES);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string label, digest;
    fields >> label >> digest;
    golden[label] = digest;
  }
  return golden;
}

/// Compares the group's digests (every label starts with `group` + "/")
/// against the committed file, or rewrites the group's lines under
/// --regenerate.
void CheckGroup(const std::string& group, const Digests& got) {
  const std::string prefix = group + "/";
  Digests golden = LoadGolden();
  if (Regenerating()) {
    std::erase_if(golden, [&](const auto& entry) {
      return entry.first.starts_with(prefix);
    });
    golden.insert(got.begin(), got.end());
    std::ofstream out(DPCLUSTER_GOLDEN_REPLIES);
    out << "# FNV-1a digests of reply bytes (wall_ms/queue_ms masked), one "
           "per label.\n"
           "# Written by tests/golden_replies_test.cc: golden_replies_test "
           "--regenerate\n";
    for (const auto& [label, digest] : golden) {
      out << label << " " << digest << "\n";
    }
    ASSERT_TRUE(out.good()) << "cannot write " << DPCLUSTER_GOLDEN_REPLIES;
    return;
  }
  std::vector<std::string> moved;
  for (const auto& [label, digest] : got) {
    ASSERT_TRUE(label.starts_with(prefix)) << label;
    const auto it = golden.find(label);
    if (it == golden.end()) {
      moved.push_back(label + " (no golden line)");
    } else if (it->second != digest) {
      moved.push_back(label + " (" + it->second + " -> " + digest + ")");
    }
  }
  for (const auto& [label, digest] : golden) {
    if (label.starts_with(prefix) && !got.contains(label)) {
      moved.push_back(label + " (not produced)");
    }
  }
  std::string shown;
  for (const std::string& label : moved) shown += "\n  " + label;
  EXPECT_TRUE(moved.empty()) << "released bytes moved for " << moved.size()
                             << " label(s):" << shown;
}

/// The daemon as the benchmark configures it: operator defaults with a
/// budget cap no test traffic reaches.
ServiceOptions BenchOptions() {
  ServiceOptions options;
  options.default_budget = {1e12, 1.0};
  return options;
}

ScenarioInstance Generate(std::uint64_t seed, const ScenarioSpec& spec) {
  Rng rng(seed);
  auto instance = GenerateScenario(rng, spec);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return std::move(instance).value();
}

WireRequest ResidentRequest(const ScenarioInstance& instance,
                            const std::string& dataset) {
  WireRequest wire;
  wire.tenant = "bench";
  wire.dataset = dataset;
  wire.request.data = instance.points;
  wire.request.domain = instance.domain;
  wire.request.t = instance.t;
  return wire;
}

std::string SolveBody(WireRequest wire, std::uint64_t seed) {
  wire.seed = seed;
  return WireRequestToJson(wire).Encode();
}

// The resident_solve shape on two of its four keys: one planted and one
// mixture key (n = 4096),
// one_cluster on each and k_cluster (k = 4) on the mixture. Every request
// is sent twice, so both the cache's build and its hit are pinned.
TEST(GoldenRepliesTest, ResidentKeys) {
  ClusterService service(BenchOptions());
  std::vector<WireRequest> keys;
  for (std::uint64_t key = 0; key < 2; ++key) {
    keys.push_back(ResidentRequest(
        Generate(100 + key,
                 {.scenario = key == 0 ? "planted_cluster" : "gaussian_mixture",
                  .n = 4096,
                  .dim = 2}),
        "resident-" + std::to_string(key)));
  }
  struct Kind {
    std::size_t key;
    const char* algorithm;
  };
  Digests got;
  for (const Kind kind : {Kind{0, "one_cluster"}, Kind{1, "k_cluster"},
                          Kind{1, "one_cluster"}}) {
    WireRequest wire = keys[kind.key];
    wire.request.algorithm = kind.algorithm;
    wire.request.budget = {2.0, 1e-6};
    if (wire.request.algorithm == "k_cluster") {
      wire.request.k = 4;
      wire.request.t = 512;
      wire.request.budget = {8.0, 1e-6};
    }
    for (const std::uint64_t seed : {11u, 12u}) {
      got["resident/" + wire.dataset + "/" + kind.algorithm + "/seed" +
          std::to_string(seed)] =
          Fnv1aHex(ReplyBytes(
              service.Handle("POST", "/v1/solve", SolveBody(wire, seed))));
    }
  }
  CheckGroup("resident", got);
}

// The bulk_1d shape at n = 8192: a 1-d planted body for threshold_release_1d.
TEST(GoldenRepliesTest, Bulk1d) {
  ClusterService service(BenchOptions());
  WireRequest wire = ResidentRequest(
      Generate(200, {.n = 8192, .dim = 1}), "bulk-0");
  wire.request.algorithm = "threshold_release_1d";
  wire.request.budget = {2.0, 0.0};
  Digests got;
  for (const std::uint64_t seed : {21u, 22u}) {
    got["bulk_1d/seed" + std::to_string(seed)] = Fnv1aHex(
        ReplyBytes(service.Handle("POST", "/v1/solve", SolveBody(wire, seed))));
  }
  CheckGroup("bulk_1d", got);
}

// The stream_ingest shape at 2048 live rows: fill, then 16 ticks of one
// 512-row append and one 512-row expire, with a stream solve every 4th tick.
// The stream compacts at tick 13 (live / total falls below 0.25).
TEST(GoldenRepliesTest, StreamTicks) {
  constexpr std::size_t kLive = 2048;
  constexpr std::size_t kBatch = 512;
  constexpr std::size_t kTicks = 16;
  ClusterService service(BenchOptions());
  PointSet rows(2);
  GridDomain domain(2, 2);
  std::size_t solve_t = 0;
  for (std::uint64_t epoch = 0; rows.size() < kLive + kTicks * kBatch;
       ++epoch) {
    const ScenarioInstance instance =
        Generate(300 + epoch, {.scenario = "streaming", .n = kLive, .dim = 2});
    if (epoch == 0) {
      domain = instance.domain;
      solve_t = instance.t;
    }
    for (std::size_t i = 0; i < instance.stream.arrivals.size(); ++i) {
      rows.Add(instance.stream.arrivals[i]);
    }
  }
  const auto append = [&](std::size_t begin, bool create) {
    JsonValue json = JsonValue::Object();
    json.Set("dataset", JsonValue::String("stream-0"));
    JsonValue points = JsonValue::Array();
    for (std::size_t i = begin; i < begin + kBatch; ++i) {
      JsonValue row = JsonValue::Array();
      for (const double x : rows[i]) row.Append(JsonValue::Number(x));
      points.Append(std::move(row));
    }
    json.Set("points", std::move(points));
    if (create) {
      json.Set("levels", JsonValue::Number(domain.levels()));
      json.Set("axis", JsonValue::Number(domain.axis_length()));
    }
    return Fnv1aHex(ReplyBytes(
        service.Handle("POST", "/v1/stream/append", json.Encode())));
  };
  const std::string expire =
      R"({"dataset":"stream-0","count":)" + std::to_string(kBatch) + "}";
  WireRequest solve;
  solve.tenant = "bench";
  solve.dataset = "stream-0";
  solve.stream = true;
  solve.request.algorithm = "one_cluster";
  solve.request.t = solve_t;
  solve.request.budget = {2.0, 1e-6};

  Digests got;
  for (std::size_t b = 0; b < kLive / kBatch; ++b) {
    got["stream/fill" + std::to_string(b)] = append(b * kBatch, b == 0);
  }
  for (std::size_t tick = 0; tick < kTicks; ++tick) {
    char name[32];
    std::snprintf(name, sizeof(name), "stream/tick%02zu/", tick);
    got[std::string(name) + "append"] = append(kLive + tick * kBatch, false);
    got[std::string(name) + "expire"] = Fnv1aHex(
        ReplyBytes(service.Handle("POST", "/v1/stream/expire", expire)));
    if ((tick + 1) % 4 == 0) {
      got[std::string(name) + "solve"] = Fnv1aHex(ReplyBytes(service.Handle(
          "POST", "/v1/solve", SolveBody(solve, 31 + tick))));
    }
  }
  CheckGroup("stream", got);
}

// Every registered algorithm through the Solver façade at dpcluster_cli
// --demo's defaults (seed 2016, eps 2, delta 1e-9, |X| = 65536, no lent
// index): the released bytes the CLI prints.
TEST(GoldenRepliesTest, SolverDemo) {
  Digests got;
  for (const std::string& algorithm : AlgorithmRegistry::Global().Names()) {
    const bool line =
        algorithm == "interior_point" || algorithm == "threshold_release_1d";
    Rng demo_rng(2016 ^ 0x9E3779B97F4A7C15ULL);
    auto demo = GenerateScenario(
        demo_rng, {.n = 4096, .dim = line ? 1u : 2u, .levels = 1u << 16,
                   .cluster_radius = 0.02,
                   .cluster_fraction = (1500 + 0.5) / 4096});
    ASSERT_TRUE(demo.ok()) << demo.status().ToString();
    Request request;
    request.algorithm = algorithm;
    request.budget = {2.0, 1e-9};
    request.data = demo->points;
    request.domain = demo->domain;
    request.t = demo->t;
    Solver solver(SolverOptions{.seed = 2016});
    got["solver_demo/" + algorithm] =
        Fnv1aHex(ResponseBytes(solver.Run(request)));
  }
  CheckGroup("solver_demo", got);
}

// The coreset stage on (coreset_min_points <= n, a 256-row summary) for the
// three algorithms that read it, through the façade with no lent index and
// through the daemon's cached summary; the daemon's second solve of a key
// reuses the cached summary. A request below coreset_min_points pins the
// uncompressed path with the knob on.
TEST(GoldenRepliesTest, CoresetOn) {
  const ScenarioInstance instance = Generate(
      400, {.n = 2048, .dim = 2, .cluster_radius = 0.02,
            .cluster_fraction = (600 + 0.5) / 2048});
  const auto make = [&](const std::string& algorithm,
                        std::size_t min_points) {
    Request request;
    request.algorithm = algorithm;
    request.data = instance.points;
    request.domain = instance.domain;
    request.t = instance.t;
    request.budget = {4.0, 1e-6};
    if (algorithm == "k_cluster") {
      request.k = 2;
      request.t = 0;
      request.budget = {8.0, 1e-6};
    }
    request.tuning.coreset = true;
    request.tuning.coreset_min_points = min_points;
    request.tuning.coreset_target_size = 256;
    return request;
  };
  ClusterService service(BenchOptions());
  Digests got;
  for (const char* algorithm : {"one_cluster", "k_cluster", "outlier_screen"}) {
    for (const std::size_t min_points : {std::size_t{1024}, std::size_t{4096}}) {
      const std::string below = min_points > instance.points.size()
                                    ? "/below_min_points"
                                    : "";
      Solver solver(SolverOptions{.seed = 2016});
      got["coreset/solver/" + std::string(algorithm) + below] =
          Fnv1aHex(ResponseBytes(solver.Run(make(algorithm, min_points))));
      WireRequest wire;
      wire.tenant = "bench";
      wire.dataset = "coreset-" + std::string(algorithm) + below;
      wire.request = make(algorithm, min_points);
      for (const std::uint64_t seed : {41u, 42u}) {
        got["coreset/handle/" + std::string(algorithm) + below + "/seed" +
            std::to_string(seed)] = Fnv1aHex(ReplyBytes(service.Handle(
            "POST", "/v1/solve", SolveBody(wire, seed))));
      }
    }
  }
  CheckGroup("coreset", got);
}

}  // namespace
}  // namespace dpcluster
