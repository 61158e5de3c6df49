#include "workloads.h"

#include <algorithm>
#include <utility>

#include "dpcluster/data/registry.h"
#include "dpcluster/random/rng.h"
#include "dpcluster/service/json.h"
#include "dpcluster/service/protocol.h"

namespace daemon_bench {

using dpcluster::JsonValue;
using dpcluster::PointSet;
using dpcluster::Result;
using dpcluster::ScenarioInstance;
using dpcluster::ScenarioSpec;
using dpcluster::Status;
using dpcluster::WireRequest;

namespace {

constexpr std::uint64_t kSeedSentinel = 1234567890987654321ULL;
constexpr const char* kTenant = "bench";

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Distinct non-zero solver seed per (stream, index): 0 would mean "the
/// server's default seed".
std::string SeedLexeme(std::uint64_t stream, std::uint64_t index) {
  return std::to_string((Mix(stream, index) >> 1) | 1);
}

Result<ScenarioInstance> Generate(std::uint64_t seed, ScenarioSpec spec) {
  dpcluster::Rng rng(seed);
  return dpcluster::GenerateScenario(rng, spec);
}

/// Encodes a solve request with the seed sentinel and splits it around it.
Result<BodyTemplate> SolveTemplate(const WireRequest& wire,
                                   const std::string& family) {
  WireRequest sentinel = wire;
  sentinel.seed = kSeedSentinel;
  const std::string body = dpcluster::WireRequestToJson(sentinel).Encode();
  const std::string needle = std::to_string(kSeedSentinel);
  const std::size_t at = body.find(needle);
  if (at == std::string::npos || body.find(needle, at + 1) != std::string::npos) {
    return Status::Internal("seed sentinel not found exactly once");
  }
  BodyTemplate t;
  t.prefix = body.substr(0, at);
  t.suffix = body.substr(at + needle.size());
  t.seeded = true;
  t.points = wire.request.data.size();
  t.label = wire.request.algorithm + " " + family;
  t.epsilon = wire.request.budget.epsilon;
  t.delta = wire.request.budget.delta;
  return t;
}

BodyTemplate PlainTemplate(const JsonValue& json, std::size_t points,
                           std::string label) {
  BodyTemplate t;
  t.prefix = json.Encode();
  t.points = points;
  t.label = std::move(label);
  return t;
}

JsonValue PointsJson(const PointSet& points, std::size_t begin,
                     std::size_t end) {
  JsonValue rows = JsonValue::Array();
  for (std::size_t i = begin; i < end; ++i) {
    JsonValue row = JsonValue::Array();
    for (const double x : points[i]) row.Append(JsonValue::Number(x));
    rows.Append(std::move(row));
  }
  return rows;
}

Result<Workload> MakeResidentSolve(std::uint64_t seed, double seconds) {
  // Client c owns two keys: a planted_cluster dataset (2c) and a
  // gaussian_mixture dataset (2c + 1), so the clients never contend for one
  // cache entry (no bypasses after warm-up). Both clients cycle the same
  // three requests, so every run has the same mix, one third each.
  struct Kind {
    std::size_t key_offset;  // 0 = the client's planted key, 1 = mixture key
    const char* algorithm;
  };
  static constexpr Kind kCycle[3] = {
      {0, "one_cluster"}, {1, "k_cluster"}, {1, "one_cluster"}};
  Workload w;
  w.name = "resident_solve";
  w.clients = 2;
  std::vector<WireRequest> datasets;
  for (std::size_t key = 0; key < 4; ++key) {
    ScenarioSpec spec;
    spec.scenario = key % 2 == 0 ? "planted_cluster" : "gaussian_mixture";
    spec.n = 4096;
    spec.dim = 2;
    DPC_ASSIGN_OR_RETURN(ScenarioInstance instance,
                         Generate(Mix(seed, 100 + key), spec));
    WireRequest wire;
    wire.tenant = kTenant;
    wire.dataset = "resident-" + std::to_string(key);
    wire.request.data = std::move(instance.points);
    wire.request.domain = instance.domain;
    wire.request.t = instance.t;
    datasets.push_back(std::move(wire));
  }
  // bodies[3 * c + i] is client c's i-th cycle entry.
  for (std::size_t c = 0; c < w.clients; ++c) {
    for (const Kind& kind : kCycle) {
      const std::size_t key = 2 * c + kind.key_offset;
      WireRequest wire = datasets[key];
      wire.request.algorithm = kind.algorithm;
      wire.request.budget = {2.0, 1e-6};
      if (wire.request.algorithm == "k_cluster") {
        // k = 4 balls of 512 points each; the per-round budget must let
        // every round release (eps 8 over 4 rounds).
        wire.request.k = 4;
        wire.request.t = 512;
        wire.request.budget = {8.0, 1e-6};
      }
      DPC_ASSIGN_OR_RETURN(
          BodyTemplate body,
          SolveTemplate(wire, key % 2 == 0 ? "planted_cluster"
                                           : "gaussian_mixture"));
      w.bodies.push_back(std::move(body));
    }
  }
  const std::size_t per_client =
      16 + static_cast<std::size_t>(seconds * 20.0);
  // Warm-up: the first pass over each key with its cheaper request. Set-up
  // repeats (fresh daemon each time) so setup_s can be a median.
  constexpr std::size_t kSetupReps = 3;
  w.setup.resize(kSetupReps);
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    w.setup[rep].resize(w.clients);
    for (std::size_t c = 0; c < w.clients; ++c) {
      for (std::uint32_t i : {0u, 1u}) {
        w.setup[rep][c].push_back({OpKind::kSolve,
                                   static_cast<std::uint32_t>(3 * c + i),
                                   SeedLexeme(Mix(seed, 1000 + rep), 3 * c + i),
                                   0});
      }
    }
  }
  w.ops.resize(w.clients);
  for (std::size_t c = 0; c < w.clients; ++c) {
    for (std::size_t i = 0; i < per_client; ++i) {
      w.ops[c].push_back({OpKind::kSolve,
                          static_cast<std::uint32_t>(3 * c + i % 3),
                          SeedLexeme(Mix(seed, 2000 + c), i), 0});
    }
  }
  return w;
}

Result<Workload> MakeBulk1d(std::uint64_t seed, double seconds) {
  constexpr std::size_t kKeys = 16;
  Workload w;
  w.name = "bulk_1d";
  w.clients = 2;
  for (std::size_t key = 0; key < kKeys; ++key) {
    ScenarioSpec spec;
    spec.scenario = "planted_cluster";
    spec.n = 65536;
    spec.dim = 1;
    DPC_ASSIGN_OR_RETURN(ScenarioInstance instance,
                         Generate(Mix(seed, 100 + key), spec));
    WireRequest wire;
    wire.tenant = kTenant;
    wire.dataset = "bulk-" + std::to_string(key);
    wire.request.algorithm = "threshold_release_1d";
    wire.request.data = std::move(instance.points);
    wire.request.domain = instance.domain;
    wire.request.t = instance.t;
    wire.request.budget = {2.0, 0.0};  // Pure epsilon-DP: charges no delta.
    DPC_ASSIGN_OR_RETURN(BodyTemplate body,
                         SolveTemplate(wire, spec.scenario));
    w.bodies.push_back(std::move(body));
  }
  // Client c cycles keys [8c, 8c + 8): 16 keys through 8 cache slots.
  const std::size_t per_client =
      16 + static_cast<std::size_t>(seconds * 200.0);
  constexpr std::size_t kSetupReps = 7;
  w.setup.resize(kSetupReps);
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    w.setup[rep].resize(w.clients);
    for (std::size_t c = 0; c < w.clients; ++c) {
      for (std::uint32_t j = 0; j < kKeys / 2; ++j) {
        const std::uint32_t key = static_cast<std::uint32_t>(c * 8 + j);
        w.setup[rep][c].push_back(
            {OpKind::kSolve, key, SeedLexeme(Mix(seed, 1000 + rep), key), 0});
      }
    }
  }
  w.ops.resize(w.clients);
  for (std::size_t c = 0; c < w.clients; ++c) {
    for (std::size_t i = 0; i < per_client; ++i) {
      const std::uint32_t key = static_cast<std::uint32_t>(c * 8 + i % 8);
      w.ops[c].push_back(
          {OpKind::kSolve, key, SeedLexeme(Mix(seed, 2000 + c), i), 0});
    }
  }
  return w;
}

Result<Workload> MakeStreamIngest(std::uint64_t seed, double seconds) {
  constexpr std::size_t kLive = 4096;
  constexpr std::size_t kBatch = 256;
  constexpr std::size_t kSolveEvery = 16;
  // Filling the stream takes milliseconds: many repetitions cost nothing
  // and steady the median.
  constexpr std::size_t kSetupReps = 25;
  const std::string key = "stream-0";
  Workload w;
  w.name = "stream_ingest";
  w.clients = 1;
  w.stream_live = kLive;

  const std::size_t ticks = 64 + static_cast<std::size_t>(seconds * 150.0);
  const std::size_t rows_needed = kLive + ticks * kBatch;
  ScenarioSpec spec;
  spec.scenario = "streaming";
  spec.n = kLive;
  spec.dim = 2;
  spec.ticks = 8;
  std::size_t solve_t = 0;
  for (std::uint64_t epoch = 0; w.stream_rows.size() < rows_needed; ++epoch) {
    DPC_ASSIGN_OR_RETURN(ScenarioInstance instance,
                         Generate(Mix(seed, 100 + epoch), spec));
    if (epoch == 0) {
      w.stream_domain = instance.domain;
      solve_t = instance.t;
    }
    const PointSet& arrivals = instance.stream.arrivals;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      w.stream_rows.Add(arrivals[i]);
    }
  }

  // Bodies: [0, fill) fill appends, then one append per tick, then the
  // shared expire body and the stream-solve template.
  const auto append_body = [&](std::size_t begin, bool create) {
    JsonValue json = JsonValue::Object();
    json.Set("dataset", JsonValue::String(key));
    json.Set("points", PointsJson(w.stream_rows, begin, begin + kBatch));
    if (create) {
      json.Set("levels", JsonValue::Number(w.stream_domain.levels()));
      json.Set("axis", JsonValue::Number(w.stream_domain.axis_length()));
    }
    w.bodies.push_back(PlainTemplate(json, kBatch, "append"));
  };
  const std::size_t fill = kLive / kBatch;
  for (std::size_t b = 0; b < fill; ++b) append_body(b * kBatch, b == 0);
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    append_body(kLive + tick * kBatch, false);
  }
  const std::uint32_t expire_body = static_cast<std::uint32_t>(w.bodies.size());
  {
    JsonValue json = JsonValue::Object();
    json.Set("dataset", JsonValue::String(key));
    json.Set("count", JsonValue::Number(static_cast<std::uint64_t>(kBatch)));
    w.bodies.push_back(PlainTemplate(json, 0, "expire"));
  }
  const std::uint32_t solve_body = static_cast<std::uint32_t>(w.bodies.size());
  {
    WireRequest wire;
    wire.tenant = kTenant;
    wire.dataset = key;
    wire.stream = true;
    wire.request.algorithm = "one_cluster";
    wire.request.t = solve_t;
    wire.request.budget = {2.0, 1e-6};
    DPC_ASSIGN_OR_RETURN(BodyTemplate body, SolveTemplate(wire, "stream"));
    w.bodies.push_back(std::move(body));
  }

  w.setup.resize(kSetupReps);
  for (auto& rep : w.setup) {
    rep.resize(1);
    for (std::uint32_t b = 0; b < fill; ++b) {
      rep[0].push_back({OpKind::kAppend, b, "", 0});
    }
  }
  w.ops.resize(1);
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    w.ops[0].push_back(
        {OpKind::kAppend, static_cast<std::uint32_t>(fill + tick), "", 0});
    w.ops[0].push_back({OpKind::kExpire, expire_body, "", 0});
    if ((tick + 1) % kSolveEvery == 0) {
      w.ops[0].push_back({OpKind::kStreamSolve, solve_body,
                          SeedLexeme(Mix(seed, 2000), tick),
                          (tick + 1) * kBatch});
    }
  }
  return w;
}

}  // namespace

const char* PathOf(OpKind kind) {
  switch (kind) {
    case OpKind::kSolve:
    case OpKind::kStreamSolve: return "/v1/solve";
    case OpKind::kAppend: return "/v1/stream/append";
    case OpKind::kExpire: return "/v1/stream/expire";
  }
  return "/";
}

bool IsSolve(OpKind kind) {
  return kind == OpKind::kSolve || kind == OpKind::kStreamSolve;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"resident_solve", "bulk_1d",
                                                 "stream_ingest"};
  return names;
}

Result<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                              double seconds) {
  if (name == "resident_solve") return MakeResidentSolve(seed, seconds);
  if (name == "bulk_1d") return MakeBulk1d(seed, seconds);
  if (name == "stream_ingest") return MakeStreamIngest(seed, seconds);
  return Status::InvalidArgument("unknown workload \"" + name + "\"");
}

}  // namespace daemon_bench
