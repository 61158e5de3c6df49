// Service daemon throughput: the full stack (HTTP/1.1 over loopback ->
// bounded admission queue -> ThreadPool drain -> ClusterService ->
// Solver) under mixed multi-tenant traffic, swept over worker counts.
//
// Traffic mix (per client, round-robin): one_cluster on a planted 2-d
// cluster, noisy_mean_baseline, nonprivate, interior_point on 1-d data,
// and exp_mech_baseline on a coarse grid. Each client is its own tenant
// with its own dataset key, so the run exercises the per-(tenant, dataset)
// ledgers and the keyed index cache concurrently. Budgets are set huge so
// no request is budget-rejected — rejection behavior is service_test's
// job; this harness measures throughput.
//
// `--smoke` runs the perf regression gate instead (exit 1 on a miss). The
// scaling floor is HARDWARE-AWARE: the ThreadPool caps workers at the core
// count, so the 8-worker/1-worker throughput ratio physically cannot reach
// 4x on fewer than 8 cores. The floor is
//     cores >= 8:  4.0x
//     cores >= 2:  0.45 * min(8, cores)
//     cores == 1:  0.80x (no-regression: queueing must not cost throughput)
// and every reply in the sweep must be HTTP 200. BENCH_service.json records
// the measured requests/second per worker count plus a "service/cores" row,
// so the floor context travels with the numbers (see docs/OPERATIONS.md).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/random/rng.h"
#include "dpcluster/service/http_client.h"
#include "dpcluster/service/http_server.h"
#include "dpcluster/service/json.h"
#include "dpcluster/service/protocol.h"
#include "dpcluster/service/service.h"

namespace dpcluster {
namespace {

constexpr std::size_t kClients = 8;

/// Pre-encoded wire bodies for one client (its own tenant + dataset key).
std::vector<std::string> ClientBodies(std::uint64_t client) {
  Rng rng(1000 + client);
  std::vector<std::string> bodies;

  const ScenarioInstance cluster =
      GenerateScenario(rng, {.n = 512, .dim = 2, .levels = 1u << 10,
                             .cluster_radius = 0.02,
                             .cluster_fraction = (192 + 0.5) / 512})
          .value();
  // interior_point solves 1-cluster on a middle sub-database of n/2 points;
  // it needs the larger 1-d instance to stay reliably answerable at eps=8.
  const ScenarioInstance interior =
      GenerateScenario(rng, {.n = 1200, .dim = 1, .levels = 1u << 10,
                             .cluster_radius = 0.015,
                             .cluster_fraction = (700 + 0.5) / 1200})
          .value();
  // exp_mech_baseline enumerates all |X|^d grid centers; keep it under the
  // documented center cap with a coarse 2-d universe.
  const ScenarioInstance coarse2d =
      GenerateScenario(rng, {.n = 512, .dim = 2, .levels = 1u << 5,
                             .cluster_radius = 0.02,
                             .cluster_fraction = (192 + 0.5) / 512})
          .value();

  const std::string tenant = "tenant" + std::to_string(client);
  const auto encode = [&](const ScenarioInstance& w,
                          const std::string& algorithm,
                          const std::string& dataset_suffix) {
    WireRequest wire;
    wire.tenant = tenant;
    wire.dataset = tenant + "/" + dataset_suffix;
    wire.seed = 77 + client;
    wire.request.algorithm = algorithm;
    wire.request.data = w.points;
    wire.request.domain = w.domain;
    wire.request.t = w.t;
    wire.request.budget = {8.0, 1e-9};
    bodies.push_back(WireRequestToJson(wire).Encode());
  };
  encode(cluster, "one_cluster", "planted2d");
  encode(cluster, "noisy_mean_baseline", "planted2d");
  encode(cluster, "nonprivate", "planted2d");
  encode(interior, "interior_point", "line1d");
  encode(coarse2d, "exp_mech_baseline", "coarse2d");
  return bodies;
}

struct SweepPoint {
  std::size_t workers = 0;
  double requests_per_s = 0.0;
  bool all_ok = true;
};

/// Serves kClients concurrent clients, `per_client` requests each, against
/// a fresh daemon with `workers` drain loops; returns the measured rate.
SweepPoint RunSweep(std::size_t workers, std::size_t per_client,
                    const std::vector<std::vector<std::string>>& bodies) {
  ServiceOptions service_options;
  service_options.default_budget = {1e9, 0.5};  // Never budget-reject here.
  service_options.diagnostics = false;
  ClusterService service(service_options);
  HttpServerOptions http_options;
  http_options.workers = workers;
  http_options.queue_depth = 256;
  HttpServer server(&service, http_options);
  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "bench_service: %s\n",
                 std::string(status.message()).c_str());
    return {workers, 0.0, false};
  }

  std::atomic<bool> all_ok{true};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::string& body = bodies[c][i % bodies[c].size()];
        const auto reply = HttpPost(server.port(), "/v1/solve", body);
        if (!reply.ok() || reply->status != 200) {
          if (!all_ok.exchange(false, std::memory_order_relaxed)) continue;
          if (!reply.ok()) {
            std::fprintf(stderr, "  client %zu request %zu: transport: %s\n",
                         c, i, std::string(reply.status().message()).c_str());
          } else {
            std::fprintf(stderr, "  client %zu request %zu: HTTP %d: %.160s\n",
                         c, i, reply->status, reply->body.c_str());
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  server.Stop();
  const double total = static_cast<double>(kClients * per_client);
  return {workers, total / seconds, all_ok.load()};
}

std::vector<SweepPoint> RunAll(std::size_t per_client) {
  std::vector<std::vector<std::string>> bodies;
  for (std::size_t c = 0; c < kClients; ++c) {
    bodies.push_back(ClientBodies(c));
  }
  std::vector<SweepPoint> points;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    points.push_back(RunSweep(workers, per_client, bodies));
    std::printf("  workers=%zu: %7.1f req/s%s\n", points.back().workers,
                points.back().requests_per_s,
                points.back().all_ok ? "" : "  [non-200 replies!]");
  }
  return points;
}

/// One-shot vs kept-alive transport cost on the same daemon. The request is
/// GET /healthz — cheap enough that the TCP handshake dominates, so the
/// ratio isolates what connection reuse buys a chatty client (a streaming
/// ingester appending small batches is exactly that shape).
struct ReusePoint {
  double oneshot_rps = 0.0;
  double reuse_rps = 0.0;
  std::uint64_t reused = 0;       ///< Server-counted kept-alive requests.
  std::uint64_t reconnects = 0;   ///< Client-side re-dials (cap/idle fired).
  bool all_ok = true;
};

ReusePoint RunReuse(std::size_t requests) {
  ClusterService service(ServiceOptions{});
  HttpServerOptions http_options;
  http_options.workers = 2;
  HttpServer server(&service, http_options);
  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "bench_service: %s\n",
                 std::string(status.message()).c_str());
    return {0.0, 0.0, 0, 0, false};
  }
  ReusePoint point;

  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    const auto reply = HttpGet(server.port(), "/healthz");
    if (!reply.ok() || reply->status != 200) point.all_ok = false;
  }
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  point.oneshot_rps = static_cast<double>(requests) / seconds;

  HttpConnection connection(server.port());
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    const auto reply = connection.Get("/healthz");
    if (!reply.ok() || reply->status != 200) point.all_ok = false;
  }
  seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  point.reuse_rps = static_cast<double>(requests) / seconds;
  point.reconnects = connection.reconnects();
  point.reused = server.GetStats().reused;
  server.Stop();
  return point;
}

void Record(bench::JsonReporter& reporter,
            const std::vector<SweepPoint>& points) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  reporter.Add("service/cores", cores, 0, 1, 0.0);
  for (const SweepPoint& p : points) {
    reporter.Add("service/mixed_traffic", kClients, 2, p.workers,
                 p.requests_per_s > 0.0 ? 1e9 / p.requests_per_s : 0.0);
  }
}

void RecordReuse(bench::JsonReporter& reporter, const ReusePoint& reuse) {
  reporter.Add("service/oneshot_healthz", 1, 0, 1,
               reuse.oneshot_rps > 0.0 ? 1e9 / reuse.oneshot_rps : 0.0);
  reporter.Add("service/keepalive_healthz", 1, 0, 1,
               reuse.reuse_rps > 0.0 ? 1e9 / reuse.reuse_rps : 0.0);
}

void PrintReuse(const ReusePoint& reuse) {
  std::printf(
      "  connection reuse: one-shot %7.1f req/s, kept-alive %7.1f req/s "
      "(%.2fx); server reused %llu, client re-dialed %llu%s\n",
      reuse.oneshot_rps, reuse.reuse_rps,
      reuse.oneshot_rps > 0.0 ? reuse.reuse_rps / reuse.oneshot_rps : 0.0,
      static_cast<unsigned long long>(reuse.reused),
      static_cast<unsigned long long>(reuse.reconnects),
      reuse.all_ok ? "" : "  [non-200 replies!]");
}

/// The hardware-aware 8-worker/1-worker scaling floor (see file banner).
double ScalingFloor(std::size_t cores) {
  if (cores >= 8) return 4.0;
  if (cores >= 2) return 0.45 * static_cast<double>(std::min<std::size_t>(8, cores));
  return 0.8;
}

int RunSmoke(const std::string& out_path) {
  bench::Banner("service daemon throughput smoke");
  const std::vector<SweepPoint> points = RunAll(/*per_client=*/6);
  const ReusePoint reuse = RunReuse(/*requests=*/64);
  PrintReuse(reuse);
  bench::JsonReporter reporter(out_path);
  Record(reporter, points);
  RecordReuse(reporter, reuse);
  reporter.Write();

  int failures = 0;
  // Functional (deterministic) keep-alive gates: every reply is 200, and
  // the server actually served request #2+ on reused connections. The
  // req/s ratio itself is not a floor — loopback handshakes are cheap
  // enough that the margin is machine-dependent.
  if (!reuse.all_ok) {
    std::printf("smoke: keep-alive section saw a non-200 reply -> FAIL\n");
    ++failures;
  }
  if (reuse.reused == 0) {
    std::printf("smoke: server never reused a connection -> FAIL\n");
    ++failures;
  }
  for (const SweepPoint& p : points) {
    if (!p.all_ok) {
      std::printf("smoke: workers=%zu saw a non-200 reply -> FAIL\n",
                  p.workers);
      ++failures;
    }
  }
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const double scaling = points.front().requests_per_s > 0.0
                             ? points.back().requests_per_s /
                                   points.front().requests_per_s
                             : 0.0;
  const double floor = ScalingFloor(cores);
  const bool scaling_ok = scaling >= floor;
  std::printf(
      "smoke: mixed traffic, %zu clients on %zu cores: 1 worker %.1f req/s, "
      "8 workers %.1f req/s, scaling %.2fx (hardware-aware floor %.2fx) -> "
      "%s\n",
      kClients, cores, points.front().requests_per_s,
      points.back().requests_per_s, scaling, floor, scaling_ok ? "OK" : "FAIL");
  failures += scaling_ok ? 0 : 1;
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dpcluster

int main(int argc, char** argv) {
  using namespace dpcluster;
  std::string out = "BENCH_service.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }
  if (smoke) return RunSmoke(out);

  bench::Banner("service daemon throughput (mixed multi-tenant traffic)");
  const std::vector<SweepPoint> points = RunAll(/*per_client=*/12);
  const ReusePoint reuse = RunReuse(/*requests=*/512);
  PrintReuse(reuse);
  bench::JsonReporter reporter(out);
  Record(reporter, points);
  RecordReuse(reporter, reuse);
  reporter.Write();
  bench::Note(
      "\nEach of the 8 clients is its own tenant with its own dataset key;"
      "\nthe sweep exercises the admission queue, the per-tenant ledgers,"
      "\nand the keyed index cache concurrently. The ThreadPool hardware-"
      "\ncaps workers, so scaling saturates at the core count (the"
      "\n'service/cores' record pins the machine the numbers came from).");
  return 0;
}
