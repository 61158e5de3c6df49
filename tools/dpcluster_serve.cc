// dpcluster_serve — the resident dpcluster daemon: a multi-tenant HTTP
// server over the Solver façade, with per-(tenant, dataset) privacy budget
// enforcement and a keyed cache of shared geometry indexes.
//
// Usage:
//   dpcluster_serve [--port P] [--workers W] [--queue-depth Q] ...
//
// The daemon binds 127.0.0.1 only. Wire protocol, capacity planning, and
// the full flag reference live in docs/OPERATIONS.md; per-request tuning
// knobs in docs/TUNING.md.
//
// Options:
//   --port P            TCP port; 0 picks an ephemeral port (default 8777)
//   --workers W         drain loops offered to the thread pool  (default 4)
//   --queue-depth Q     admission queue capacity; overload sheds
//                       503 QueueFull at the door               (default 64)
//   --max-requests-per-connection N   keep-alive requests served per
//                       socket before Connection: close        (default 100)
//   --idle-timeout-ms T close a kept-alive connection after T ms
//                       without a new request                 (default 5000)
//   --budget-eps E      default per-(tenant, dataset) epsilon cap (default 4)
//   --budget-delta D    default per-(tenant, dataset) delta cap (default 1e-6)
//   --tenant-budget T=E:D   cap override for tenant T (repeatable), e.g.
//                       --tenant-budget alice=2.5:1e-7
//   --cache-capacity C  resident shared indexes in the LRU cache (default 8)
//   --max-points N      hard cap on points per request    (default 1048576)
//   --seed S            solver seed for requests with seed=0  (default 2016)
//   --no-diagnostics    skip utility diagnostics on every solve
//   --no-remote-shutdown  ignore POST /v1/shutdown (SIGINT/SIGTERM only)
//
// Shutdown: SIGINT/SIGTERM (or POST /v1/shutdown) drains gracefully —
// admitted requests finish, then the daemon exits printing its counters.

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <type_traits>

#include "dpcluster/service/http_server.h"
#include "dpcluster/service/service.h"

namespace {

using namespace dpcluster;

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int) { g_signal = 1; }

void Usage() {
  std::fprintf(
      stderr,
      "usage: dpcluster_serve [--port P] [--workers W] [--queue-depth Q]\n"
      "       [--max-requests-per-connection N] [--idle-timeout-ms T]\n"
      "       [--budget-eps E] [--budget-delta D] [--tenant-budget T=E:D]\n"
      "       [--cache-capacity C] [--max-points N] [--seed S]\n"
      "       [--no-diagnostics] [--no-remote-shutdown]\n"
      "see docs/OPERATIONS.md for the wire protocol and capacity planning\n");
}

struct ServeOptions {
  int port = 8777;
  HttpServerOptions http;
  ServiceOptions service;
};

// Parses the whole of `text` as a T: no trailing characters, no sign on an
// unsigned T, no overflow, and a finite value for a floating-point T.
template <typename T>
bool ParseNumber(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

bool ParseTenantBudget(std::string_view spec, ServiceOptions& service) {
  // T=E:D
  const std::size_t eq = spec.find('=');
  const std::size_t colon = spec.find(':', eq);
  if (eq == 0 || eq == std::string_view::npos ||
      colon == std::string_view::npos) {
    return false;
  }
  PrivacyParams budget;
  if (!ParseNumber(spec.substr(eq + 1, colon - eq - 1), budget.epsilon) ||
      !ParseNumber(spec.substr(colon + 1), budget.delta) ||
      !budget.Validate().ok()) {
    return false;
  }
  service.tenant_budgets[std::string(spec.substr(0, eq))] = budget;
  return true;
}

bool ParseArgs(int argc, char** argv, ServeOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    // The flag's value, parsed whole; false on a missing or malformed value.
    const auto number = [&](auto& out) {
      const char* v = next();
      return v != nullptr && ParseNumber(v, out);
    };
    bool ok = true;
    if (arg == "--help" || arg == "-h") {
      return false;
    } else if (arg == "--no-diagnostics") {
      opt.service.diagnostics = false;
    } else if (arg == "--no-remote-shutdown") {
      opt.service.allow_remote_shutdown = false;
    } else if (arg == "--port") {
      ok = number(opt.port);
    } else if (arg == "--workers") {
      ok = number(opt.http.workers);
    } else if (arg == "--queue-depth") {
      ok = number(opt.http.queue_depth);
    } else if (arg == "--max-requests-per-connection") {
      ok = number(opt.http.max_requests_per_connection);
    } else if (arg == "--idle-timeout-ms") {
      ok = number(opt.http.idle_timeout_ms);
    } else if (arg == "--budget-eps") {
      ok = number(opt.service.default_budget.epsilon);
    } else if (arg == "--budget-delta") {
      ok = number(opt.service.default_budget.delta);
    } else if (arg == "--tenant-budget") {
      const char* v = next();
      ok = v != nullptr && ParseTenantBudget(v, opt.service);
    } else if (arg == "--cache-capacity") {
      ok = number(opt.service.cache_capacity);
    } else if (arg == "--max-points") {
      ok = number(opt.service.max_points);
    } else if (arg == "--seed") {
      ok = number(opt.service.seed);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "malformed or missing value for %s\n",
                   arg.c_str());
      return false;
    }
  }
  return opt.port >= 0 && opt.port <= 65535 && opt.http.workers >= 1 &&
         opt.http.queue_depth >= 1 &&
         opt.http.max_requests_per_connection >= 1 &&
         opt.http.idle_timeout_ms >= 1 && opt.service.cache_capacity >= 1 &&
         opt.service.default_budget.Validate().ok();
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions opt;
  if (!ParseArgs(argc, argv, opt)) {
    Usage();
    return 2;
  }
  opt.http.port = opt.port;

  ClusterService service(opt.service);
  HttpServer server(&service, opt.http);
  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "dpcluster_serve: %s\n",
                 std::string(status.message()).c_str());
    return 1;
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::printf("dpcluster_serve: listening on 127.0.0.1:%d (workers=%zu, "
              "queue=%zu, budget eps=%g delta=%g)\n",
              server.port(), opt.http.workers, opt.http.queue_depth,
              opt.service.default_budget.epsilon,
              opt.service.default_budget.delta);
  std::fflush(stdout);

  while (g_signal == 0 && !service.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("dpcluster_serve: draining...\n");
  server.Stop();

  const HttpServer::Stats http = server.GetStats();
  const ClusterService::Stats stats = service.GetStats();
  const IndexCache::Stats cache = service.CacheStats();
  std::printf(
      "dpcluster_serve: served=%llu (reused=%llu) shed=%llu solved=%llu "
      "rejected=%llu (budget=%llu) stream appends=%llu expires=%llu "
      "compactions=%llu cache hits=%llu misses=%llu bypasses=%llu\n",
      static_cast<unsigned long long>(http.served),
      static_cast<unsigned long long>(http.reused),
      static_cast<unsigned long long>(http.shed),
      static_cast<unsigned long long>(stats.solved),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.budget_rejections),
      static_cast<unsigned long long>(stats.stream_appends),
      static_cast<unsigned long long>(stats.stream_expires),
      static_cast<unsigned long long>(stats.stream_compactions),
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.bypasses));
  return 0;
}
