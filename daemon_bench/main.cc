// The dpcluster daemon benchmark: an in-process HttpServer + ClusterService
// at operator defaults (ServiceOptions{} / HttpServerOptions{}), driven over
// loopback keep-alive connections by closed-loop clients — each client sends
// its next request only after the previous reply, like an analyst or an
// ingester waiting on the daemon.
//
//   daemon_bench --workload <resident_solve|bulk_1d|stream_ingest>
//                --seed N --seconds S --trace <0|1> [--trace-dir DIR]
//
// The one change from the defaults is a budget cap large enough that no
// request is refused; it changes no computation, and StartupCheck() refuses
// to run if any other option drifted from its default.
//
// --trace 0 measures the end-to-end metrics (set-up, latency percentiles,
// throughput, the daemon's peak RSS). --trace 1 spends 40% of the seconds on
// the same untraced loop (the baseline for the overhead figure) and 60% on
// the traced run: per request, the exact request bytes make a round trip
// through the daemon's HttpServer to a route whose handler does no work
// (GET /healthz ignores its body), which times the transport; the daemon's
// ClusterService::Handle serves the request in-process; and a Breakdown
// (trace.h) times each layer by calling its public entry point on the same
// bytes. Per-layer metrics come from those spans; all spans are written to
// --trace-dir.
//
// Correctness gate (both modes): every reply must be HTTP 200, solves must
// report charged == the requested budget, stream mutations must leave the
// expected live count, and for a seed-chosen sample of solves the released
// artifact (ball, balls, scalar, charged, ledger) must byte-match an
// in-process reference: ClusterService::Handle on the same body, or for
// stream solves an index-free Solver::Run over the same live rows. The
// traced run also fails when a layer's entry point answers an error. A
// failed gate prints "correct": false and exits 1.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dpcluster/api/solver.h"
#include "dpcluster/random/rng.h"
#include "dpcluster/service/http_server.h"
#include "dpcluster/service/json.h"
#include "dpcluster/service/protocol.h"
#include "dpcluster/service/service.h"
#include "trace.h"
#include "wire_client.h"
#include "workloads.h"

#ifndef DAEMON_BENCH_BUILD_TYPE
#define DAEMON_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef DAEMON_BENCH_COMPILER
#define DAEMON_BENCH_COMPILER "unknown"
#endif

namespace daemon_bench {
namespace {

using Clock = std::chrono::steady_clock;
using dpcluster::JsonValue;

/// Sampled solves checked against the in-process reference per run.
constexpr std::size_t kReferenceSamples = 4;
/// Share of --seconds the traced mode spends on its untraced baseline.
constexpr double kBaselineShare = 0.4;

double MsSince(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---------------------------------------------------------------- options ---

dpcluster::ServiceOptions BenchServiceOptions() {
  dpcluster::ServiceOptions options;
  options.default_budget = {1e12, 1.0};
  return options;
}

dpcluster::HttpServerOptions BenchHttpOptions() { return {}; }

std::string ParamsText(const dpcluster::PrivacyParams& p) {
  return "{epsilon=" + dpcluster::JsonNumberLexeme(p.epsilon) +
         ", delta=" + dpcluster::JsonNumberLexeme(p.delta) + "}";
}

/// Every field of the daemon's option structs that differs from its default,
/// as "Struct.field: default -> used".
std::vector<std::string> OptionDifferences() {
  std::vector<std::string> diffs;
  const dpcluster::ServiceOptions d, u = BenchServiceOptions();
  const auto field = [&](const char* name, bool same, std::string from,
                         std::string to) {
    if (!same) diffs.push_back(std::string(name) + ": " + from + " -> " + to);
  };
  const auto num = [](auto v) { return std::to_string(v); };
  field("ServiceOptions.default_budget",
        d.default_budget.epsilon == u.default_budget.epsilon &&
            d.default_budget.delta == u.default_budget.delta,
        ParamsText(d.default_budget), ParamsText(u.default_budget));
  field("ServiceOptions.tenant_budgets",
        d.tenant_budgets.size() == u.tenant_budgets.size(),
        num(d.tenant_budgets.size()), num(u.tenant_budgets.size()));
  field("ServiceOptions.cache_capacity", d.cache_capacity == u.cache_capacity,
        num(d.cache_capacity), num(u.cache_capacity));
  field("ServiceOptions.max_points", d.max_points == u.max_points,
        num(d.max_points), num(u.max_points));
  field("ServiceOptions.max_body_bytes", d.max_body_bytes == u.max_body_bytes,
        num(d.max_body_bytes), num(u.max_body_bytes));
  field("ServiceOptions.seed", d.seed == u.seed, num(d.seed), num(u.seed));
  field("ServiceOptions.diagnostics", d.diagnostics == u.diagnostics,
        num(d.diagnostics), num(u.diagnostics));
  field("ServiceOptions.registry", d.registry == u.registry, "default",
        "custom");
  field("ServiceOptions.allow_remote_shutdown",
        d.allow_remote_shutdown == u.allow_remote_shutdown,
        num(d.allow_remote_shutdown), num(u.allow_remote_shutdown));
  const dpcluster::HttpServerOptions hd, hu = BenchHttpOptions();
  field("HttpServerOptions.port", hd.port == hu.port, num(hd.port),
        num(hu.port));
  field("HttpServerOptions.workers", hd.workers == hu.workers,
        num(hd.workers), num(hu.workers));
  field("HttpServerOptions.queue_depth", hd.queue_depth == hu.queue_depth,
        num(hd.queue_depth), num(hu.queue_depth));
  field("HttpServerOptions.max_request_bytes",
        hd.max_request_bytes == hu.max_request_bytes,
        num(hd.max_request_bytes), num(hu.max_request_bytes));
  field("HttpServerOptions.max_requests_per_connection",
        hd.max_requests_per_connection == hu.max_requests_per_connection,
        num(hd.max_requests_per_connection),
        num(hu.max_requests_per_connection));
  field("HttpServerOptions.idle_timeout_ms",
        hd.idle_timeout_ms == hu.idle_timeout_ms, num(hd.idle_timeout_ms),
        num(hu.idle_timeout_ms));
  return diffs;
}

/// Prints the run metadata; false when anything but the budget cap differs
/// from the daemon defaults (the benchmark must measure what operators run).
bool StartupCheck() {
  std::printf("nproc: %u\nbuild: %s\ncompiler: %s\n",
              std::thread::hardware_concurrency(), DAEMON_BENCH_BUILD_TYPE,
              DAEMON_BENCH_COMPILER);
  const std::vector<std::string> diffs = OptionDifferences();
  bool ok = true;
  for (const std::string& diff : diffs) {
    std::printf("option: %s\n", diff.c_str());
    if (diff.rfind("ServiceOptions.default_budget:", 0) != 0) ok = false;
  }
  if (!ok) std::fprintf(stderr, "daemon options drifted from the defaults\n");
  return ok;
}

// ----------------------------------------------------------------- daemon ---

struct Daemon {
  std::unique_ptr<dpcluster::ClusterService> service;
  std::unique_ptr<dpcluster::HttpServer> server;
  std::vector<std::unique_ptr<WireClient>> clients;
};

/// One executed request.
struct Sample {
  std::size_t op = 0;  ///< Index into the client's op list.
  double start_ms = 0.0;
  double end_ms = 0.0;
  WireReply reply;
};

std::string BodyOf(const Workload& w, const Op& op) {
  const BodyTemplate& t = w.bodies[op.body];
  return t.prefix + op.seed_lexeme + t.suffix;
}

WireReply Send(WireClient& client, const Workload& w, const Op& op) {
  const BodyTemplate& t = w.bodies[op.body];
  const std::string_view parts[3] = {t.prefix, op.seed_lexeme, t.suffix};
  return client.Call("POST", PathOf(op.kind), parts);
}

/// Runs each client's `ops` in a closed loop until `seconds` pass.
std::vector<std::vector<Sample>> ClosedLoop(
    Daemon& daemon, const Workload& w,
    const std::vector<std::vector<Op>>& ops, double seconds,
    Clock::time_point epoch, bool* exhausted) {
  std::vector<std::vector<Sample>> samples(w.clients);
  std::vector<std::thread> threads;
  std::atomic<bool> ran_out{false};
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      samples[c].reserve(ops[c].size());
      for (std::size_t j = 0; Clock::now() < deadline; ++j) {
        if (j == ops[c].size()) {
          ran_out = true;
          break;
        }
        Sample sample;
        sample.op = j;
        const Clock::time_point start = Clock::now();
        sample.reply = Send(*daemon.clients[c], w, ops[c][j]);
        sample.start_ms = MsSince(epoch, start);
        sample.end_ms = MsSince(epoch, Clock::now());
        samples[c].push_back(std::move(sample));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (ran_out) *exhausted = true;
  return samples;
}

/// Starts a daemon and runs the workload's warm-up pass `rep`; returns the
/// seconds from daemon construction to warm state.
double SetUp(Daemon& daemon, const Workload& w, std::size_t rep,
             std::vector<std::vector<Sample>>& setup_samples) {
  const Clock::time_point start = Clock::now();
  daemon.service =
      std::make_unique<dpcluster::ClusterService>(BenchServiceOptions());
  daemon.server = std::make_unique<dpcluster::HttpServer>(
      daemon.service.get(), BenchHttpOptions());
  if (dpcluster::Status status = daemon.server->Start(); !status.ok()) {
    std::fprintf(stderr, "daemon start: %s\n", status.message().c_str());
    std::exit(1);
  }
  daemon.clients.clear();
  for (std::size_t c = 0; c < w.clients; ++c) {
    daemon.clients.push_back(
        std::make_unique<WireClient>(daemon.server->port()));
  }
  bool exhausted = false;
  std::vector<std::vector<Sample>> samples =
      ClosedLoop(daemon, w, w.setup[rep], 1e9, start, &exhausted);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (auto& client : samples) {
    setup_samples.push_back(std::move(client));
  }
  return seconds;
}

void StopDaemon(Daemon& daemon) {
  daemon.clients.clear();
  if (daemon.server) daemon.server->Stop();
  daemon.server.reset();
  daemon.service.reset();
}

// ------------------------------------------------------------ correctness ---

/// The released artifact of a solve reply's "response" object.
std::string ArtifactOf(const JsonValue& response) {
  JsonValue artifact = JsonValue::Object();
  for (const char* key : {"ball", "balls", "scalar", "charged", "ledger"}) {
    const JsonValue* value = response.Find(key);
    artifact.Set(key, value != nullptr ? *value : JsonValue::String("absent"));
  }
  return artifact.Encode();
}

const JsonValue* ResponseObject(const JsonValue& reply) {
  return reply.is_object() ? reply.Find("response") : nullptr;
}

struct Gate {
  std::size_t attempted = 0;
  std::size_t failed = 0;          ///< Operations the daemon failed.
  std::size_t check_failures = 0;  ///< Reference mismatches, breakdown errors.
  std::vector<std::string> notes;

  void Fail(const std::string& note) {
    if (notes.size() < 8) notes.push_back(note);
  }
  void Merge(const Gate& other) {
    attempted += other.attempted;
    failed += other.failed;
    check_failures += other.check_failures;
    for (const std::string& note : other.notes) Fail(note);
  }
  bool correct() const { return failed == 0 && check_failures == 0; }
};

/// Per-reply checks: transport, HTTP 200, charged budget, live row count.
void CheckReply(const Workload& w, const Op& op, const WireReply& reply,
                Gate& gate) {
  ++gate.attempted;
  const auto fail = [&](const std::string& why) {
    ++gate.failed;
    gate.Fail(w.bodies[op.body].label + ": " + why);
  };
  if (!reply.transport_ok) return fail("transport: " + reply.error);
  if (reply.status != 200) {
    return fail("HTTP " + std::to_string(reply.status) + " " +
                reply.body.substr(0, 160));
  }
  auto parsed = JsonValue::Parse(reply.body);
  if (!parsed.ok()) return fail("unparsable reply");
  if (IsSolve(op.kind)) {
    const JsonValue* response = ResponseObject(*parsed);
    const JsonValue* charged =
        response != nullptr ? response->Find("charged") : nullptr;
    const JsonValue* eps = charged != nullptr ? charged->Find("epsilon") : nullptr;
    const JsonValue* delta = charged != nullptr ? charged->Find("delta") : nullptr;
    const BodyTemplate& body = w.bodies[op.body];
    if (eps == nullptr || delta == nullptr ||
        eps->AsDouble() != body.epsilon || delta->AsDouble() != body.delta) {
      return fail("charged differs from the requested budget");
    }
    if (op.kind == OpKind::kStreamSolve) {
      const JsonValue* stream = parsed->Find("stream");
      const JsonValue* live = stream != nullptr ? stream->Find("live") : nullptr;
      if (live == nullptr || live->AsDouble() != double(w.stream_live)) {
        return fail("stream solve saw the wrong live count");
      }
    }
  } else if (op.kind == OpKind::kExpire) {
    const JsonValue* live = parsed->Find("live");
    if (live == nullptr || live->AsDouble() != double(w.stream_live)) {
      return fail("expire left the wrong live count");
    }
  }
}

/// The in-process reference reply for a sampled solve.
std::string ReferenceArtifact(const Workload& w, const Op& op,
                              dpcluster::ClusterService& reference) {
  const std::string body = BodyOf(w, op);
  if (op.kind == OpKind::kSolve) {
    const dpcluster::ServiceReply reply =
        reference.Handle("POST", "/v1/solve", body);
    auto parsed = JsonValue::Parse(reply.body);
    if (reply.http_status != 200 || !parsed.ok() ||
        ResponseObject(*parsed) == nullptr) {
      return "reference failed: " + reply.body.substr(0, 160);
    }
    return ArtifactOf(*ResponseObject(*parsed));
  }
  // Stream solve: an index-free solve over the live rows the daemon held.
  auto wire = dpcluster::ParseWireRequest(body);
  if (!wire.ok()) return "reference parse failed";
  dpcluster::Request request = wire->request;
  request.data = dpcluster::PointSet(w.stream_rows.dim());
  for (std::size_t i = op.live_begin; i < op.live_begin + w.stream_live; ++i) {
    request.data.Add(w.stream_rows[i]);
  }
  request.domain = w.stream_domain;
  dpcluster::SolverOptions options;
  options.seed = wire->seed != 0 ? wire->seed : BenchServiceOptions().seed;
  options.diagnostics = BenchServiceOptions().diagnostics;
  dpcluster::Solver solver(options);
  auto response = solver.Run(request);
  if (!response.ok()) return "reference failed: " + response.status().message();
  return ArtifactOf(dpcluster::ResponseToJson(*response));
}

/// Byte-compares a seed-chosen sample of timed solves with the reference.
void CheckReferenceSample(const Workload& w, std::uint64_t seed,
                          const std::vector<std::vector<Sample>>& samples,
                          Gate& gate) {
  std::vector<std::pair<std::size_t, std::size_t>> solves;
  for (std::size_t c = 0; c < samples.size(); ++c) {
    for (std::size_t i = 0; i < samples[c].size(); ++i) {
      const Sample& s = samples[c][i];
      if (IsSolve(w.ops[c][s.op].kind) && s.reply.transport_ok &&
          s.reply.status == 200) {
        solves.push_back({c, i});
      }
    }
  }
  dpcluster::Rng rng(seed ^ 0x5eed5eedULL);
  for (std::size_t k = 0; k < kReferenceSamples && !solves.empty(); ++k) {
    const std::size_t pick = rng.NextUint64(solves.size());
    const auto [c, i] = solves[pick];
    solves.erase(solves.begin() + static_cast<std::ptrdiff_t>(pick));
    const Sample& s = samples[c][i];
    const Op& op = w.ops[c][s.op];
    dpcluster::ClusterService reference(BenchServiceOptions());
    const std::string expected = ReferenceArtifact(w, op, reference);
    auto parsed = JsonValue::Parse(s.reply.body);
    const std::string got = parsed.ok() && ResponseObject(*parsed) != nullptr
                                ? ArtifactOf(*ResponseObject(*parsed))
                                : "unparsable";
    if (got != expected) {
      ++gate.check_failures;
      gate.Fail("client " + std::to_string(c) + " request " +
                std::to_string(s.op) + " differs from the reference: " +
                expected.substr(0, 160));
    }
  }
}

// ---------------------------------------------------------------- metrics ---

/// Linear-interpolated percentile (q in [0, 1]); NaN when empty.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< Printed next to the value (sample counts).
};

void PrintResult(const std::vector<Metric>& metrics, const Gate& gate) {
  for (const Metric& m : metrics) {
    std::printf("%-44s %14.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& note : gate.notes) {
    std::printf("gate: %s\n", note.c_str());
  }
  JsonValue values = JsonValue::Object();
  for (const Metric& m : metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(std::isfinite(m.value) ? m.value : 0.0));
    entry.Set("unit", JsonValue::String(m.unit));
    values.Set(m.name, std::move(entry));
  }
  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(gate.correct()));
  result.Set("attempted",
             JsonValue::Number(static_cast<std::uint64_t>(gate.attempted)));
  result.Set("failed", JsonValue::Number(static_cast<std::uint64_t>(gate.failed)));
  result.Set("metrics", std::move(values));
  std::printf("%s\n", result.Encode().c_str());
  std::fflush(stdout);
}

/// A "Vm...:  <n> kB" field of /proc/self/status in MiB; NaN when absent.
double ProcStatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return std::nan("");
}

/// Resets the process's peak RSS (VmHWM) to its current RSS.
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  return !clear_refs.fail();
}

std::string Count(std::size_t n) { return "(n=" + std::to_string(n) + ")"; }

/// Geometric mean over request kinds of each kind's q-quantile latency:
/// every kind weighs the same whatever its share of the requests, so a
/// kind's regression by a factor f moves the figure by f^(1/kinds).
double PerKindPercentile(
    const std::map<std::string, std::vector<double>>& by_label, double q) {
  if (by_label.empty()) return std::nan("");
  double log_sum = 0.0;
  for (const auto& [label, values] : by_label) {
    log_sum += std::log(Percentile(values, q));
  }
  return std::exp(log_sum / static_cast<double>(by_label.size()));
}

/// End-to-end metrics of one untraced closed loop.
std::vector<Metric> EndToEnd(const Workload& w,
                             const std::vector<std::vector<Sample>>& samples,
                             double setup_s, double peak_rss_mb) {
  std::vector<double> solve_ms, mutate_ms;
  std::map<std::string, std::vector<double>> by_label;
  double first = INFINITY, last = 0.0, points = 0.0;
  for (std::size_t c = 0; c < samples.size(); ++c) {
    for (const Sample& s : samples[c]) {
      const Op& op = w.ops[c][s.op];
      const double ms = s.end_ms - s.start_ms;
      (IsSolve(op.kind) ? solve_ms : mutate_ms).push_back(ms);
      by_label[w.bodies[op.body].label].push_back(ms);
      first = std::min(first, s.start_ms);
      last = std::max(last, s.end_ms);
      if (s.reply.transport_ok && s.reply.status == 200) {
        points += static_cast<double>(w.bodies[op.body].points);
      }
    }
  }
  const double elapsed_s = std::max(1e-9, (last - first) / 1e3);
  std::vector<Metric> m = {
      {"solve_ms_p50", Percentile(solve_ms, 0.5), "ms", Count(solve_ms.size())},
      {"solve_ms_p90", Percentile(solve_ms, 0.9), "ms", Count(solve_ms.size())},
      {"per_kind_ms_p50", PerKindPercentile(by_label, 0.5), "ms",
       "(" + std::to_string(by_label.size()) + " request kinds)"},
      {"per_kind_ms_p90", PerKindPercentile(by_label, 0.9), "ms",
       "(" + std::to_string(by_label.size()) + " request kinds)"},
      {"solves_per_s", static_cast<double>(solve_ms.size()) / elapsed_s, "1/s",
       "(" + std::to_string(w.clients) + " clients)"},
      {"points_per_s", points / elapsed_s, "1/s", ""},
      {"setup_s", setup_s, "s", ""},
      {"peak_rss_mb", peak_rss_mb, "MB", ""},
  };
  for (const auto& [label, values] : by_label) {
    std::printf("%s: p50 %.4f ms, p90 %.4f ms %s; deciles", label.c_str(),
                Percentile(values, 0.5), Percentile(values, 0.9),
                Count(values.size()).c_str());
    for (int d = 1; d < 10; ++d) std::printf(" %.2f", Percentile(values, d / 10.0));
    std::printf("\n");
  }
  if (!mutate_ms.empty()) {
    std::printf("mutate_ms_p50 %.4f ms, mutate_ms_p90 %.4f ms %s\n",
                Percentile(mutate_ms, 0.5), Percentile(mutate_ms, 0.9),
                Count(mutate_ms.size()).c_str());
  } else {
    std::printf("mutate_ms: - (this workload sends no stream mutations)\n");
  }
  return m;
}

// ------------------------------------------------------------ traced run ---

struct TracedRequest {
  std::size_t client = 0;
  std::size_t op = 0;
  LayerFacts facts;
};

struct ClientTrace {
  std::unique_ptr<Tracer> tracer;
  std::vector<TracedRequest> requests;
};

/// Traces each client's ops until `seconds` pass. Per request: the request
/// bytes make a round trip through the daemon's HttpServer to GET /healthz,
/// the daemon's ClusterService::Handle serves the request in-process, and
/// the Breakdown then times each layer on the same bytes.
std::vector<ClientTrace> TracedLoop(Daemon& daemon, const Workload& w,
                                    Breakdown& breakdown, double seconds,
                                    Clock::time_point epoch, Gate& gate) {
  std::vector<ClientTrace> traces(w.clients);
  std::vector<Gate> gates(w.clients);
  std::vector<std::thread> threads;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientTrace& trace = traces[c];
      Gate& g = gates[c];
      trace.tracer = std::make_unique<Tracer>(epoch);
      Tracer* tracer = trace.tracer.get();
      WireClient probe(daemon.server->port());
      for (std::size_t j = 0; j < w.ops[c].size() && Clock::now() < deadline;
           ++j) {
        const Op& op = w.ops[c][j];
        const std::string body = BodyOf(w, op);
        const std::string_view parts[1] = {body};
        tracer->set_request((std::uint64_t{c} << 32) | j);
        WireReply probed, served;
        int service = -1;
        {
          ScopedSpan root(tracer, Layer::kRequest);
          {
            ScopedSpan http(tracer, Layer::kHttpServer, root.index());
            probed = probe.Call("GET", "/healthz", parts);
          }
          ScopedSpan handle(tracer, Layer::kService, root.index());
          dpcluster::ServiceReply reply =
              daemon.service->Handle("POST", PathOf(op.kind), body);
          served.transport_ok = true;
          served.status = reply.http_status;
          served.body = std::move(reply.body);
          service = handle.index();
        }
        ++g.attempted;
        if (!probed.transport_ok || probed.status != 200) {
          ++g.failed;
          g.Fail("transport probe failed: " + probed.error);
        }
        CheckReply(w, op, served, g);
        TracedRequest request{c, j, {}};
        const dpcluster::Status timed = breakdown.Run(
            PathOf(op.kind), body, tracer, service, &request.facts);
        if (!timed.ok()) {
          ++g.check_failures;
          g.Fail("breakdown: " + timed.message());
        }
        trace.requests.push_back(request);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Gate& g : gates) gate.Merge(g);
  return traces;
}

struct LayerTotals {
  std::size_t requests = 0;  ///< Requests that entered the layer.
  double incl_ms = 0.0;      ///< Summed span time.
  double self_ms = 0.0;      ///< Summed span time minus the children's.
};

void TracedRun(const Workload& w, std::uint64_t seed, double seconds,
               const std::string& trace_dir, Daemon& daemon, Gate& gate) {
  const Clock::time_point epoch = Clock::now();

  // Phase A: the untraced loop — the overhead baseline and the daemon's own
  // counters.
  const dpcluster::IndexCache::Stats cache_before = daemon.service->CacheStats();
  const dpcluster::HttpServer::Stats http_before = daemon.server->GetStats();
  bool exhausted = false;
  const std::vector<std::vector<Sample>> baseline = ClosedLoop(
      daemon, w, w.ops, seconds * kBaselineShare, epoch, &exhausted);
  const dpcluster::IndexCache::Stats cache_after = daemon.service->CacheStats();
  const dpcluster::HttpServer::Stats http_after = daemon.server->GetStats();
  std::map<std::string, std::vector<double>> untraced_by_label;
  double request_bytes = 0.0, reply_bytes = 0.0;
  std::size_t baseline_requests = 0;
  for (std::size_t c = 0; c < baseline.size(); ++c) {
    for (const Sample& s : baseline[c]) {
      const Op& op = w.ops[c][s.op];
      CheckReply(w, op, s.reply, gate);
      untraced_by_label[w.bodies[op.body].label].push_back(s.end_ms -
                                                           s.start_ms);
      request_bytes += static_cast<double>(s.reply.request_bytes);
      reply_bytes += static_cast<double>(s.reply.reply_bytes);
      ++baseline_requests;
    }
  }
  CheckReferenceSample(w, seed, baseline, gate);

  // Phase B: the traced run. The Breakdown's cache first takes the warm-up
  // pass the daemon took, so both caches hold the same keys.
  Breakdown breakdown(BenchServiceOptions());
  for (std::size_t c = 0; c < w.clients; ++c) {
    for (const Op& op : w.setup.back()[c]) {
      LayerFacts ignored;
      const dpcluster::Status warm = breakdown.Run(
          PathOf(op.kind), BodyOf(w, op), nullptr, -1, &ignored);
      if (!warm.ok()) {
        ++gate.check_failures;
        gate.Fail("breakdown warm-up: " + warm.message());
      }
    }
  }
  const std::vector<ClientTrace> traces = TracedLoop(
      daemon, w, breakdown, seconds * (1.0 - kBaselineShare), epoch, gate);

  // Span arithmetic: self = duration minus the children's durations.
  std::vector<LayerTotals> layers(static_cast<std::size_t>(Layer::kCount));
  std::map<std::string, std::vector<double>> traced_by_label;
  std::map<std::string, std::map<Layer, double>> incl_by_label;
  double root_total = 0.0;
  std::size_t rounds = 0, rounds_asked = 0, compactions = 0, traced_count = 0;
  const std::string path = trace_dir + "/" + w.name + "-seed" +
                           std::to_string(seed) + ".spans.tsv";
  std::ofstream out(path);
  out << "request\tlabel\tspan\tparent\tlayer\tstart_us\tend_us\tself_us\n";
  for (const ClientTrace& trace : traces) {
    const std::vector<Span>& spans = trace.tracer->spans();
    const auto ms_of = [](const Span& s) {
      return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    };
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += ms_of(s);
    }
    std::size_t next_request = 0;
    std::vector<bool> entered(layers.size(), false);
    std::string label;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double ms = ms_of(s);
      const double self = ms - child_ms[i];
      if (s.layer == Layer::kRequest) {
        const TracedRequest& r = trace.requests[next_request++];
        label = w.bodies[w.ops[r.client][r.op].body].label;
        std::fill(entered.begin(), entered.end(), false);
        traced_by_label[label].push_back(ms);
        root_total += ms;
        rounds += r.facts.kcluster_rounds;
        rounds_asked += r.facts.kcluster_k;
        compactions += r.facts.compactions;
        ++traced_count;
      }
      LayerTotals& l = layers[static_cast<std::size_t>(s.layer)];
      if (!entered[static_cast<std::size_t>(s.layer)]) {
        entered[static_cast<std::size_t>(s.layer)] = true;
        ++l.requests;
      }
      l.incl_ms += ms;
      l.self_ms += self;
      incl_by_label[label][s.layer] += ms;
      out << s.request << '\t' << label << '\t' << i << '\t' << s.parent
          << '\t' << LayerName(s.layer) << '\t' << s.start_ns / 1000 << '\t'
          << s.end_ns / 1000 << '\t' << static_cast<std::int64_t>(self * 1e3)
          << '\n';
    }
  }
  out.close();

  const auto layer = [&](Layer id) -> const LayerTotals& {
    return layers[static_cast<std::size_t>(id)];
  };
  const auto mean_incl = [&](Layer id) {
    const LayerTotals& l = layer(id);
    return l.requests > 0 ? l.incl_ms / static_cast<double>(l.requests) : 0.0;
  };
  const auto mean_self = [&](Layer id) {
    const LayerTotals& l = layer(id);
    return l.requests > 0 ? l.self_ms / static_cast<double>(l.requests) : 0.0;
  };

  // Human-readable per-layer table: every layer, "-" where the workload
  // never enters it. share = self time over all traced request time.
  std::printf("traced requests: %zu\n", traced_count);
  std::printf("%-36s %9s %12s %12s %8s\n", "layer", "requests", "incl_ms",
              "self_ms", "share");
  for (std::size_t i = 1; i < layers.size(); ++i) {
    const Layer id = static_cast<Layer>(i);
    if (layer(id).requests == 0) {
      std::printf("%-36s %9s %12s %12s %8s\n", LayerName(id), "-", "-", "-",
                  "-");
      continue;
    }
    std::printf("%-36s %9zu %12.4f %12.4f %8.4f\n", LayerName(id),
                layer(id).requests, mean_incl(id), mean_self(id),
                root_total > 0.0 ? layer(id).self_ms / root_total : 0.0);
  }
  for (const auto& [label, values] : traced_by_label) {
    const std::vector<double>& base = untraced_by_label[label];
    std::printf("%s: untraced median %.3f ms (n=%zu), traced median %.3f ms "
                "(n=%zu)",
                label.c_str(), Median(base), base.size(), Median(values),
                values.size());
    std::map<Layer, double>& incl = incl_by_label[label];
    const double heavy = incl[Layer::kRadiusProfile] + incl[Layer::kEvaluate];
    if (heavy > 0.0 && incl[Layer::kService] > 0.0) {
      std::printf("; radius_profile.build + diagnostics.evaluate = %.1f%% "
                  "of its Handle time",
                  100.0 * heavy / incl[Layer::kService]);
    }
    std::printf("\n");
  }

  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double leases = hits +
                        static_cast<double>(cache_after.misses - cache_before.misses) +
                        static_cast<double>(cache_after.replaced - cache_before.replaced) +
                        static_cast<double>(cache_after.bypasses - cache_before.bypasses);
  const double served = static_cast<double>(http_after.served - http_before.served);
  const double n_base = std::max<double>(1.0, static_cast<double>(baseline_requests));
  // Overhead and coverage per request kind (medians of a mix of kinds would
  // jump between kinds), weighted by the traced requests of each kind. The
  // top-level spans are the request span's children: http_server + service.
  double overhead_ms = 0.0, coverage = 0.0;
  for (const auto& [label, values] : traced_by_label) {
    const double base = Median(untraced_by_label[label]);
    const double weight =
        static_cast<double>(values.size()) / static_cast<double>(traced_count);
    if (!(base > 0.0)) continue;
    overhead_ms += weight * (Median(values) - base);
    coverage += weight * Median(values) / base;
  }

  const std::vector<Metric> metrics = {
      {"http_server.transport_ms", mean_incl(Layer::kHttpServer), "ms", ""},
      {"http_server.reused_share",
       served > 0.0 ? static_cast<double>(http_after.reused - http_before.reused) / served
                    : 0.0,
       "share", ""},
      {"protocol.decode_ms", mean_incl(Layer::kDecode), "ms", ""},
      {"protocol.encode_ms", mean_incl(Layer::kEncode), "ms", ""},
      {"protocol.request_bytes", request_bytes / n_base, "bytes", ""},
      {"protocol.reply_bytes", reply_bytes / n_base, "bytes", ""},
      {"service.validate_ms", mean_incl(Layer::kValidate), "ms", ""},
      {"service.unattributed_ms", mean_self(Layer::kService), "ms", ""},
      {"index_cache.acquire_ms", mean_incl(Layer::kAcquire), "ms", ""},
      {"index_cache.mutate_stream_ms", mean_incl(Layer::kMutateStream), "ms",
       ""},
      {"index_cache.hit_share", leases > 0.0 ? hits / leases : 0.0, "share", ""},
      {"index_cache.evictions",
       static_cast<double>(cache_after.evictions - cache_before.evictions),
       "count", ""},
      {"index_cache.bypasses",
       static_cast<double>(cache_after.bypasses - cache_before.bypasses),
       "count", ""},
      {"solver.run_ms", mean_incl(Layer::kSolverRun), "ms", ""},
      {"solver.unattributed_ms", mean_self(Layer::kSolverRun), "ms", ""},
      {"radius_profile.build_ms", mean_incl(Layer::kRadiusProfile), "ms", ""},
      {"good_radius.ms", mean_self(Layer::kGoodRadius), "ms", ""},
      {"good_center.ms", mean_incl(Layer::kGoodCenter), "ms", ""},
      {"radius_refine.ms", mean_incl(Layer::kRadiusRefine), "ms", ""},
      {"k_cluster.ms", mean_incl(Layer::kKCluster), "ms", ""},
      {"k_cluster.released_share",
       rounds_asked > 0 ? static_cast<double>(rounds) / static_cast<double>(rounds_asked)
                        : 0.0,
       "share", ""},
      {"diagnostics.evaluate_ms", mean_incl(Layer::kEvaluate), "ms", ""},
      {"diagnostics.opt_radius_lower_bound_ms", mean_incl(Layer::kOptRadius),
       "ms", ""},
      {"dataset.insert_ms", mean_incl(Layer::kInsert), "ms", ""},
      {"dataset.remove_ms", mean_incl(Layer::kRemove), "ms", ""},
      {"dataset.compact_ms", mean_incl(Layer::kCompact), "ms", ""},
      {"dataset.compactions", static_cast<double>(compactions), "count", ""},
      {"threshold_release.ms", mean_incl(Layer::kThresholdRelease), "ms", ""},
      {"trace.overhead_ms", overhead_ms, "ms",
       "(traced minus untraced median, per request kind)"},
      {"trace.coverage", coverage, "share",
       "(top-level spans / untraced median, per request kind)"},
  };
  if (exhausted) std::printf("warning: a client ran out of pre-encoded requests\n");
  std::printf("spans: %s\n", path.c_str());
  PrintResult(metrics, gate);
}

// ------------------------------------------------------------------- main ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 &&
         (args.trace == 0 || args.trace == 1);
}

int Run(const Args& args) {
  const Clock::time_point run_start = Clock::now();
  if (!StartupCheck()) return 1;
  auto made = MakeWorkload(args.workload, args.seed, args.seconds);
  if (!made.ok()) {
    std::fprintf(stderr, "workload: %s\n", made.status().message().c_str());
    return 1;
  }
  const Workload& w = *made;
  std::printf("workload: %s, seed %llu, %zu closed-loop clients, %.1f s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.clients, args.seconds);

  // peak_rss_mb is what the daemon adds to the process: the workload is
  // generated by now, so note the resident size and reset the peak to it.
  const double rss_before_mb = ProcStatusMb("VmRSS");
  if (!ResetPeakRss() || !std::isfinite(rss_before_mb)) {
    std::fprintf(stderr, "cannot reset the peak RSS through /proc/self\n");
    return 1;
  }

  Gate gate;
  Daemon daemon;
  std::vector<double> setups;
  for (std::size_t rep = 0; rep < w.setup.size(); ++rep) {
    if (rep > 0) StopDaemon(daemon);
    std::vector<std::vector<Sample>> setup_samples;
    setups.push_back(SetUp(daemon, w, rep, setup_samples));
    for (std::size_t c = 0; c < setup_samples.size(); ++c) {
      for (const Sample& s : setup_samples[c]) {
        CheckReply(w, w.setup[rep][c][s.op], s.reply, gate);
      }
    }
  }
  const double setup_s = Median(setups);
  std::printf("set-up: %zu repetitions, median %.4f s (ready %.1f s after start)\n",
              setups.size(), setup_s, MsSince(run_start, Clock::now()) / 1e3);

  if (args.trace == 1) {
    TracedRun(w, args.seed, args.seconds, args.trace_dir, daemon, gate);
    StopDaemon(daemon);
    return gate.correct() ? 0 : 1;
  }

  bool exhausted = false;
  rusage before{}, after{};
  ::getrusage(RUSAGE_SELF, &before);
  const std::vector<std::vector<Sample>> samples =
      ClosedLoop(daemon, w, w.ops, args.seconds, Clock::now(), &exhausted);
  ::getrusage(RUSAGE_SELF, &after);
  const double peak_rss_mb = ProcStatusMb("VmHWM") - rss_before_mb;
  const auto seconds_of = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  std::printf("measured loop: user %.2f s, sys %.2f s, minor faults %ld, "
              "involuntary switches %ld\n",
              seconds_of(after.ru_utime) - seconds_of(before.ru_utime),
              seconds_of(after.ru_stime) - seconds_of(before.ru_stime),
              after.ru_minflt - before.ru_minflt,
              after.ru_nivcsw - before.ru_nivcsw);
  StopDaemon(daemon);
  for (std::size_t c = 0; c < samples.size(); ++c) {
    for (const Sample& s : samples[c]) CheckReply(w, w.ops[c][s.op], s.reply, gate);
  }
  CheckReferenceSample(w, args.seed, samples, gate);
  std::printf("checks done %.1f s after start\n",
              MsSince(run_start, Clock::now()) / 1e3);
  if (exhausted) std::printf("warning: a client ran out of pre-encoded requests\n");
  std::printf("failed_share %.6f (%zu of %zu)\n",
              gate.attempted > 0 ? static_cast<double>(gate.failed) /
                                       static_cast<double>(gate.attempted)
                                 : 0.0,
              gate.failed, gate.attempted);
  PrintResult(EndToEnd(w, samples, setup_s, peak_rss_mb), gate);
  return gate.correct() ? 0 : 1;
}

}  // namespace
}  // namespace daemon_bench

int main(int argc, char** argv) {
  daemon_bench::Args args;
  if (!daemon_bench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: daemon_bench --workload <resident_solve|bulk_1d|"
                 "stream_ingest> --seed N --seconds S --trace <0|1> "
                 "[--trace-dir DIR]\n");
    return 2;
  }
  return daemon_bench::Run(args);
}
