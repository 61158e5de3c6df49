// ClusterService: the transport-independent core of the dpcluster daemon.
// One instance owns the multi-tenant state — per-(tenant, dataset) privacy
// accountants, the keyed IndexedDataset cache, the algorithm registry — and
// turns (method, path, body) triples into JSON replies. The HTTP server
// (service/http_server.h) is a thin shell around Handle(); tests drive
// Handle() directly, without sockets.
//
// Routes:
//   GET  /healthz          liveness + serving/draining state
//   GET  /v1/algorithms    registered algorithm names
//   GET  /v1/stats         request counters, cache stats, per-tenant spend
//   POST /v1/solve         one wire request (service/protocol.h) -> response
//   POST /v1/stream/append arrivals into a resident streaming dataset
//   POST /v1/stream/expire expire rows (oldest-first count, or by id)
//   POST /v1/shutdown      request graceful drain (when enabled)
//
// Streaming datasets: /v1/stream/append feeds points into a server-resident
// IndexedDataset held by the index cache (created on first append, keyed
// like any cached dataset). Edits ride the incremental Insert/Remove path,
// so the spatial index is maintained, not rebuilt, per batch; expired rows
// are compacted away once live/total drops below the request's
// tuning.stream_compact_fraction. A solve with "stream": true then runs
// over the live rows without shipping them: the reply echoes the stream
// version the solve saw. Ingestion itself spends no privacy budget — only
// solves are charged, against the same (tenant, dataset) ledger.
//
// Budget model: every (tenant, dataset) pair owns one privacy cap
// (tenant-overridable, default ServiceOptions::default_budget). Admission is
// conservative and race-free: after the request parses and validates (an
// invalid request charges NOTHING), the service — under the tenant ledger's
// mutex — checks spent + requested <= cap and charges the FULL requested
// (eps, delta) up front, before the algorithm runs. A request that cannot
// fit receives the structured BudgetExhausted rejection (HTTP 429) carrying
// the cap, spend, and remaining budget; other tenants and datasets are
// unaffected. A failed run after admission stays charged — the data may
// already have been queried (the same conservative stance Solver takes).
//
// Determinism: each solve runs on a fresh Solver seeded from the wire
// request's "seed" (0 = the server's configured seed), so a given (request,
// seed) pair releases the same bytes on every server, regardless of what
// other tenants are doing. The index cache only accelerates: a cached index
// and one the algorithm builds for a bypassed request release bit-identical
// outputs (geo/dataset.h).

#ifndef DPCLUSTER_SERVICE_SERVICE_H_
#define DPCLUSTER_SERVICE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "dpcluster/api/registry.h"
#include "dpcluster/dp/accountant.h"
#include "dpcluster/dp/privacy_params.h"
#include "dpcluster/service/index_cache.h"
#include "dpcluster/service/protocol.h"

namespace dpcluster {

struct ServiceOptions {
  /// Privacy cap of each (tenant, dataset) pair without an override.
  PrivacyParams default_budget{4.0, 1e-6};
  /// Per-tenant cap overrides (applies to each of the tenant's datasets).
  std::map<std::string, PrivacyParams> tenant_budgets;
  /// Resident IndexedDatasets in the keyed cache.
  std::size_t cache_capacity = 8;
  /// Hard cap on points per request (PayloadTooLarge above it).
  std::size_t max_points = 1u << 20;
  /// Hard cap on request body bytes (PayloadTooLarge above it).
  std::size_t max_body_bytes = 64u << 20;
  /// Default solver seed for wire requests with seed = 0.
  std::uint64_t seed = 2016;
  /// Compute utility diagnostics on solves (SolverOptions::diagnostics).
  bool diagnostics = true;
  /// Registry to dispatch against; nullptr = AlgorithmRegistry::Global().
  const AlgorithmRegistry* registry = nullptr;
  /// Honor POST /v1/shutdown. A local daemon enables it; disable when the
  /// port is reachable by untrusted clients.
  bool allow_remote_shutdown = true;
};

/// One HTTP-shaped reply: status code plus a JSON body.
struct ServiceReply {
  int http_status = 200;
  std::string body;
};

class ClusterService {
 public:
  struct Stats {
    std::uint64_t requests = 0;       ///< Handle() calls, any route.
    std::uint64_t solved = 0;         ///< /v1/solve runs that released.
    std::uint64_t rejected = 0;       ///< solve/stream errors of any kind.
    std::uint64_t budget_rejections = 0;  ///< ... of which BudgetExhausted.
    std::uint64_t stream_appends = 0;     ///< /v1/stream/append successes.
    std::uint64_t stream_expires = 0;     ///< /v1/stream/expire successes.
    std::uint64_t stream_compactions = 0; ///< Mutations that compacted.
  };

  explicit ClusterService(ServiceOptions options = {});

  /// Serves one request. Thread-safe: workers call this concurrently; all
  /// shared state (ledgers, cache, counters) is internally synchronized.
  ServiceReply Handle(std::string_view method, std::string_view path,
                      std::string_view body);

  /// True once a graceful drain was requested (POST /v1/shutdown, or
  /// RequestShutdown). The transport polls this to stop accepting.
  bool shutdown_requested() const;
  void RequestShutdown();

  Stats GetStats() const;
  IndexCache::Stats CacheStats() const { return cache_.GetStats(); }

  /// Spend so far of one (tenant, dataset) ledger, under basic composition;
  /// zero if the pair has never been charged.
  PrivacyParams SpentBy(const std::string& tenant,
                        const std::string& dataset) const;

  const AlgorithmRegistry& registry() const { return *registry_; }
  const ServiceOptions& options() const { return options_; }

 private:
  /// The per-(tenant, dataset) budget ledger. `spent` is kept as a running
  /// basic-composition total guarded by the service-wide ledger mutex.
  struct TenantLedger {
    PrivacyParams cap;
    Accountant charges;
  };

  ServiceReply Solve(std::string_view body);
  /// The /v1/stream/append and /v1/stream/expire handlers (`append` picks).
  ServiceReply StreamMutate(std::string_view body, bool append);
  ServiceReply Health() const;
  ServiceReply Algorithms() const;
  ServiceReply StatsReply() const;
  ServiceReply Error(ServiceErrorCode code, const std::string& message);
  PrivacyParams CapFor(const std::string& tenant) const;

  const ServiceOptions options_;
  const AlgorithmRegistry* registry_;
  IndexCache cache_;

  mutable std::mutex ledger_mutex_;
  std::map<std::string, TenantLedger> ledgers_;  // key: tenant + "\n" + dataset

  mutable std::mutex stats_mutex_;
  Stats stats_;

  std::atomic<bool> shutdown_{false};
};

}  // namespace dpcluster

#endif  // DPCLUSTER_SERVICE_SERVICE_H_
