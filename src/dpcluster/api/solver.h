// Solver: the unified façade over every algorithm in the library. One Solver
// owns one shared Accountant; each Run carves a BudgetSession for its request,
// dispatches by name through an AlgorithmRegistry, and returns a typed
// Response (released artifact + per-phase ledger + utility diagnostics +
// timing). RunAll executes a batch of independent requests against the same
// accountant — the seed of future sharded/async serving.
//
// Quickstart:
//   Solver solver;
//   Request request;
//   request.algorithm = "one_cluster";
//   request.data = points;                  // snapped to the domain grid
//   request.domain = GridDomain(1 << 16, points.dim());
//   request.t = 500;
//   request.budget = {2.0, 1e-9};
//   auto response = solver.Run(request);
//   if (response.ok()) UseBall(response->ball);

#ifndef DPCLUSTER_API_SOLVER_H_
#define DPCLUSTER_API_SOLVER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "dpcluster/api/budget.h"
#include "dpcluster/api/registry.h"
#include "dpcluster/api/request.h"
#include "dpcluster/api/response.h"
#include "dpcluster/common/status.h"
#include "dpcluster/random/rng.h"

namespace dpcluster {

struct SolverOptions {
  /// Seed of the solver's master Rng; each request runs on a forked stream.
  std::uint64_t seed = 2016;
  /// Compute non-private utility diagnostics (EvalMetrics on the raw data)
  /// for responses whose shape allows it. Disable when serving real data and
  /// the evaluation pass is unwanted work.
  bool diagnostics = true;
  /// Registry to dispatch against; nullptr = AlgorithmRegistry::Global().
  const AlgorithmRegistry* registry = nullptr;
};

class Solver {
 public:
  explicit Solver(SolverOptions options = {});

  /// Serves one request: registry lookup, request validation, budget session,
  /// algorithm run, response bookkeeping. A request that fails before its
  /// algorithm runs (unknown name, invalid request) charges nothing; a
  /// request whose algorithm fails mid-run is conservatively accounted at its
  /// full budget, since the internal layer reports no partial ledger on
  /// error and the data may already have been queried.
  Result<Response> Run(const Request& request);

  /// Serves a batch of independent requests against this solver's single
  /// accountant. Per-request outcomes: one failing request does not abort the
  /// rest.
  std::vector<Result<Response>> RunAll(std::span<const Request> requests);

  /// Cross-request ledger: every charge of every served request, prefixed
  /// with its session scope.
  const Accountant& accountant() const { return accountant_; }

  /// Total spend across all served requests, under basic composition.
  PrivacyParams TotalSpend() const { return accountant_.BasicTotal(); }

  const AlgorithmRegistry& registry() const;

 private:
  SolverOptions options_;
  Rng rng_;
  Accountant accountant_;
  std::size_t served_ = 0;
};

}  // namespace dpcluster

#endif  // DPCLUSTER_API_SOLVER_H_
