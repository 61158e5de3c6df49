#include "dpcluster/api/solver.h"

#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "dpcluster/workload/metrics.h"

namespace dpcluster {

Solver::Solver(SolverOptions options)
    : options_(options), rng_(options.seed) {}

const AlgorithmRegistry& Solver::registry() const {
  return options_.registry != nullptr ? *options_.registry
                                      : AlgorithmRegistry::Global();
}

Result<Response> Solver::Run(const Request& request) {
  DPC_ASSIGN_OR_RETURN(const Algorithm* algorithm,
                       registry().Lookup(request.algorithm));
  DPC_RETURN_IF_ERROR(request.Validate());
  DPC_RETURN_IF_ERROR(algorithm->ValidateRequest(request));

  const std::string scope =
      request.label.empty()
          ? request.algorithm + "#" + std::to_string(served_)
          : request.label;
  ++served_;
  BudgetSession session(&accountant_, scope, request.budget);
  Rng run_rng = rng_.Fork();

  const auto start = std::chrono::steady_clock::now();
  Result<Response> run = algorithm->Run(run_rng, request, session);
  const auto end = std::chrono::steady_clock::now();
  if (!run.ok()) {
    // The algorithm may have queried the data before failing, and the
    // internal layer reports no partial ledger on error — account
    // conservatively: the request's whole remaining budget is treated as
    // consumed. (Remaining never overdraws, so this charge cannot fail.)
    session.Charge("failed:" + std::string(StatusCodeName(run.status().code())),
                   session.remaining());
    return run.status();
  }

  Response response = std::move(*run);
  response.algorithm = std::string(algorithm->name());
  response.kind = algorithm->kind();
  response.ledger = session.ledger();
  response.charged = session.spent();
  response.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  if (response.balls.empty() && !response.ball.center.empty()) {
    response.balls = {response.ball};
  }

  // Scalar releases (interior point) have no meaningful ball to evaluate.
  const bool scalar_release = !std::isnan(response.scalar);
  if (options_.diagnostics && !scalar_release && request.t >= 1 &&
      request.t <= request.data.size() &&
      response.ball.center.size() == request.data.dim()) {
    auto metrics = Evaluate(request.data, request.t, response.ball);
    if (metrics.ok()) response.diagnostics = *metrics;
  }
  return response;
}

std::vector<Result<Response>> Solver::RunAll(
    std::span<const Request> requests) {
  std::vector<Result<Response>> responses;
  responses.reserve(requests.size());
  for (const Request& request : requests) {
    responses.push_back(Run(request));
  }
  return responses;
}

}  // namespace dpcluster
