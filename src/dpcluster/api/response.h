// The typed response of the Solver façade: the released artifact, the
// per-phase privacy ledger of the request, utility diagnostics (evaluation
// only), and timing.

#ifndef DPCLUSTER_API_RESPONSE_H_
#define DPCLUSTER_API_RESPONSE_H_

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "dpcluster/dp/accountant.h"
#include "dpcluster/dp/privacy_params.h"
#include "dpcluster/geo/ball.h"
#include "dpcluster/workload/metrics.h"

namespace dpcluster {

// Forward-declared in request.h; repeated here so response.h stands alone.
enum class ProblemKind;

struct Response {
  /// Which registered algorithm produced this response.
  std::string algorithm;
  /// The problem family it solves.
  ProblemKind kind{};

  // --- Released artifact (differentially private) -------------------------
  /// Primary released ball. For interior-point the center is the released
  /// point (radius 0); for sample-aggregate it is the stable point and its
  /// claimed radius. Empty center = this algorithm released no ball.
  Ball ball;
  /// All released balls: the k-cluster rounds; a singleton {ball} otherwise.
  std::vector<Ball> balls;
  /// Scalar release for 1D problems (interior-point); NaN otherwise.
  double scalar = std::numeric_limits<double>::quiet_NaN();

  // --- Accounting ---------------------------------------------------------
  /// Per-phase ledger of this request (the BudgetSession's local view).
  Accountant ledger;
  /// Total charged, under basic composition of `ledger`.
  PrivacyParams charged{0.0, 0.0};

  // --- Diagnostics (NOT private: computed from the raw data) --------------
  /// Utility metrics of `ball` against the request's data and t, when the
  /// Solver is configured to evaluate them and the problem shape allows it.
  std::optional<EvalMetrics> diagnostics;
  /// Points of the dataset left uncovered by `balls` (k-cluster only): an
  /// exact count for in-process evaluation, never encoded on the wire.
  std::size_t uncovered = 0;

  /// Wall-clock of the algorithm run, milliseconds.
  double wall_ms = 0.0;
  /// Free-form adapter notes ("amplified budget ...", "2 rounds skipped").
  std::string note;
};

}  // namespace dpcluster

#endif  // DPCLUSTER_API_RESPONSE_H_
