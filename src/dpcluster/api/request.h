// The typed request of the Solver façade: which algorithm to run (a registry
// key), on what data and domain, with what privacy budget and problem
// parameters. One Request maps to one BudgetSession carved from the Solver's
// shared Accountant.

#ifndef DPCLUSTER_API_REQUEST_H_
#define DPCLUSTER_API_REQUEST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "dpcluster/common/status.h"
#include "dpcluster/core/radius_profile.h"
#include "dpcluster/dp/privacy_params.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"
#include "dpcluster/sa/sample_aggregate.h"

namespace dpcluster {

/// The problem families the façade serves (ISSUE: one-cluster, k-cluster,
/// outlier, interior-point, sample-aggregate, baselines).
enum class ProblemKind {
  kOneCluster,
  kKCluster,
  kOutlier,
  kInteriorPoint,
  kSampleAggregate,
  kBaseline,
};

/// Human-readable name ("one-cluster", ...).
const char* ProblemKindName(ProblemKind kind);

/// Algorithm-specific tuning knobs. Every algorithm reads the fields it
/// understands and ignores the rest; the defaults match the free functions'.
struct Tuning {
  /// One-cluster: fraction of the budget given to GoodRadius.
  double radius_budget_fraction = 0.5;
  /// One-cluster: subsample the GoodRadius pair profile on large inputs.
  bool subsample_large_inputs = false;
  /// With subsample_large_inputs: multiplier on the subsample cap when the
  /// ~O(n t) grid profile serves the subsampled problem (see
  /// GoodRadiusOptions::subsample_grid_cap_factor). Must be >= 1.
  double subsample_grid_cap_factor = 10.0;
  /// GoodRadius L(r,S) event generator: auto (measured crossover), grid
  /// (t-NN pruned spatial index, ~O(n t) at low dimension), or exact (the
  /// all-pairs O(n^2) sweep). Bit-identical outputs either way; read by
  /// every algorithm that runs GoodRadius (one_cluster, k_cluster,
  /// outlier_screen, sample_aggregate's inner pipeline).
  ProfileIndex profile_index = ProfileIndex::kAuto;
  /// GoodCenter: cap on the Johnson-Lindenstrauss projection dimension of the
  /// first phase (see GoodCenterOptions::max_jl_dim). Smaller = cheaper
  /// projections and coarser boxes; the eval harness sweeps this to map the
  /// accuracy/cost frontier.
  std::size_t max_jl_dim = 12;
  /// Fraction of the (per-round) epsilon spent on RefineRadius to tighten
  /// the released ball. Read by k_cluster and outlier_screen, and by
  /// one_cluster when `refine_one_cluster` is set.
  double refine_fraction = 0.25;
  /// One-cluster: also spend refine_fraction of the epsilon tightening the
  /// released radius (the guarantee radius is a worst-case bound, often the
  /// whole cube). Off by default to match the plain OneCluster pipeline.
  bool refine_one_cluster = false;
  /// K-cluster: size per-round budgets by advanced composition (Thm 4.7).
  bool advanced_composition = false;
  /// Coreset stage (see coreset/coreset.h): when true, requests with at
  /// least `coreset_min_points` rows first collapse the data to a weighted
  /// k-center summary of ~coreset_target_size rows, and the whole pipeline
  /// (one_cluster, k_cluster, outlier_screen) runs on the summary's weighted
  /// index — counts weigh rows by multiplicity, so t / inlier_fraction keep
  /// their raw-input meaning. Accuracy moves by at most the summary's
  /// coverage radius; privacy accounting is unchanged. Service batches cache
  /// the coreset index per dataset alongside the shared index.
  bool coreset = false;
  /// Inputs with fewer rows run uncompressed even when `coreset` is set.
  std::size_t coreset_min_points = 65536;
  /// Summary row budget of the greedy k-center traversal (~2z + O(k)).
  std::size_t coreset_target_size = 2048;
  /// Streaming datasets (service /v1/stream/*): the resident index is
  /// compacted — expired rows dropped, survivors renumbered — once
  /// live/total falls below this fraction after a mutation, so a long-lived
  /// stream's scan density never degrades past a constant factor. 0 never
  /// compacts automatically.
  double stream_compact_fraction = 0.25;
  /// Streaming solves with `coreset`: the cached summary is reused until the
  /// rows appended + expired since it was built exceed this fraction of the
  /// live set, then rebuilt lazily on the next coreset solve. 0 rebuilds on
  /// any edit.
  double coreset_staleness_fraction = 0.5;
  /// Outlier: multiplier on the found ball radius before screening.
  double inflation = 1.0;
  /// Exp-mech baseline: refuse to enumerate more than this many grid centers.
  std::size_t max_grid_centers = std::size_t{1} << 18;
};

struct Request {
  /// Registry key, e.g. "one_cluster"; AlgorithmRegistry::Names() lists them.
  std::string algorithm = "one_cluster";
  /// The dataset. Points must lie in `domain`'s cube (snap them first).
  PointSet data;
  /// The data universe X^d. Required by every algorithm except the
  /// non-private baseline.
  std::optional<GridDomain> domain;
  /// Privacy budget of this request, carved from the Solver's accountant.
  PrivacyParams budget{1.0, 1e-9};
  /// Utility failure probability.
  double beta = 0.1;
  /// Target cluster size t (one-cluster, baselines; 0 = invalid there).
  std::size_t t = 0;
  /// Number of balls for k-cluster.
  std::size_t k = 2;
  /// Outlier screening: fraction of points the inlier ball should hold.
  double inlier_fraction = 0.9;
  /// Sample-aggregate: stability fraction alpha in (0, 1].
  double alpha = 0.5;
  /// Sample-aggregate: block size m (0 = target ~400 blocks, i.e.
  /// m = max(1, n/3600), since the aggregator's noise floor binds on the
  /// number of blocks k = n/(9m), not on block size).
  std::size_t block_size = 0;
  /// Sample-aggregate: the non-private block analysis (defaults to the
  /// coordinate-wise mean when unset).
  Estimator estimator;
  /// Worker threads for the deterministic numeric kernels of the selected
  /// algorithm (0 = one per hardware thread, 1 = serial). Released outputs
  /// are bit-identical at any setting: threads never touch the request's Rng
  /// stream, and the parallel work decomposition depends only on the problem
  /// size (see src/dpcluster/parallel/).
  std::size_t num_threads = 1;
  /// Algorithm-specific knobs.
  Tuning tuning;
  /// Optional scope label for the ledger; "" = "<algorithm>#<index>".
  std::string label;
  /// Index-reuse hook: a shared geometry index over exactly `data` (same
  /// rows, every row active — see BuildSharedIndex / ShareIndexAcross).
  /// Algorithms that own geometry (one_cluster, k_cluster, outlier_screen)
  /// borrow it instead of rebuilding their spatial index, so a RunAll batch
  /// over the same dataset indexes it once. Released outputs are
  /// bit-identical with or without it; algorithms restore the index's state
  /// before returning. Ignored by algorithms that never index (baselines,
  /// interior point, sample-aggregate's block pipeline).
  std::shared_ptr<IndexedDataset> shared_index;

  /// Generic field validation (budget, beta, fractions, shared_index
  /// consistency); algorithm-specific requirements are checked by
  /// Algorithm::ValidateRequest.
  Status Validate() const;
};

/// Builds a shared geometry index over request.data / request.domain, ready
/// to assign to Request::shared_index (the request must carry a domain).
Result<std::shared_ptr<IndexedDataset>> BuildSharedIndex(
    const Request& request);

/// The RunAll batching hook: builds one index from the first request carrying
/// a domain and attaches it to every request in the batch with the same data
/// and domain (requests that already carry an index are left untouched).
/// Returns the number of requests the index was attached to.
Result<std::size_t> ShareIndexAcross(std::span<Request> requests);

}  // namespace dpcluster

#endif  // DPCLUSTER_API_REQUEST_H_
