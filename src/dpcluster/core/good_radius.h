// Algorithm 1 (GoodRadius): privately approximate the smallest radius r such
// that some ball of radius r contains ~t input points.
//
// Guarantees (Lemma 3.6 / 4.6): with probability >= 1 - beta the output r
// satisfies (1) some ball of radius r in X^d contains >= t - 4*Gamma -
// (4/eps) ln(1/beta) points, and (2) r <= 4 * r_opt where r_opt is the radius
// of the smallest ball containing t points.
//
// Two engines:
//  * kRecConcave — the paper's Algorithm 1: the Laplace test for a zero-radius
//    cluster, then RecConcave on Q(r) = 1/2 min{t - L(r/2), L(r) - t + 4 Gamma}
//    over the radius grid {0, 1/(2|X|), ..., ceil(sqrt(d))}.
//  * kSparseVector — the alternative the paper mentions in footnote 2: a noisy
//    binary search for the smallest grid radius with L(r) >~ t. Simpler, but
//    its loss carries the log(sqrt(d)|X|) factor the paper's construction
//    avoids; kept as a measured ablation (bench_goodradius).

#ifndef DPCLUSTER_CORE_GOOD_RADIUS_H_
#define DPCLUSTER_CORE_GOOD_RADIUS_H_

#include <cstdint>

#include "dpcluster/common/status.h"
#include "dpcluster/core/radius_profile.h"
#include "dpcluster/coreset/coreset.h"
#include "dpcluster/dp/privacy_params.h"
#include "dpcluster/dp/rec_concave.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"
#include "dpcluster/random/rng.h"

namespace dpcluster {

class IndexedDataset;
class KnnCappedCounts;

struct GoodRadiusOptions {
  PrivacyParams params{1.0, 1e-9};
  /// Failure probability of the utility guarantee.
  double beta = 0.05;
  /// Engine choice (see file comment).
  enum class Engine { kRecConcave, kSparseVector };
  Engine engine = Engine::kRecConcave;
  /// Hard cap on the L(r,S) computation (DESIGN.md substitution #3).
  std::size_t max_profile_points = 4096;
  /// Event generator for the kRecConcave engine's L(r,S) profile:
  /// auto (= grid, for every unweighted build), grid (t-NN pruned through
  /// geo/SpatialGrid, ~O(n t) at low dimension), or exact (the all-pairs
  /// O(n^2 (d + log n)) sweep, kept as the oracle the tests compare grid
  /// against). Released outputs are bit-identical for every choice — the
  /// pruning is lossless (see core/radius_profile.h); only the runtime
  /// moves. The kSparseVector engine answers its radius counts from
  /// per-point t-NN rows (geo/KnnCappedCounts, O(n t) memory — it never
  /// materializes the n x n PairwiseDistances matrix) and ignores this knob.
  ProfileIndex profile_index = ProfileIndex::kAuto;
  /// Borrowed caller-maintained t-NN rows for the kSparseVector engine on
  /// the IndexedDataset entry point: when set, the engine answers its radius
  /// counts from these rows instead of building its own O(n t) structure.
  /// The streaming path keeps them current across Insert/Remove batches via
  /// KnnCappedCounts::ApplyBatch, so a query after an edit pays only the
  /// rows the edit touched — this is the amortization the incremental index
  /// exists for. Must describe the index's active set with cap() == t
  /// (validated); rows are bit-identical to a fresh Build by ApplyBatch's
  /// contract, so released outputs are unchanged. Ignored by the PointSet
  /// entry point and the kRecConcave engine. Not owned.
  const KnnCappedCounts* shared_counts = nullptr;
  /// Ignored; kept for the one caller IndexGeometry's comment names
  /// (core/radius_profile.h).
  IndexGeometry index_geometry = IndexGeometry::kExact;
  /// Worker threads for the deterministic numeric passes (the O(n^2 d)
  /// profile / pairwise builds). 0 = one per hardware thread, 1 = serial.
  /// Released outputs are bit-identical at any setting: threads never touch
  /// the Rng, and the work decomposition is independent of the thread count.
  std::size_t num_threads = 1;
  /// When n exceeds the effective profile cap, run the radius stage on a
  /// uniform subsample of that many rows with t rescaled proportionally.
  /// Privacy only improves (amplification by subsampling, Lemma 6.4); utility
  /// gains a sampling error of ~sqrt(t) in the counts. Off by default so the
  /// profile cap stays an explicit, opted-into tradeoff.
  bool subsample_large_inputs = false;
  /// Multiplier on max_profile_points for the subsample path when the ~O(n t)
  /// grid profile serves the subsampled problem cheaply (RecConcave engine;
  /// under auto, only while the rescaled t - 1 stays <= 1/4 of the enlarged
  /// size, or 1/2 when its cell grid collapses to one cell): the cap that
  /// guards the quadratic sweep is far too conservative for the t-NN pruned
  /// build, so the subsample keeps ~factor more rows (less sampling error) at
  /// ~the same cost. 1 reproduces the pre-grid behavior; must be >= 1.
  /// Ignored when the exact sweep or the SparseVector engine would run.
  double subsample_grid_cap_factor = 10.0;
  /// Coreset stage for the PointSet entry point: when enabled and n >=
  /// coreset.min_points, the input is first collapsed to a weighted k-center
  /// summary (coreset/coreset.h) and the call runs on the summary's weighted
  /// index — every count then weighs summary rows by their multiplicities.
  /// Accuracy moves by at most the summary's coverage radius; privacy is
  /// unchanged (the summary is internal, the mechanisms' sensitivity analysis
  /// applies to the expanded dataset it stands for). The IndexedDataset entry
  /// point never re-compresses (its caller owns the index's construction).
  CoresetOptions coreset;
  /// If true, Gamma uses the paper's verbatim formula (astronomical); default
  /// sizes Gamma by what this RecConcave implementation actually needs.
  bool paper_constants = false;
  /// Inner RecConcave tuning (epsilon/beta are overwritten by this algorithm).
  /// Default: solve the whole radius grid in one exponential-mechanism level
  /// (base_domain_size 2^22). Because this build substitutes the exponential
  /// mechanism for the choosing mechanism (DESIGN.md #1), extra recursion
  /// levels only split the budget without improving the bound; set
  /// base_domain_size to 32 to exercise the paper-faithful log* recursion
  /// (bench_goodradius measures the difference).
  RecConcaveOptions rec_concave = [] {
    RecConcaveOptions rc;
    rc.base_domain_size = std::uint64_t{1} << 26;  // Flat up to |X| ~ 2^24.
    return rc;
  }();

  Status Validate() const;
};

struct GoodRadiusResult {
  /// The selected radius (a point of the solution grid).
  double radius = 0.0;
  /// Solution-grid index of the radius.
  std::uint64_t grid_index = 0;
  /// The promise Gamma used; the cluster-size loss is ~4*Gamma (releasable).
  double gamma = 0.0;
  /// True if the zero-radius shortcut (step 2) fired.
  bool zero_radius_shortcut = false;
};

/// Runs GoodRadius on dataset s (points must lie in `domain`'s cube).
Result<GoodRadiusResult> GoodRadius(Rng& rng, const PointSet& s, std::size_t t,
                                    const GridDomain& domain,
                                    const GoodRadiusOptions& options);

/// Runs GoodRadius over the active points of a prebuilt geo/IndexedDataset
/// (domain taken from the index). Released outputs are bit-identical to
/// GoodRadius(rng, index.ActiveView(), t, index.domain(), options) — the
/// profile / radius-count structures are served by the shared index instead
/// of being rebuilt, which is how KCluster amortizes its per-round geometry.
/// Does not mutate the index.
Result<GoodRadiusResult> GoodRadius(Rng& rng, const IndexedDataset& index,
                                    std::size_t t,
                                    const GoodRadiusOptions& options);

/// The Gamma promise GoodRadius would use for these parameters (releasable,
/// data-independent). Exposed so callers can size t >> 4*Gamma.
double GoodRadiusGamma(const GridDomain& domain, const GoodRadiusOptions& options);

}  // namespace dpcluster

#endif  // DPCLUSTER_CORE_GOOD_RADIUS_H_
