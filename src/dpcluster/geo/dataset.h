// IndexedDataset: the shared geometry layer of the library. One object
// bundles the dataset (PointSet), its universe (GridDomain), and a lazily
// built, cached, deletion-capable SpatialGrid behind an active-set view, so
// that algorithms *borrow* the hottest data structure in the codebase instead
// of rebuilding it ad hoc:
//
//  * KCluster peels one cluster per round and removes the covered points
//    incrementally (Remove / RemoveWithin) — k grid builds amortize to one.
//  * GoodRadius / RadiusProfile::Build run their t-NN pruned profile through
//    the prebuilt index (BatchKnn) instead of indexing the round's subset.
//  * The footnote-2 SparseVector engine answers its ~log|X| capped radius
//    counts from per-point t-NN rows (KnnCappedCounts, O(n t) memory)
//    instead of the n x n PairwiseDistances matrix.
//  * Solver::RunAll batches attach one shared index to many requests over
//    the same dataset (api/request.h).
//
// Exactness contract: every query answers over exactly the active points and
// is bit-identical to rebuilding a fresh index over ActiveView() — deletion
// is structural (live-prefix partitioning inside the grid's CSR cells), never
// approximate, and the distance kernels match la/vector_ops' Distance
// accumulation order. Snapshot/Restore make the mutation reversible in
// O(n + cells) so one index serves many runs.
//
// Threading: mutators and queries must be called from one thread at a time
// (the library convention — algorithms query serially and hand a ThreadPool
// to the batched calls for internal parallelism). Batched queries are
// bit-identical at any thread count.

#ifndef DPCLUSTER_GEO_DATASET_H_
#define DPCLUSTER_GEO_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dpcluster/common/status.h"
#include "dpcluster/geo/ball.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"
#include "dpcluster/geo/spatial_grid.h"

namespace dpcluster {

class ThreadPool;

/// PointSet + GridDomain + cached deletion-capable SpatialGrid, behind an
/// active-set view. Move-only: the grid borrows the stored points.
///
/// Weighted datasets: the three-argument Create attaches an integer
/// multiplicity to every row, making the dataset semantically equal to the
/// *expanded* dataset in which row i appears weight(i) times. Every query
/// answers in expanded terms — BatchKnn rows are the k smallest distances in
/// the expanded multiset (a row's weight-1 duplicate copies sit at distance
/// exactly 0), BatchCountWithin sums mass, KnnCappedCounts caps expanded
/// counts — and is pinned bit-identical to running the unweighted query on
/// the duplicate-expanded PointSet (weighted_geometry_test). This is what
/// lets the coreset layer (coreset/coreset.h) stand a ~2^20-point dataset
/// behind a few-thousand-row summary without changing any consumer.
class IndexedDataset {
 public:
  /// Takes ownership of the dataset. Points must lie in `domain`'s cube
  /// (snap them first — the same contract every algorithm already has).
  static Result<IndexedDataset> Create(PointSet points, GridDomain domain);

  /// Weighted variant: row i carries multiplicity weights[i] >= 1
  /// (weights.size() == points.size(); an empty vector means all-ones, i.e.
  /// the unweighted dataset).
  static Result<IndexedDataset> Create(PointSet points, GridDomain domain,
                                       std::vector<std::uint64_t> weights);

  IndexedDataset(IndexedDataset&&) = default;
  IndexedDataset& operator=(IndexedDataset&&) = default;
  IndexedDataset(const IndexedDataset&) = delete;
  IndexedDataset& operator=(const IndexedDataset&) = delete;

  const PointSet& points() const { return points_; }
  const GridDomain& domain() const { return domain_; }
  /// Total rows, including removed ones.
  std::size_t size() const { return points_.size(); }
  std::size_t dim() const { return points_.dim(); }
  std::size_t active_size() const { return active_count_; }
  bool IsActive(std::size_t i) const { return active_[i] != 0; }

  /// True when rows carry multiplicities (three-argument Create).
  bool weighted() const { return !weights_.empty(); }
  /// Multiplicity of row i (1 for unweighted datasets).
  std::uint64_t weight(std::size_t i) const {
    return weights_.empty() ? 1 : weights_[i];
  }
  /// The raw multiplicity vector (empty for unweighted datasets).
  std::span<const std::uint64_t> weights() const { return weights_; }
  /// Total multiplicity of the active rows — the expanded dataset size the
  /// queries answer over. Equals active_size() when unweighted.
  std::uint64_t active_mass() const {
    return weighted() ? active_mass_ : active_count_;
  }
  /// Total multiplicity of all rows, removed or not.
  std::uint64_t total_mass() const {
    return weighted() ? total_mass_ : points_.size();
  }

  /// Original row ids of the active points, ascending.
  std::span<const std::uint32_t> ActiveIds() const;

  /// Materializes the active points as a PointSet, rows in ascending
  /// original order — exactly PointSet::Subset over the active ids, which is
  /// what index-free code paths (GoodCenter, RefineRadius, subsampling)
  /// consume.
  PointSet ActiveView() const;

  /// Appends one row as a new active point and returns its id (== the old
  /// size()). Amortized O(1) on the cached grid: the grid's per-cell segment
  /// doubles in place instead of rebuilding. The point must
  /// have dim() coordinates and lie in the domain cube (snap first; both are
  /// validated). `weight` attaches a multiplicity: inserting weight != 1
  /// into an unweighted dataset materializes the all-ones weight vector
  /// first. Queries after Insert stay bit-identical to a fresh rebuild over
  /// the active rows at any thread count (dataset_test pins this).
  Result<std::size_t> Insert(std::span<const double> point,
                             std::uint64_t weight = 1);

  /// Drops the removed rows for good: rebuilds storage over the active rows
  /// (ascending original order), renumbering them 0..active_size()-1, and
  /// discards the cached grid for lazy rebuild. Returns
  /// old_ids with old_ids[new_id] = previous id — the caller's remap for any
  /// ids it kept. Outstanding Snapshots predate the renumbering and no
  /// longer apply. This is the live/total compaction step the streaming
  /// layer triggers when long-lived expiry leaves the arena mostly dead.
  std::vector<std::uint32_t> Compact();

  /// Deactivates one active row (O(1) on the cached grid).
  void Remove(std::size_t id);
  /// Deactivates the listed rows (each must currently be active).
  void Remove(std::span<const std::uint32_t> ids);
  /// Deactivates every active point the ball contains (Ball::Contains
  /// semantics, i.e. the same predicate KCluster's per-round removal used).
  /// Returns the number of points removed.
  std::size_t RemoveWithin(const Ball& ball);

  /// The active mask at a moment in time; restorable in O(n + cells).
  struct Snapshot {
    std::vector<std::uint8_t> active;
    std::size_t active_count = 0;
    std::uint64_t epoch = 0;  // identity token of the owning dataset
  };
  Snapshot TakeSnapshot() const;
  /// Rewinds the active set to `snapshot` (from this dataset; size-checked).
  /// A snapshot taken before later Inserts still applies: the pre-existing
  /// rows rewind to their snapshotted state and the appended rows keep their
  /// current activation. Snapshots from a different dataset or from before a
  /// Compact() (the rows were renumbered) are rejected — each snapshot
  /// carries the identity token of the numbering it was taken under.
  Status Restore(const Snapshot& snapshot);
  /// Reactivates every row.
  void RestoreAll();

  /// Row r of `out` (row stride `k`) receives the k smallest distances from
  /// active point ActiveIds()[r] to the other active points (self excluded;
  /// ascending when `sorted`, selection order otherwise). Requires
  /// k <= active_size() - 1 and out.size() == active_size() * k. Exact and
  /// bit-identical to a fresh SpatialGrid over ActiveView() at any thread
  /// count. Builds the cached grid on first use.
  ///
  /// Weighted datasets answer in expanded terms: row r holds the k smallest
  /// distances in the expanded multiset (the query row's weight-1 duplicate
  /// copies contribute distance exactly 0.0, row j contributes weight(j)
  /// copies of its distance), requires k <= active_mass() - 1, and is always
  /// ascending (`sorted` is ignored). Bit-identical to the unweighted query
  /// on the duplicate-expanded PointSet at any thread count.
  void BatchKnn(std::size_t k, std::span<double> out, ThreadPool* pool,
                bool sorted = true) const;

  /// out[r] = number of active points within distance r of ActiveIds()[r]
  /// (itself included); out.size() == active_size(). Exact
  /// (sqrt-of-squared <= r, Distance accumulation order). Weighted datasets
  /// count mass: out[r] sums the multiplicities of the rows within r —
  /// exactly the expanded-dataset count.
  void BatchCountWithin(double r, std::span<std::size_t> out,
                        ThreadPool* pool) const;

  /// The cached grid, built on first use with cells sized for
  /// `expected_neighbors`-NN queries (any k stays correct; only cell
  /// granularity is tuned). Subsequent calls reuse the existing build.
  const SpatialGrid& EnsureGrid(std::size_t expected_neighbors) const;

  /// True if the grid has been built (diagnostics / tests).
  bool grid_built() const { return grid_.has_value(); }

 private:
  IndexedDataset(PointSet points, GridDomain domain,
                 std::vector<std::uint64_t> weights = {});

  /// Weighted BatchKnn/BatchCountWithin backends: blocked dense scans through
  /// SquaredDistanceRows (weighted datasets are coreset-sized summaries, so
  /// the O(active^2 d) pass is the fast path, and it keeps per-pair values
  /// bit-identical to the grid's kernel on the expanded data).
  void BatchKnnWeighted(std::size_t k, std::span<double> out,
                        ThreadPool* pool) const;
  void BatchCountWithinWeighted(double r, std::span<std::size_t> out,
                                ThreadPool* pool) const;

  PointSet points_;
  GridDomain domain_;
  std::vector<std::uint64_t> weights_;  // empty = unweighted (all ones)
  std::uint64_t total_mass_ = 0;        // sum of weights_ (weighted only)
  std::uint64_t active_mass_ = 0;       // sum over active rows (weighted only)
  std::vector<std::uint8_t> active_;
  std::size_t active_count_ = 0;
  mutable std::vector<std::uint32_t> active_ids_;  // cache; see dirty flag
  mutable bool active_ids_dirty_ = false;
  mutable std::optional<SpatialGrid> grid_;  // lazy; kept in sync with active_
  std::uint64_t snapshot_epoch_ = 0;  // fresh per dataset; bumped by Compact
};

/// Order-sensitive 64-bit FNV-1a fingerprint of a dataset and its universe
/// (the row bytes plus n, d, |X|, and the axis length) — the identity check
/// the service layer's keyed index cache runs before reusing a cached
/// IndexedDataset under a client-chosen dataset key. Two inputs fingerprint
/// equal iff their rows and domain shape are byte-identical (up to hash
/// collision); row order matters, matching the ordered-multiset semantics
/// of PointSet.
std::uint64_t GeometryFingerprint(const PointSet& points,
                                  const GridDomain& domain);

/// Sorted per-active-point rows of the (cap-1) nearest-neighbor distances —
/// the O(n t) replacement for the n x n PairwiseDistances matrix on the
/// SparseVector GoodRadius path. Because every per-center ball count is
/// capped at `cap`, the cap-1 smallest distances determine min(B_r, cap)
/// exactly: if all of them are <= r the count saturates at cap, otherwise
/// the count is 1 + #{row entries <= r}. Distances are narrowed to float
/// with the same inclusive one-ulp rounding PairwiseDistances stores
/// (BumpDistanceUp), so the two backends agree on a count unless the
/// underlying doubles already straddle a float rounding boundary — the grid
/// accumulates coordinate-order squared diffs while the matrix uses the
/// Gram identity, whose ~1e-16 absolute rounding difference can cross a
/// float ulp for near-boundary distances on geometries whose coordinates
/// are not exactly representable (dataset_test pins equality on snapped
/// unit-cube data, where both formulas resolve identically).
class KnnCappedCounts {
 public:
  /// Builds the rows from `index`'s active points; 1 <= cap <= active_size().
  /// Fails with ResourceExhausted when active_size() > max_points (the same
  /// explicit cap contract PairwiseDistances::Compute had).
  ///
  /// Weighted datasets build *compressed* rows — per active row, the
  /// ascending distinct (bumped-float) distances paired with cumulative mass
  /// capped at cap-1 — so memory stays O(active_size^2) even when the
  /// expanded cap is ~10^6. Counts and CappedTopAverage are bit-identical to
  /// building the unweighted structure over the duplicate-expanded dataset
  /// (the cap then satisfies 1 <= cap <= active_mass()).
  static Result<KnnCappedCounts> Build(const IndexedDataset& index,
                                       std::size_t cap, std::size_t max_points,
                                       ThreadPool* pool = nullptr);

  /// Active points covered.
  std::size_t size() const { return n_; }
  /// The count cap the rows were built for.
  std::size_t cap() const { return cap_; }
  /// Bytes held by the distance rows (the structure's dominant allocation).
  std::size_t MemoryBytes() const {
    return rows_.size() * sizeof(float) + wvals_.size() * sizeof(float) +
           wmass_.size() * sizeof(std::uint64_t) +
           wrow_start_.size() * sizeof(std::size_t);
  }

  /// Streaming maintenance: realigns the rows with `index`'s active set
  /// after a batch of Inserts/Removes, recomputing only the rows the
  /// mutation actually touched. Call AFTER mutating the index; `added` are
  /// the newly active ids (no prior row), `removed` the deactivated ids
  /// (their rows are dropped). The reverse-neighbor question — "whose t-NN
  /// row did this point sit in?" — is answered by the grid itself: a
  /// CollectWithinPoint sweep from the mutated point's coordinates within
  /// `threshold_ub_` (a monotone upper bound on every row's t-th distance)
  /// yields the candidate rows, and each is confirmed against its own row
  /// threshold. Surviving rows a removed point influenced are recomputed
  /// from the grid; rows an added point beats get an in-place sorted insert
  /// (drop-last); everything else is untouched. The result is bit-identical
  /// to a fresh Build over the new active set at any thread count
  /// (dataset_test pins this). Weighted (compressed) structures do not
  /// support incremental maintenance — rebuild those. Fails if
  /// added/removed do not reconcile the rows with index.ActiveIds(), or if
  /// cap() now exceeds the active size.
  Status ApplyBatch(const IndexedDataset& index,
                    std::span<const std::uint32_t> added,
                    std::span<const std::uint32_t> removed,
                    ThreadPool* pool = nullptr);

  /// Pre-existing rows fully recomputed by the last ApplyBatch — the
  /// invalidation-selectivity numerator (new rows for added ids excluded).
  std::size_t last_invalidated() const { return last_invalidated_; }

  /// min(B_r(x_rank), cap) over the active points, x_rank the rank-th active
  /// point in ascending original order.
  std::size_t CountWithinCapped(std::size_t rank, double r) const;

  /// L(r) with counts capped at `top`: the average of the `top` largest
  /// values of min(B_r(x_i), top). Requires 1 <= top <= cap. Mirrors
  /// PairwiseDistances::CappedTopAverage (same scratch reuse: callers query
  /// serially).
  double CappedTopAverage(double r, std::size_t top) const;

 private:
  KnnCappedCounts() = default;

  static Result<KnnCappedCounts> BuildWeighted(const IndexedDataset& index,
                                               std::size_t cap,
                                               std::size_t max_points,
                                               ThreadPool* pool);

  std::size_t n_ = 0;
  std::size_t cap_ = 1;
  std::size_t k_ = 0;                // row width = cap - 1 (unweighted)
  std::vector<float> rows_;          // n_ x k_, each ascending (unweighted)
  std::vector<std::uint32_t> ids_;   // the active ids the rows describe
  float threshold_ub_ = 0.0f;  // >= every row's last entry; never shrinks
  std::size_t last_invalidated_ = 0;
  mutable std::vector<std::size_t> count_scratch_;  // n_ slots

  // Weighted (compressed) representation: per row, strictly ascending
  // distinct bumped-float distances with cumulative neighbor mass capped at
  // cap-1. Row r spans [wrow_start_[r], wrow_start_[r+1]).
  bool weighted_ = false;
  std::vector<float> wvals_;
  std::vector<std::uint64_t> wmass_;
  std::vector<std::size_t> wrow_start_;               // n_+1 offsets
  std::vector<std::uint64_t> center_mass_;            // per-row multiplicity
  mutable std::vector<std::pair<std::size_t, std::uint64_t>> wcount_scratch_;
};

}  // namespace dpcluster

#endif  // DPCLUSTER_GEO_DATASET_H_
