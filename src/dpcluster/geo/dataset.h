// IndexedDataset: the shared geometry layer of the library. One object
// bundles the dataset (PointSet), its universe (GridDomain), and a lazily
// built, cached, deletion-capable SpatialGrid behind an active-set view, so
// that algorithms *borrow* the hottest data structure in the codebase instead
// of rebuilding it ad hoc:
//
//  * KCluster peels one cluster per round and removes the covered points
//    incrementally (Remove / RemoveWithin) — k grid builds amortize to one.
//  * GoodRadius / RadiusProfile::Build run their t-NN pruned profile (the
//    L(r, S) both GoodRadius engines read) through the prebuilt grid
//    (EnsureGrid + SpatialGrid::BatchKnnSupersetFor) instead of indexing the
//    round's subset. The grid keeps the cell size of
//    whichever caller built it first.
//  * Solver::RunAll batches attach one shared index to many requests over
//    the same dataset (api/request.h).
//  * RadiusProfile::Build memoizes the profile of the full row set per t
//    (LookupProfile / StoreProfile), so repeat solves over a resident index
//    skip the t-NN pass and the sweep altogether.
//
// Exactness contract: every query through the cached grid (EnsureGrid), and
// every radius profile built from it, answers over exactly the active points
// and is bit-identical to rebuilding a fresh index over ActiveView() —
// dataset_test pins this at 1 and 8 threads. Deletion is structural (live-prefix partitioning inside the grid's CSR cells), never
// approximate, and the distance kernels match la/vector_ops' Distance
// accumulation order. Snapshot/Restore make the mutation reversible in
// O(n + cells) so one index serves many runs.
//
// Threading: mutators and queries must be called from one thread at a time
// (the library convention — algorithms query serially and hand a ThreadPool
// to the grid's batched calls for internal parallelism, which are
// bit-identical at any thread count).

#ifndef DPCLUSTER_GEO_DATASET_H_
#define DPCLUSTER_GEO_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dpcluster/common/status.h"
#include "dpcluster/geo/ball.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"
#include "dpcluster/geo/spatial_grid.h"

namespace dpcluster {

/// PointSet + GridDomain + cached deletion-capable SpatialGrid, behind an
/// active-set view. Move-only: the grid borrows the stored points.
///
/// Weighted datasets: the three-argument Create attaches an integer
/// multiplicity to every row, making the dataset semantically equal to the
/// *expanded* dataset in which row i appears weight(i) times. The consumers
/// that read the weights answer in expanded terms — RadiusProfile::Build's
/// weighted sweep, the ball mass RefineRadius counts (MassWithin), and
/// GoodRadius over them — and each is pinned bit-identical to the unweighted
/// computation on the duplicate-expanded PointSet (weighted_geometry_test).
/// The cached grid itself indexes one id per row, unweighted. This is what
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
  /// what index-free code paths (GoodCenter, RefineRadius) consume.
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

  /// The cached grid, built on first use with cells sized for
  /// `expected_neighbors`-NN queries (any k stays correct; only cell
  /// granularity is tuned). Subsequent calls reuse the existing build.
  const SpatialGrid& EnsureGrid(std::size_t expected_neighbors) const;

  /// True if the grid has been built (diagnostics / tests).
  bool grid_built() const { return grid_.has_value(); }

  /// Breakpoints of one memoized radius profile: core/RadiusProfile's
  /// StepFunction as plain vectors, so geo/ needs no core/ or dp/ include.
  struct ProfileBreakpoints {
    std::vector<std::uint64_t> starts;
    std::vector<double> values;
  };
  /// Profile builds served from the memo and builds that ran cold since the
  /// last TakeProfileMemoCounts (the index cache folds them into its stats).
  struct ProfileMemoCounts {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  /// Profiles kept, most recently used first; one is ~1-2k pieces.
  static constexpr std::size_t kProfileMemoCapacity = 4;

  /// The memo of RadiusProfile::Build's default (kGrid) profile of the FULL
  /// row set at `t`. L(r, S) is a deterministic function of (S, t) — privacy
  /// comes only from the noise applied to it afterwards — so a memoized
  /// profile releases exactly the bytes a cold build would. Returns null and
  /// counts a miss when some row is inactive (the profile would describe a
  /// subset) or t is not memoized; counts a hit otherwise. Weighted datasets
  /// never memoize (their profile takes the exact weighted sweep).
  const ProfileBreakpoints* LookupProfile(std::size_t t) const;
  /// Memoizes the breakpoints (`starts`, `values`) as the full-row-set
  /// profile at `t`, evicting the least recently used entry beyond
  /// kProfileMemoCapacity. Ignored unless every row is active. Insert and
  /// Compact clear the memo (the rows change); Remove/Restore only gate
  /// lookups, since restoring the full active set restores exactly the rows
  /// the memo describes.
  void StoreProfile(std::size_t t, std::span<const std::uint64_t> starts,
                    std::span<const double> values) const;
  /// Returns and zeroes the memo's hit/miss counters.
  ProfileMemoCounts TakeProfileMemoCounts();

 private:
  IndexedDataset(PointSet points, GridDomain domain,
                 std::vector<std::uint64_t> weights = {});

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
  // Full-row-set radius profiles by t, most recently used first (see
  // LookupProfile); cleared by Insert and Compact.
  mutable std::vector<std::pair<std::size_t, ProfileBreakpoints>>
      profile_memo_;
  mutable ProfileMemoCounts profile_memo_counts_;
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

}  // namespace dpcluster

#endif  // DPCLUSTER_GEO_DATASET_H_
