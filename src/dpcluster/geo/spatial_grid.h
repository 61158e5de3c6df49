// SpatialGrid: a uniform cell grid over the GridDomain cube for batched
// t-nearest-neighbor and radius-count queries — the index behind the
// subquadratic RadiusProfile build (core/radius_profile.cc) and the
// deletion-capable IndexedDataset layer (geo/dataset.h).
//
// The cube [0, axis]^d is cut into m^d equal cells (m chosen from n, d and
// the expected neighbor count k so that a cell holds ~k/4 points); points are
// bucketed into a CSR layout by cell id. A k-NN query expands Chebyshev
// rings of cells around the query's cell: after scanning rings 0..rho, every
// point within Euclidean distance rho * cell_size has been seen (a point in
// an unscanned cell differs from the query by more than rho * cell_size on
// some axis), so the search stops as soon as the current k-th smallest
// candidate distance is <= rho * cell_size. When the next ring would touch
// more cells than remain occupied — high d makes rings exponentially wide
// while occupancy stays <= n — the query degrades gracefully to a scan of
// the remaining occupied cells, which completes coverage in one step. Either
// way the returned distances are *exact*: the same multiset brute force
// produces, computed by the same SquaredDistance kernel.
//
// Structural deletion: each cell's CSR segment is split into a live prefix
// [seg_start, cell_end) and a dead suffix. Remove() swap-moves a point into
// its cell's dead suffix in O(1); queries scan live prefixes only, so after
// any deletion sequence every query returns exactly what a fresh Build over
// the surviving points would return (both are exact). ResetActive()
// re-partitions every segment from an activity mask in O(n + cells), which
// is how IndexedDataset implements Snapshot/Restore without re-indexing.
//
// Structural insertion: the CSR storage is an arena of per-cell segments
// (seg_start/seg_end/seg_cap). Build lays the segments out back to back with
// zero slack — byte-identical to the classic prefix-sum layout — and
// Append() places a new point at its cell's live-prefix boundary. A full
// segment is relocated to the arena's end with doubled capacity (the old
// slots become unreferenced holes), so insertion is amortized O(1) by the
// usual vector-doubling argument. Queries never depend on segment addresses
// or intra-cell order, so every answer stays bit-identical to a fresh
// rebuild over the same live set.
//
// Determinism: queries return the sorted k smallest distance values, which
// are independent of cell-enumeration order, of tie-breaking among
// equidistant neighbors, and of the intra-cell permutation left behind by
// swap-removal. BatchKnnDistances writes each query's row into a
// caller-owned slice through ParallelForChunks, so the batch is bit-identical
// at any thread count.

#ifndef DPCLUSTER_GEO_SPATIAL_GRID_H_
#define DPCLUSTER_GEO_SPATIAL_GRID_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "dpcluster/common/status.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"

namespace dpcluster {

class ThreadPool;

/// Which coordinate space the cell grid is built over.
///
///  * kExact: cells over the original d coordinates — the right call at low d,
///    where Chebyshev rings prune well.
///  * kProjected: cells over a fixed-seed JL projection into
///    ProjectedGridDim(n, d, k) dimensions. Candidate collection happens in the
///    low-d projected space; every surviving candidate is re-checked with the
///    exact original-space distance, and a certified lower bound
///    (orthonormal-row projection + residual norms) rejects only points that
///    provably cannot affect the answer — so the returned k-NN multiset and
///    radius counts are bit-identical to kExact for any projection seed.
///  * kAuto: kExact. When the original-d grid degenerates to a single cell
///    (d >= ~16 at bench sizes), batched queries run a blocked dense scan
///    that streams the dataset once per query chunk — measured faster than
///    the projected filter at every (d, k, workload) we benched, because
///    high-d distance concentration leaves the certified lower bound too
///    weak to reject candidates. kProjected remains an explicit opt-in.
enum class IndexGeometry { kAuto, kExact, kProjected };

std::string_view IndexGeometryName(IndexGeometry geometry);
/// Inverse of IndexGeometryName; InvalidArgument on unknown names.
Result<IndexGeometry> IndexGeometryFromName(std::string_view name);

/// The projected-index target dimension cap: ceil(2/3 * log2 n) clamped to
/// [4, 12] — enough axes that cells separate candidates, few enough that ring
/// enumeration stays cheap.
std::size_t ProjectedIndexDim(std::size_t n);

/// The dimension the projected grid actually builds over: the largest
/// p <= min(ProjectedIndexDim(n), d) whose cell grid keeps >= 4 cells per
/// axis for `expected_neighbors`-sized queries, floored at 2. Spending the
/// cell budget on fewer, finer axes keeps the Chebyshev rings meaningful —
/// at p = ProjectedIndexDim(n) with large `expected_neighbors` the projected
/// grid itself would collapse to one cell per axis, degrading every query to
/// the same full scan the projection was built to avoid. Purely a layout
/// choice: results are bit-identical for any p (exact re-check).
std::size_t ProjectedGridDim(std::size_t n, std::size_t d,
                             std::size_t expected_neighbors);

/// True iff the exact-geometry grid sized for `expected_neighbors`-NN queries
/// collapses to one cell per axis — the regime where batched k-NN runs the
/// blocked dense scan, whose cost is one streamed pass over the data per
/// query chunk regardless of k.
bool GridCollapsesToSingleCell(std::size_t n, std::size_t d,
                               std::size_t expected_neighbors);

/// Resolves kAuto: kExact (see the IndexGeometry comment — the blocked dense
/// scan beats the projected filter on every workload we measured, so the
/// projection is opt-in only). Explicit requests pass through untouched.
IndexGeometry ResolveIndexGeometry(IndexGeometry requested, std::size_t n,
                                   std::size_t d,
                                   std::size_t expected_neighbors);

/// Uniform cell grid over `domain`'s cube for exact k-NN distance queries.
class SpatialGrid {
 public:
  /// Indexes `s` (points must lie in the cube). `expected_neighbors` sizes
  /// the cells for k-NN queries with k of that order; any k stays correct.
  /// `geometry` selects the cell-grid coordinate space (see IndexGeometry);
  /// every query answer is bit-identical across geometries. `pool` only
  /// parallelizes the one-off projection GEMM of a kProjected build.
  static Result<SpatialGrid> Build(const PointSet& s, const GridDomain& domain,
                                   std::size_t expected_neighbors,
                                   IndexGeometry geometry = IndexGeometry::kAuto,
                                   ThreadPool* pool = nullptr);

  /// Indexes `s` over its own bounding box rather than a domain cube (exact
  /// geometry): cells are anchored at the per-axis data minimum and sized
  /// from the widest axis extent, so any finite coordinates work — negative
  /// ones included. For callers with no GridDomain (geo/minimal_ball).
  /// InvalidArgument on an empty set or a non-finite coordinate.
  static Result<SpatialGrid> BuildOverBoundingBox(
      const PointSet& s, std::size_t expected_neighbors);

  std::size_t size() const { return n_; }
  /// Points not structurally removed; queries see only these.
  std::size_t live_size() const { return live_; }
  std::size_t dim() const { return dim_; }
  /// The resolved geometry (kExact or kProjected, never kAuto).
  IndexGeometry geometry() const { return geometry_; }
  /// Dimensionality of the cell grid: dim() for kExact, the projection's
  /// target dimension for kProjected.
  std::size_t geom_dim() const { return geom_dim_; }
  /// Cells per axis (1 = degenerate single-cell grid, queries scan all points).
  std::size_t cells_per_axis() const { return cells_per_axis_; }
  double cell_size() const { return cell_size_; }

  /// True if `point` has not been removed.
  bool IsLive(std::size_t point) const {
    return pos_[point] < cell_end_[cell_of_[point]];
  }

  /// Structurally removes a live point: O(1) swap into its cell's dead
  /// suffix. Subsequent queries (issued for live points) behave exactly as if
  /// the grid had been rebuilt without it.
  void Remove(std::size_t point);

  /// Re-partitions every cell segment so exactly the points with
  /// active[point] != 0 are live (active.size() == size()). O(n + cells);
  /// the basis of IndexedDataset's Snapshot/Restore.
  void ResetActive(std::span<const std::uint8_t> active);

  /// Structurally inserts point id size() — the last row of `all_data`, which
  /// must be the indexed PointSet's current storage of (size() + 1) * dim()
  /// doubles. Rebinds the borrowed span first (PointSet::Add may have
  /// reallocated), then places the new point at its cell's live-prefix
  /// boundary; a full segment is relocated with doubled capacity (amortized
  /// O(1)). The new row must lie inside the cube the grid was built over.
  /// Returns false without mutating anything for kProjected geometry (the
  /// projection and cell origins are anchored to the build-time data) —
  /// callers drop the grid and rebuild lazily instead.
  bool Append(std::span<const double> all_data);

  /// The min(k, live-1) smallest distances from s[query] to the other live
  /// points (self excluded by index, so duplicate coordinates count as
  /// neighbors at distance 0; `query` must itself be live). Exact — equal to
  /// the brute-force multiset over the live points; ascending when `sorted`,
  /// in selection order otherwise (cheaper — the radius profile only
  /// consumes the multiset). `scratch` carries reusable buffers across calls
  /// (see Workspace).
  struct Workspace {
    std::vector<double> candidates;     // squared distances
    std::vector<std::uint32_t> hist16;  // 2^16 selection buckets, kept zeroed
    std::vector<std::uint32_t> touched;  // buckets dirtied by this query
    std::vector<double> ties;            // the k-th value's tie bucket
    std::vector<std::int64_t> center;    // decoded query cell coordinates
    std::vector<double> dense_block;     // blocked one-cell distance rows
  };
  void KnnDistances(std::size_t query, std::size_t k, Workspace& scratch,
                    std::vector<double>& out, bool sorted = true) const;

  /// All n queries at once: row i of `out` (row stride `k`) receives
  /// KnnDistances(i, k, sorted) — callers pass k <= n-1. out.size() must be
  /// n * k. Only valid while no point has been removed (every index is
  /// queried). Rows are chunk-owned, so the result is bit-identical at any
  /// thread count.
  void BatchKnnDistances(std::size_t k, std::span<double> out,
                         ThreadPool* pool, bool sorted = true) const;

  /// Batched k-NN for an explicit query list (every id must be live): row r
  /// of `out` (row stride `k`) receives KnnDistances(queries[r], k, sorted);
  /// callers pass k <= live_size()-1 and out.size() == queries.size() * k.
  /// Bit-identical at any thread count.
  void BatchKnnDistancesFor(std::span<const std::uint32_t> queries,
                            std::size_t k, std::span<double> out,
                            ThreadPool* pool, bool sorted = true) const;

  /// Number of live points within Euclidean distance r of s[query] (the
  /// query itself included; it must be live). The comparison is
  /// sqrt(squared) <= r with the same accumulation order as la/vector_ops'
  /// Distance, so the count matches a brute-force sweep bit for bit.
  std::size_t CountWithin(std::size_t query, double r,
                          Workspace& scratch) const;

  /// Batched CountWithin over an explicit query list; out.size() must equal
  /// queries.size(). Bit-identical at any thread count.
  void BatchCountWithin(std::span<const std::uint32_t> queries, double r,
                        std::span<std::size_t> out, ThreadPool* pool) const;

  /// Appends to `out` the ids of every live point within Euclidean distance r
  /// of s[query] (the query itself included; same sqrt(squared) <= r
  /// predicate as CountWithin), using the same Chebyshev-box pruning. Ids
  /// arrive in cell-enumeration order — callers that need determinism across
  /// builds sort or treat the result as a set (the coreset builder's
  /// per-point relaxations commute, so it needs neither). `out` is not
  /// cleared.
  void CollectWithin(std::size_t query, double r, Workspace& scratch,
                     std::vector<std::uint32_t>& out) const;

  /// CollectWithin for an arbitrary coordinate row `p` (p.size() == dim()):
  /// appends every live id within Euclidean distance r of p, same predicate
  /// as CollectWithin. `p` need not be an indexed point — this is how
  /// KnnCappedCounts finds the rows a *removed* point used to influence.
  /// Projected grids fall back to a full occupied-cell scan (still exact:
  /// the predicate always uses original-space distances).
  void CollectWithinPoint(std::span<const double> p, double r,
                          Workspace& scratch,
                          std::vector<std::uint32_t>& out) const;

 private:
  SpatialGrid() = default;

  /// Anchors the cell grid at the per-axis minimum of the GeomRow()s and
  /// sizes cells from the widest axis extent, so the grid covers the data
  /// (the projected and the bounding-box builds).
  void AnchorCellsAtBoundingBox(std::size_t expected_neighbors);
  /// Buckets every point by cell into the CSR arena (the tail of every
  /// build, once the cell geometry is set).
  void LayOutCells();

  /// Row `i`'s coordinates in the cell grid's space: the original row for
  /// kExact, the projected row for kProjected.
  const double* GeomRow(std::size_t i) const {
    return (geometry_ == IndexGeometry::kProjected ? proj_points_.data()
                                                   : data_.data()) +
           i * geom_dim_;
  }
  std::uint64_t CellOf(const double* p) const;
  /// Appends the squared distances from q to every live point of cell `cell`.
  void ScanCell(std::uint64_t cell, std::span<const double> q,
                std::vector<double>& cands) const;
  /// k-NN rows for a chunk of queries on the degenerate one-cell exact grid
  /// (cells_per_axis_ == 1): tiles the live prefix across the chunk so the
  /// dataset streams once per chunk instead of once per query. Per-pair
  /// values, candidate order, self removal, and selection mirror KnnDistances
  /// exactly, so each output row is byte-identical to the per-query path.
  void DenseKnnChunk(const std::uint32_t* queries, std::size_t nq,
                     std::size_t k, double* out, bool sorted,
                     Workspace& scratch) const;
  /// Projected-mode cell scan for k-NN: appends the *exact* original-space
  /// squared distance of every live point whose certified projected lower
  /// bound does not exceed `bound_sq`, periodically re-selecting the
  /// `select_k` smallest to tighten the bound mid-scan (the degenerate
  /// one-cell grid never reaches the per-ring selection otherwise).
  void ScanCellProjectedKnn(std::uint64_t cell, std::size_t query,
                            std::size_t select_k, Workspace& scratch,
                            double& bound_sq) const;
  /// Projected-mode cell scan for CountWithin: like the k-NN variant but with
  /// a fixed rejection bound (r^2 inflated by the lower-bound haircut).
  void ScanCellProjectedCount(std::uint64_t cell, std::size_t query,
                              double bound_sq,
                              std::vector<double>& cands) const;
  /// Decodes the query's cell coordinates into scratch.center and returns the
  /// largest Chebyshev ring radius that still touches the grid.
  std::size_t DecodeCenter(const double* p, Workspace& scratch) const;

  std::size_t n_ = 0;
  std::size_t live_ = 0;                    // points not removed
  std::size_t dim_ = 0;
  IndexGeometry geometry_ = IndexGeometry::kExact;  // resolved at Build
  std::size_t geom_dim_ = 0;                // == dim_ unless projected
  std::size_t cells_per_axis_ = 1;
  double cell_size_ = 1.0;
  std::span<const double> data_;     // borrowed from the indexed PointSet
  std::vector<double> proj_points_;  // n x geom_dim projected rows (projected)
  std::vector<double> geom_origin_;  // per-geom-axis cell origin (projected
                                     // coordinates are signed)
  std::vector<double> res_lo_;       // certified residual-norm bounds per
  std::vector<double> res_hi_;       // point (projected; see MakeResiduals)
  std::vector<std::uint64_t> seg_start_;   // segment start per cell, size m^d
  std::vector<std::uint64_t> seg_end_;     // used end (live + dead) per cell
  std::vector<std::uint64_t> seg_cap_;     // segment capacity per cell
  std::vector<std::uint64_t> cell_end_;    // live end per cell, size m^d
  std::vector<std::uint32_t> cell_points_;  // segment arena; each cell's
                                            // segment: live prefix, dead
                                            // suffix, free slack (relocated
                                            // segments leave dead holes)
  std::vector<std::uint64_t> occupied_;     // cells with a non-empty used
                                            // segment, ascending (kept across
                                            // removals, extended by Append)
  std::size_t live_occupied_ = 0;           // cells with a non-empty live prefix
  std::vector<std::uint64_t> cell_of_;      // cell id per point
  std::vector<std::uint32_t> pos_;          // position in cell_points_ per point
};

}  // namespace dpcluster

#endif  // DPCLUSTER_GEO_SPATIAL_GRID_H_
