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
#include <vector>

#include "dpcluster/common/status.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"

namespace dpcluster {

class ThreadPool;

/// True iff the grid sized for `expected_neighbors`-NN queries collapses to
/// one cell per axis — the regime where batched k-NN runs the blocked dense
/// scan, whose cost is one streamed pass over the data per query chunk
/// regardless of k.
bool GridCollapsesToSingleCell(std::size_t n, std::size_t d,
                               std::size_t expected_neighbors);

/// Uniform cell grid over `domain`'s cube for exact k-NN distance queries.
class SpatialGrid {
 public:
  /// Indexes `s` (points must lie in the cube). `expected_neighbors` sizes
  /// the cells for k-NN queries with k of that order; any k stays correct.
  static Result<SpatialGrid> Build(const PointSet& s, const GridDomain& domain,
                                   std::size_t expected_neighbors);

  /// Indexes `s` over its own bounding box rather than a domain cube: cells are anchored at the per-axis data minimum and sized
  /// from the widest axis extent, so any finite coordinates work — negative
  /// ones included. For callers with no GridDomain (geo/minimal_ball).
  /// InvalidArgument on an empty set or a non-finite coordinate.
  static Result<SpatialGrid> BuildOverBoundingBox(
      const PointSet& s, std::size_t expected_neighbors);

  std::size_t size() const { return n_; }
  /// Points not structurally removed; queries see only these.
  std::size_t live_size() const { return live_; }
  std::size_t dim() const { return dim_; }
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
  void Append(std::span<const double> all_data);

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
  void CollectWithinPoint(std::span<const double> p, double r,
                          Workspace& scratch,
                          std::vector<std::uint32_t>& out) const;

 private:
  SpatialGrid() = default;

  /// Anchors the cell grid at the per-axis data minimum and sizes cells
  /// from the widest axis extent, so the grid covers the data.
  void AnchorCellsAtBoundingBox(std::size_t expected_neighbors);
  /// Buckets every point by cell into the CSR arena (the tail of every
  /// build, once the cell geometry is set).
  void LayOutCells();

  const double* Row(std::size_t i) const { return data_.data() + i * dim_; }
  std::uint64_t CellOf(const double* p) const;
  /// Appends the squared distances from q to every live point of cell `cell`.
  void ScanCell(std::uint64_t cell, std::span<const double> q,
                std::vector<double>& cands) const;
  /// k-NN rows for a chunk of queries on the degenerate one-cell grid
  /// (cells_per_axis_ == 1): tiles the live prefix across the chunk so the
  /// dataset streams once per chunk instead of once per query. Per-pair
  /// values, candidate order, self removal, and selection mirror KnnDistances
  /// exactly, so each output row is byte-identical to the per-query path.
  void DenseKnnChunk(const std::uint32_t* queries, std::size_t nq,
                     std::size_t k, double* out, bool sorted,
                     Workspace& scratch) const;
  /// Decodes the query's cell coordinates into scratch.center and returns the
  /// largest Chebyshev ring radius that still touches the grid.
  std::size_t DecodeCenter(const double* p, Workspace& scratch) const;
  /// Calls scan(cell) for every cell with a non-empty live prefix that can
  /// hold a point within Euclidean distance r of `p`: the Chebyshev box of
  /// cells around p's cell, or every occupied cell once that box outgrows
  /// the live occupancy.
  template <typename ScanFn>
  void ForEachCellWithin(const double* p, double r, Workspace& scratch,
                         ScanFn&& scan) const;

  std::size_t n_ = 0;
  std::size_t live_ = 0;                    // points not removed
  std::size_t dim_ = 0;
  std::size_t cells_per_axis_ = 1;
  double cell_size_ = 1.0;
  std::span<const double> data_;     // borrowed from the indexed PointSet
  std::vector<double> origin_;       // per-axis cell origin
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
