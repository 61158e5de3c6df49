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
// some axis), so the search stops as soon as k candidates lie within
// rho * cell_size — a count, not a selection. When the next ring would touch
// more cells than remain occupied — high d makes rings exponentially wide
// while occupancy stays <= n — the query degrades gracefully to a scan of
// the remaining occupied cells, which completes coverage in one step. Either
// way the gathered candidates hold the *exact* k smallest distances brute
// force produces, computed by the same SquaredDistance kernel:
// KthNearestDistance selects the k-th of them, and BatchKnnSupersetFor keeps
// them plus a few extras no closer than the k-th.
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
// Determinism: KthNearestDistance and CountWithin return values that are
// independent of cell-enumeration order, of tie-breaking among equidistant
// neighbors, and of the intra-cell permutation left behind by swap-removal.
// BatchKnnSupersetFor concatenates chunk-owned variable-length rows in chunk
// order, so the batch is bit-identical at any thread count.

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

  /// Reusable query buffers: one per thread, carried across calls so a
  /// query loop allocates nothing once they have grown.
  struct Workspace {
    std::vector<double> candidates;     // squared distances
    std::vector<double> ties;           // a superset row's tie bucket
    std::vector<std::uint32_t> hist;    // superset rows' linear histogram
    std::vector<std::int64_t> center;   // decoded query cell coordinates
    std::vector<double> dense_block;    // blocked one-cell distance rows
  };

  /// The k-th smallest distance from s[query] to the other live points
  /// (self excluded by index, so duplicate coordinates count as neighbors at
  /// distance 0). `query` must be live and 1 <= k <= live_size() - 1. Exact:
  /// the k-th value of the brute-force ascending list over the live points,
  /// bit for bit, found by one nth_element over the ring gather's
  /// candidates.
  double KthNearestDistance(std::size_t query, std::size_t k,
                            Workspace& scratch) const;

  /// Variable-length distance rows: row r is
  /// values[offsets[r], offsets[r + 1]).
  struct KnnRows {
    std::vector<double> values;
    std::vector<std::size_t> offsets;  // rows + 1 entries, offsets[0] == 0
  };

  /// Batched k-NN *superset* for an explicit query list (every id live,
  /// k <= live_size()-1): row r holds, in no particular order, the exact k
  /// smallest distances from s[queries[r]] to the other live points plus
  /// possibly some extra distances, each >= the k-th smallest, and is at most
  /// kMaxSupersetSlack * k long. A consumer of counts capped at k + 1 (the
  /// radius profile) reads the same capped counts at every radius from the
  /// row as from the exact k, while this query skips the per-query
  /// selection: it gathers rings until a *count* shows k candidates inside
  /// the ring guarantee, then keeps every candidate in the buckets of one
  /// linear histogram up to the one holding the k-th. Each chunk of queries owns its rows and
  /// chunks are concatenated in order, so `out` is bit-identical at any
  /// thread count.
  void BatchKnnSupersetFor(std::span<const std::uint32_t> queries,
                           std::size_t k, KnnRows& out,
                           ThreadPool* pool) const;

  /// Upper bound on a superset row's length, in multiples of k.
  static constexpr std::size_t kMaxSupersetSlack = 2;

  /// Number of live points within Euclidean distance r of s[query] (the
  /// query itself included; it must be live). The comparison is
  /// sqrt(squared) <= r with the same accumulation order as la/vector_ops'
  /// Distance, so the count matches a brute-force sweep bit for bit.
  std::size_t CountWithin(std::size_t query, double r,
                          Workspace& scratch) const;

  /// Appends to `out` the ids of every live point within Euclidean distance r
  /// of s[query] (the query itself included; same sqrt(squared) <= r
  /// predicate as CountWithin), using the same Chebyshev-box pruning. Ids
  /// arrive in cell-enumeration order — callers that need determinism across
  /// builds sort or treat the result as a set (the coreset builder's
  /// per-point relaxations commute, so it needs neither). `out` is not
  /// cleared.
  void CollectWithin(std::size_t query, double r, Workspace& scratch,
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
  /// Where a query's k nearest lie: every one of them has squared distance
  /// <= `squared` (+infinity once every live point was scanned), and
  /// `within` candidates do.
  struct KnnBound {
    double squared;
    std::size_t within;
  };
  /// Scans rings around live point `query` into scratch.candidates (squared
  /// distances, self dropped) until a count shows k of them inside the ring
  /// guarantee, or every live point has been seen. k must be in
  /// [1, live-1].
  KnnBound GatherKnnCandidates(std::size_t query, std::size_t k,
                               Workspace& scratch) const;
  /// Writes one superset row (see BatchKnnSupersetFor) from
  /// scratch.candidates, given the bound GatherKnnCandidates returned, to
  /// out[0, len) and returns len <= kMaxSupersetSlack * k; out must have
  /// room for one slot more than that.
  static std::size_t WriteKnnSuperset(std::size_t k, KnnBound bound,
                                      Workspace& scratch, double* out);
  /// Superset rows for a chunk of queries on the degenerate one-cell grid
  /// (cells_per_axis_ == 1): tiles the live prefix across the chunk so the
  /// dataset streams once per chunk instead of once per query, then writes
  /// query qi's row with WriteKnnSuperset, packed from `out` on, and its
  /// length to lens[qi]. Per-pair values, candidate order and self removal
  /// mirror GatherKnnCandidates on full coverage, so each row is
  /// byte-identical to the per-query path.
  void DenseKnnSupersetChunk(const std::uint32_t* queries, std::size_t nq,
                             std::size_t k, Workspace& scratch, double* out,
                             std::size_t* lens) const;
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
