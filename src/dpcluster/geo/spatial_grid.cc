#include "dpcluster/geo/spatial_grid.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "dpcluster/common/check.h"
#include "dpcluster/common/simd.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/parallel/parallel_for.h"

namespace dpcluster {
namespace {

// Hard caps on the cell table: cells are dense (CSR offsets), so the table is
// bounded independently of the data distribution. ~2M cells = 16 MB offsets.
constexpr std::size_t kMaxCellsPerAxis = 1024;
constexpr std::size_t kMaxTotalCells = std::size_t{1} << 21;

// m^d with saturation at kMaxTotalCells + 1.
std::size_t SaturatingCellCount(std::size_t m, std::size_t d) {
  std::size_t total = 1;
  for (std::size_t a = 0; a < d; ++a) {
    if (total > kMaxTotalCells / m + 1) return kMaxTotalCells + 1;
    total *= m;
  }
  return total;
}

// Cells per axis sized so a cell holds ~k/4 points of a uniform spread: few
// enough rings reach k candidates fast, coarse enough that ring enumeration
// does not dwarf the point scans. Bounded so the dense cell table stays small;
// m == 1 (always at high d) degrades every query to one full scan, which is
// the right call there — rings grow as 3^d while occupancy is capped by n.
std::size_t ChooseCellsPerAxis(std::size_t n, std::size_t d, std::size_t k) {
  const double occupancy =
      std::clamp(static_cast<double>(std::max<std::size_t>(k, 1)) / 4.0, 1.0,
                 512.0);
  const double target_cells =
      std::max(1.0, static_cast<double>(n) / occupancy);
  auto m = static_cast<std::size_t>(
      std::floor(std::pow(target_cells, 1.0 / static_cast<double>(d))));
  m = std::clamp<std::size_t>(m, 1, kMaxCellsPerAxis);
  while (m > 1 && SaturatingCellCount(m, d) > kMaxTotalCells) --m;
  return m;
}

// ||x - y||^2 over raw rows — la/vector_ops' canonical blocked kernel, so
// sqrt() of the result is bit-identical to Distance() on the same pair.
inline double RowSquaredDistance(const double* x, const double* y,
                                 std::size_t d) {
  return SquaredDistanceRows(x, y, d);
}

// Squared distances from q to `count` indexed rows (ids into the row-major
// `base`), written to out[0..count) — the blocked dense scan's inner loop.
#if DPC_AVX2_MULTIVERSIONING
__attribute__((target("default")))
#endif
void SquaredDistancesTo(const double* q, const double* base,
                        const std::uint32_t* ids, std::size_t count,
                        std::size_t d, double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = SquaredDistanceRows(q, base + ids[i] * d, d);
  }
}

#if DPC_AVX2_MULTIVERSIONING
// The AVX2 overload, picked at runtime where the CPU has it. It holds
// SquaredDistanceRows' four lane accumulators in one 4-wide vector, so each
// 4-block is a single vector subtract, multiply and add; the lanes, their
// (s0 + s1) + (s2 + s3) combine and the sequential tail are unchanged, and
// without FMA every lane rounds as the scalar kernel does, so the values are
// bit-identical. Below d = 4 there is no block to vectorize.
__attribute__((target("avx2")))
void SquaredDistancesTo(const double* q, const double* base,
                        const std::uint32_t* ids, std::size_t count,
                        std::size_t d, double* out) {
  using Lanes = double __attribute__((vector_size(4 * sizeof(double))));
  for (std::size_t i = 0; i < count; ++i) {
    const double* y = base + ids[i] * d;
    if (d < 4) {
      out[i] = SquaredDistanceRows(q, y, d);
      continue;
    }
    Lanes s = {0.0, 0.0, 0.0, 0.0};
    std::size_t c = 0;
    for (; c + 4 <= d; c += 4) {
      Lanes a;
      Lanes b;
      std::memcpy(&a, q + c, sizeof a);
      std::memcpy(&b, y + c, sizeof b);
      const Lanes diff = a - b;
      s += diff * diff;
    }
    double sum = (s[0] + s[1]) + (s[2] + s[3]);
    for (; c < d; ++c) {
      const double diff = q[c] - y[c];
      sum += diff * diff;
    }
    out[i] = sum;
  }
}
#endif

// Keeps the k smallest of `vals` (non-negative doubles) as its first k
// elements (unordered, exact value multiset) and truncates the rest. One
// histogram pass over the top 16 bits of the order-preserving bit image
// (sign + exponent + 4 mantissa bits: ~16 buckets per binade, so the k-th
// value's tie bucket holds only the candidates within ~6% of it), one
// in-place compaction pass, and an exact nth_element on that small tie
// bucket. The 2^16-entry histogram lives in the workspace and only the
// touched buckets are re-zeroed, so the select is ~2 branch-light linear
// passes — about 6x cheaper than std::nth_element on 4k-candidate sets,
// where introselect's data-dependent pivot branches dominated the batch.
void SelectSmallest(std::vector<double>& vals, std::size_t k,
                    SpatialGrid::Workspace& ws) {
  if (k >= vals.size()) return;
  if (ws.hist16.empty()) ws.hist16.assign(std::size_t{1} << 16, 0);
  for (const double v : vals) {
    const auto key =
        static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(v) >> 48);
    if (ws.hist16[key]++ == 0) ws.touched.push_back(key);
  }
  std::sort(ws.touched.begin(), ws.touched.end());
  // Bucket kb holds the k-th smallest; every lower bucket is accepted whole.
  std::size_t below = 0;
  std::size_t bi = 0;
  while (below + ws.hist16[ws.touched[bi]] < k) {
    below += ws.hist16[ws.touched[bi++]];
  }
  const std::uint32_t kb = ws.touched[bi];
  for (const std::uint32_t key : ws.touched) ws.hist16[key] = 0;
  ws.touched.clear();

  ws.ties.clear();
  std::size_t out = 0;
  for (const double v : vals) {  // In-place compaction (out <= read index).
    const auto key =
        static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(v) >> 48);
    if (key < kb) {
      vals[out++] = v;
    } else if (key == kb) {
      ws.ties.push_back(v);
    }
  }
  const std::size_t need = k - below;  // >= 1 by choice of kb.
  std::nth_element(ws.ties.begin(),
                   ws.ties.begin() + static_cast<std::ptrdiff_t>(need - 1),
                   ws.ties.end());
  for (std::size_t i = 0; i < need; ++i) vals[out++] = ws.ties[i];
  vals.resize(k);
  DPC_CHECK_EQ(out, k);
}

}  // namespace

bool GridCollapsesToSingleCell(std::size_t n, std::size_t d,
                               std::size_t expected_neighbors) {
  return ChooseCellsPerAxis(n, d, expected_neighbors) == 1;
}

Result<SpatialGrid> SpatialGrid::Build(const PointSet& s,
                                       const GridDomain& domain,
                                       std::size_t expected_neighbors) {
  if (s.empty()) return Status::InvalidArgument("SpatialGrid: empty dataset");
  if (s.dim() != domain.dim()) {
    return Status::InvalidArgument("SpatialGrid: domain dimension mismatch");
  }
  SpatialGrid grid;
  grid.n_ = s.size();
  grid.live_ = grid.n_;
  grid.dim_ = s.dim();
  grid.data_ = s.Data();
  grid.origin_.assign(grid.dim_, 0.0);
  grid.cells_per_axis_ =
      ChooseCellsPerAxis(grid.n_, grid.dim_, expected_neighbors);
  grid.cell_size_ =
      domain.axis_length() / static_cast<double>(grid.cells_per_axis_);
  grid.LayOutCells();
  return grid;
}

Result<SpatialGrid> SpatialGrid::BuildOverBoundingBox(
    const PointSet& s, std::size_t expected_neighbors) {
  if (s.empty()) return Status::InvalidArgument("SpatialGrid: empty dataset");
  for (const double x : s.Data()) {
    if (!std::isfinite(x)) {
      return Status::InvalidArgument("SpatialGrid: non-finite coordinate");
    }
  }
  SpatialGrid grid;
  grid.n_ = s.size();
  grid.live_ = grid.n_;
  grid.dim_ = s.dim();
  grid.data_ = s.Data();
  grid.AnchorCellsAtBoundingBox(expected_neighbors);
  grid.LayOutCells();
  return grid;
}

void SpatialGrid::AnchorCellsAtBoundingBox(std::size_t expected_neighbors) {
  origin_.assign(dim_, std::numeric_limits<double>::infinity());
  std::vector<double> axis_max(dim_, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n_; ++i) {
    const double* row = Row(i);
    for (std::size_t a = 0; a < dim_; ++a) {
      origin_[a] = std::min(origin_[a], row[a]);
      axis_max[a] = std::max(axis_max[a], row[a]);
    }
  }
  double extent = 0.0;
  for (std::size_t a = 0; a < dim_; ++a) {
    extent = std::max(extent, axis_max[a] - origin_[a]);
  }
  cells_per_axis_ = ChooseCellsPerAxis(n_, dim_, expected_neighbors);
  cell_size_ =
      extent > 0.0 ? extent / static_cast<double>(cells_per_axis_) : 1.0;
}

void SpatialGrid::LayOutCells() {
  // Counting sort of the point ids by cell id; ascending index within a
  // cell. Segments are laid out back to back with zero slack (cap == count),
  // byte-identical to the classic prefix-sum CSR layout; Append() grows
  // capacities on demand.
  const std::size_t total_cells =
      SaturatingCellCount(cells_per_axis_, dim_);
  cell_of_.resize(n_);
  std::vector<std::uint64_t> starts(total_cells + 1, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    cell_of_[i] = CellOf(Row(i));
    ++starts[cell_of_[i] + 1];
  }
  for (std::size_t c = 0; c < total_cells; ++c) {
    starts[c + 1] += starts[c];
    if (starts[c + 1] > starts[c]) {
      occupied_.push_back(c);
    }
  }
  live_occupied_ = occupied_.size();
  seg_start_.assign(starts.begin(), starts.end() - 1);
  seg_end_.assign(starts.begin() + 1, starts.end());
  seg_cap_.resize(total_cells);
  for (std::size_t c = 0; c < total_cells; ++c) {
    seg_cap_[c] = seg_end_[c] - seg_start_[c];
  }
  cell_end_ = seg_end_;
  cell_points_.resize(n_);
  pos_.resize(n_);
  std::vector<std::uint64_t> cursor(starts.begin(), starts.end() - 1);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint64_t at = cursor[cell_of_[i]]++;
    cell_points_[at] = static_cast<std::uint32_t>(i);
    pos_[i] = static_cast<std::uint32_t>(at);
  }
}

void SpatialGrid::Remove(std::size_t point) {
  DPC_CHECK_LT(point, n_);
  const std::uint64_t cell = cell_of_[point];
  const std::uint32_t at = pos_[point];
  DPC_CHECK_LT(at, cell_end_[cell]);  // Must still be live.
  const std::uint64_t last = cell_end_[cell] - 1;
  const std::uint32_t moved = cell_points_[last];
  // Swap into the dead suffix; the dead point stays parked in its segment so
  // ResetActive can revive it without re-indexing.
  cell_points_[at] = moved;
  pos_[moved] = at;
  cell_points_[last] = static_cast<std::uint32_t>(point);
  pos_[point] = static_cast<std::uint32_t>(last);
  --cell_end_[cell];
  --live_;
  if (cell_end_[cell] == seg_start_[cell]) --live_occupied_;
}

void SpatialGrid::ResetActive(std::span<const std::uint8_t> active) {
  DPC_CHECK_EQ(active.size(), n_);
  live_ = 0;
  live_occupied_ = 0;
  for (const std::uint64_t cell : occupied_) {
    const std::uint64_t lo = seg_start_[cell];
    const std::uint64_t hi = seg_end_[cell];
    std::uint64_t w = lo;
    for (std::uint64_t p = lo; p < hi; ++p) {
      const std::uint32_t id = cell_points_[p];
      if (active[id]) {
        std::swap(cell_points_[p], cell_points_[w]);
        ++w;
      }
    }
    for (std::uint64_t p = lo; p < hi; ++p) {
      pos_[cell_points_[p]] = static_cast<std::uint32_t>(p);
    }
    cell_end_[cell] = w;
    live_ += w - lo;
    if (w > lo) ++live_occupied_;
  }
}

void SpatialGrid::Append(std::span<const double> all_data) {
  DPC_CHECK_EQ(all_data.size(), (n_ + 1) * dim_);
  // PointSet::Add may have reallocated the storage the grid borrows.
  data_ = all_data;
  const std::size_t id = n_;
  const std::uint64_t cell = CellOf(Row(id));

  if (seg_end_[cell] - seg_start_[cell] == seg_cap_[cell]) {
    // Full segment: relocate the whole used range (live prefix + dead
    // suffix, order preserved) to the arena's end with doubled capacity. The
    // old slots become unreferenced holes; Compact()/rebuild reclaims them.
    const std::uint64_t used = seg_end_[cell] - seg_start_[cell];
    const std::uint64_t live_len = cell_end_[cell] - seg_start_[cell];
    const std::uint64_t new_cap = std::max<std::uint64_t>(2 * seg_cap_[cell], 4);
    const std::uint64_t new_start = cell_points_.size();
    cell_points_.resize(new_start + new_cap);
    for (std::uint64_t i = 0; i < used; ++i) {
      const std::uint32_t moved = cell_points_[seg_start_[cell] + i];
      cell_points_[new_start + i] = moved;
      pos_[moved] = static_cast<std::uint32_t>(new_start + i);
    }
    seg_start_[cell] = new_start;
    seg_end_[cell] = new_start + used;
    seg_cap_[cell] = new_cap;
    cell_end_[cell] = new_start + live_len;
  }

  // Place the new id at the live-prefix boundary; the dead point previously
  // holding that slot (if any) moves to the segment's used end.
  const std::uint64_t boundary = cell_end_[cell];
  if (boundary < seg_end_[cell]) {
    const std::uint32_t dead = cell_points_[boundary];
    cell_points_[seg_end_[cell]] = dead;
    pos_[dead] = static_cast<std::uint32_t>(seg_end_[cell]);
  }
  cell_points_[boundary] = static_cast<std::uint32_t>(id);
  cell_of_.push_back(cell);
  pos_.push_back(static_cast<std::uint32_t>(boundary));
  if (cell_end_[cell] == seg_start_[cell]) ++live_occupied_;
  ++cell_end_[cell];
  ++seg_end_[cell];
  ++n_;
  ++live_;
  const auto it = std::lower_bound(occupied_.begin(), occupied_.end(), cell);
  if (it == occupied_.end() || *it != cell) occupied_.insert(it, cell);
}

std::uint64_t SpatialGrid::CellOf(const double* p) const {
  const auto m = static_cast<std::int64_t>(cells_per_axis_);
  std::uint64_t id = 0;
  for (std::size_t a = 0; a < dim_; ++a) {
    auto c = static_cast<std::int64_t>(
        std::floor((p[a] - origin_[a]) / cell_size_));
    c = std::clamp<std::int64_t>(c, 0, m - 1);
    id = id * static_cast<std::uint64_t>(m) + static_cast<std::uint64_t>(c);
  }
  return id;
}

void SpatialGrid::ScanCell(std::uint64_t cell,
                           std::span<const double> q,
                           std::vector<double>& cands) const {
  const double* base = data_.data();
  const double* qp = q.data();
  const std::uint64_t lo = seg_start_[cell];
  const std::uint64_t hi = cell_end_[cell];  // Live prefix only.
  std::size_t at_out = cands.size();
  cands.resize(at_out + (hi - lo));
  double* out = cands.data();
  std::uint64_t at = lo;
  // d < 4: SquaredDistanceRows reduces to the plain in-order sum, whose
  // serial add dependency these four cross-point chains hide (each chain is
  // that exact in-order sum, so the values still match vector_ops). At d >= 4
  // the kernel's own four in-row lanes provide the ILP instead.
  if (dim_ < 4) {
    for (; at + 4 <= hi; at += 4, at_out += 4) {
      const double* x0 = base + cell_points_[at] * dim_;
      const double* x1 = base + cell_points_[at + 1] * dim_;
      const double* x2 = base + cell_points_[at + 2] * dim_;
      const double* x3 = base + cell_points_[at + 3] * dim_;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t c = 0; c < dim_; ++c) {
        const double qc = qp[c];
        const double d0 = x0[c] - qc;
        const double d1 = x1[c] - qc;
        const double d2 = x2[c] - qc;
        const double d3 = x3[c] - qc;
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
      }
      out[at_out] = s0;
      out[at_out + 1] = s1;
      out[at_out + 2] = s2;
      out[at_out + 3] = s3;
    }
  }
  for (; at < hi; ++at, ++at_out) {
    out[at_out] =
        RowSquaredDistance(qp, base + cell_points_[at] * dim_, dim_);
  }
}

std::size_t SpatialGrid::DecodeCenter(const double* q,
                                      Workspace& scratch) const {
  const auto m = static_cast<std::int64_t>(cells_per_axis_);
  std::vector<std::int64_t>& center = scratch.center;
  center.assign(dim_, 0);
  std::uint64_t id = CellOf(q);
  for (std::size_t a = dim_; a-- > 0;) {
    center[a] = static_cast<std::int64_t>(id % static_cast<std::uint64_t>(m));
    id /= static_cast<std::uint64_t>(m);
  }
  // After ring max_rho the whole grid has been scanned.
  std::size_t max_rho = 0;
  for (std::size_t a = 0; a < dim_; ++a) {
    max_rho = std::max<std::size_t>(
        max_rho,
        static_cast<std::size_t>(std::max(center[a], m - 1 - center[a])));
  }
  return max_rho;
}

void SpatialGrid::KnnDistances(std::size_t query, std::size_t k,
                               Workspace& scratch, std::vector<double>& out,
                               bool sorted) const {
  DPC_CHECK_LT(query, n_);
  DPC_CHECK(IsLive(query));
  out.clear();
  k = std::min(k, live_ - 1);
  if (k == 0) return;

  const std::span<const double> q{Row(query), dim_};
  const auto m = static_cast<std::int64_t>(cells_per_axis_);
  const std::uint64_t center_cell = CellOf(Row(query));
  const std::size_t max_rho = DecodeCenter(Row(query), scratch);
  std::vector<std::int64_t>& center = scratch.center;

  std::vector<double>& cands = scratch.candidates;
  cands.clear();
  const auto scan = [&](std::uint64_t cell) { ScanCell(cell, q, cands); };

  // Ring 0 is the only cell that contains the query itself. Scan it with the
  // same branch-free kernel as every other cell — the self-distance comes out
  // as exactly +0.0 (x - x is +0.0 per coordinate) — then drop one 0.0 entry.
  // Duplicate points also land on exactly +0.0, so removing any one leaves
  // the brute-force multiset (self excluded by index) unchanged.
  {
    scan(center_cell);
    const auto self = std::find(cands.begin(), cands.end(), 0.0);
    DPC_CHECK(self != cands.end());
    *self = cands.back();
    cands.pop_back();
  }

  // Visits every in-bounds cell at Chebyshev offset exactly rho from center.
  // `attained` tracks whether an earlier axis already contributes |off| = rho;
  // the last axis is restricted to +-rho when none has.
  auto visit_ring = [&](auto&& self, std::size_t axis, bool attained,
                        std::uint64_t partial, std::int64_t rho) -> void {
    if (axis == dim_) {
      scan(partial);
      return;
    }
    const std::int64_t lo = std::max<std::int64_t>(center[axis] - rho, 0);
    const std::int64_t hi = std::min<std::int64_t>(center[axis] + rho, m - 1);
    for (std::int64_t c = lo; c <= hi; ++c) {
      const bool at_rho = std::llabs(c - center[axis]) == rho;
      if (axis + 1 == dim_ && !attained && !at_rho) continue;
      self(self, axis + 1, attained || at_rho,
           partial * static_cast<std::uint64_t>(m) +
               static_cast<std::uint64_t>(c),
           rho);
    }
  };

  // The ring guarantee: rings 0..rho cover every point within Euclidean
  // distance rho * cell_size of the query (an unscanned cell is more than
  // rho cells away on some axis). The 1e-9 haircut absorbs the float
  // rounding of the cell assignment and of rho * cell_size itself, so the
  // early stop can never exclude a point that brute force would return
  // (equal-distance ties beyond the boundary leave the k smallest values
  // unchanged either way).
  for (std::size_t rho = 0; rho < max_rho;) {
    if (cands.size() >= k) {
      // Keep only the k best so far: rejected candidates can never re-enter
      // (later rings only push the k-th down), so each ring's selection also
      // shrinks every later ring's work.
      SelectSmallest(cands, k, scratch);
      const double kth = *std::max_element(cands.begin(), cands.end());
      const double guarantee =
          static_cast<double>(rho) * cell_size_ * (1.0 - 1e-9);
      if (kth <= guarantee * guarantee) break;
    }
    // Ring enumeration visits ~(2 rho + 3)^d - (2 rho + 1)^d cells next; once
    // that passes the live occupied-cell count, finishing with one scan over
    // the remaining occupied cells is strictly cheaper and completes coverage.
    const double next_ring_cells =
        std::pow(2.0 * static_cast<double>(rho) + 3.0,
                 static_cast<double>(dim_)) -
        std::pow(2.0 * static_cast<double>(rho) + 1.0,
                 static_cast<double>(dim_));
    if (next_ring_cells > static_cast<double>(live_occupied_)) {
      for (const std::uint64_t cell : occupied_) {
        if (cell_end_[cell] == seg_start_[cell]) continue;  // Fully removed.
        std::uint64_t id = cell;
        std::size_t chebyshev = 0;
        for (std::size_t a = dim_; a-- > 0;) {
          const auto c = static_cast<std::int64_t>(
              id % static_cast<std::uint64_t>(m));
          id /= static_cast<std::uint64_t>(m);
          chebyshev = std::max<std::size_t>(
              chebyshev,
              static_cast<std::size_t>(std::llabs(c - center[a])));
        }
        if (chebyshev > rho) scan(cell);
      }
      break;
    }
    ++rho;
    visit_ring(visit_ring, 0, false, 0, static_cast<std::int64_t>(rho));
  }
  DPC_CHECK_GE(cands.size(), k);

  SelectSmallest(cands, k, scratch);
  if (sorted) std::sort(cands.begin(), cands.end());
  out.resize(k);
  for (std::size_t i = 0; i < k; ++i) out[i] = std::sqrt(cands[i]);
}

void SpatialGrid::DenseKnnChunk(const std::uint32_t* queries, std::size_t nq,
                                std::size_t k, double* out, bool sorted,
                                Workspace& scratch) const {
  const std::uint64_t start = seg_start_[0];
  const std::uint64_t live = cell_end_[0] - start;
  std::vector<double>& block = scratch.dense_block;
  block.resize(nq * live);
  // Point tiles sized to sit in L2 across the chunk's query passes: the tile
  // is read nq times from cache while the full dataset streams from memory
  // only once per chunk. Rows are indexed by live-prefix position, so reading
  // a row left to right reproduces ScanCell's cell_points_ append order.
  constexpr std::uint64_t kPointTile = 256;
  for (std::uint64_t p0 = 0; p0 < live; p0 += kPointTile) {
    const std::uint64_t p1 = std::min(p0 + kPointTile, live);
    for (std::size_t qi = 0; qi < nq; ++qi) {
      SquaredDistancesTo(data_.data() + queries[qi] * dim_, data_.data(),
                         cell_points_.data() + start + p0, p1 - p0, dim_,
                         block.data() + qi * live + p0);
    }
  }
  std::vector<double>& cands = scratch.candidates;
  for (std::size_t qi = 0; qi < nq; ++qi) {
    const double* row = block.data() + qi * live;
    cands.assign(row, row + live);
    // Drop one exact +0.0 entry — the query's self pair — the same way
    // KnnDistances does after its ring-0 scan.
    const auto self = std::find(cands.begin(), cands.end(), 0.0);
    DPC_CHECK(self != cands.end());
    *self = cands.back();
    cands.pop_back();
    SelectSmallest(cands, k, scratch);
    if (sorted) std::sort(cands.begin(), cands.end());
    double* dst = out + qi * k;
    for (std::size_t i = 0; i < k; ++i) dst[i] = std::sqrt(cands[i]);
  }
}

void SpatialGrid::BatchKnnDistances(std::size_t k, std::span<double> out,
                                    ThreadPool* pool, bool sorted) const {
  DPC_CHECK_EQ(live_, n_);
  DPC_CHECK_LE(k, n_ - 1);
  DPC_CHECK_EQ(out.size(), n_ * k);
  if (k == 0) return;
  constexpr std::size_t kQueryGrain = 16;
  const bool dense = cells_per_axis_ == 1;
  ParallelForChunks(
      pool, 0, n_, kQueryGrain,
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        Workspace scratch;
        if (dense) {
          std::vector<std::uint32_t> ids(hi - lo);
          for (std::size_t i = lo; i < hi; ++i) {
            ids[i - lo] = static_cast<std::uint32_t>(i);
          }
          DenseKnnChunk(ids.data(), ids.size(), k, out.data() + lo * k, sorted,
                        scratch);
          return;
        }
        std::vector<double> row;
        for (std::size_t i = lo; i < hi; ++i) {
          KnnDistances(i, k, scratch, row, sorted);
          std::copy(row.begin(), row.end(), out.begin() + i * k);
        }
      },
      kAlwaysParallel);
}

void SpatialGrid::BatchKnnDistancesFor(std::span<const std::uint32_t> queries,
                                       std::size_t k, std::span<double> out,
                                       ThreadPool* pool, bool sorted) const {
  DPC_CHECK_GE(live_, 1u);
  DPC_CHECK_LE(k, live_ - 1);
  DPC_CHECK_EQ(out.size(), queries.size() * k);
  if (k == 0 || queries.empty()) return;
  constexpr std::size_t kQueryGrain = 16;
  const bool dense = cells_per_axis_ == 1;
  ParallelForChunks(
      pool, 0, queries.size(), kQueryGrain,
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        Workspace scratch;
        if (dense) {
          DenseKnnChunk(queries.data() + lo, hi - lo, k, out.data() + lo * k,
                        sorted, scratch);
          return;
        }
        std::vector<double> row;
        for (std::size_t r = lo; r < hi; ++r) {
          KnnDistances(queries[r], k, scratch, row, sorted);
          std::copy(row.begin(), row.end(), out.begin() + r * k);
        }
      },
      kAlwaysParallel);
}

template <typename ScanFn>
void SpatialGrid::ForEachCellWithin(const double* p, double r,
                                    Workspace& scratch, ScanFn&& scan) const {
  const auto m = static_cast<std::int64_t>(cells_per_axis_);
  const std::size_t max_rho = DecodeCenter(p, scratch);
  const std::vector<std::int64_t>& center = scratch.center;

  // Rings 0..rho cover every point within rho * cell_size (see KnnDistances);
  // the 1e-9 margin mirrors the k-NN early stop's haircut so cell-assignment
  // rounding can never exclude a point at distance exactly r. CellOf clamps
  // out-of-cube coordinates onto the boundary cell, which only widens the box.
  const double cells_needed = r / (cell_size_ * (1.0 - 1e-9));
  std::size_t rho_needed = max_rho;
  if (cells_needed < static_cast<double>(max_rho)) {
    rho_needed = static_cast<std::size_t>(std::ceil(cells_needed));
  }

  // Enumerating the Chebyshev box of radius rho_needed touches
  // (2 rho + 1)^d cells; past the live occupancy, scanning every occupied
  // cell is cheaper and trivially complete.
  const double box_cells =
      std::pow(2.0 * static_cast<double>(rho_needed) + 1.0,
               static_cast<double>(dim_));
  if (box_cells > static_cast<double>(live_occupied_)) {
    for (const std::uint64_t cell : occupied_) {
      if (cell_end_[cell] == seg_start_[cell]) continue;
      scan(cell);
    }
    return;
  }
  // Visits every in-bounds cell within Chebyshev distance rho_needed.
  auto visit_box = [&](auto&& self, std::size_t axis,
                       std::uint64_t partial) -> void {
    if (axis == dim_) {
      if (cell_end_[partial] > seg_start_[partial]) {
        scan(partial);
      }
      return;
    }
    const auto rho = static_cast<std::int64_t>(rho_needed);
    const std::int64_t lo = std::max<std::int64_t>(center[axis] - rho, 0);
    const std::int64_t hi = std::min<std::int64_t>(center[axis] + rho, m - 1);
    for (std::int64_t c = lo; c <= hi; ++c) {
      self(self, axis + 1,
           partial * static_cast<std::uint64_t>(m) +
               static_cast<std::uint64_t>(c));
    }
  };
  visit_box(visit_box, 0, 0);
}

std::size_t SpatialGrid::CountWithin(std::size_t query, double r,
                                     Workspace& scratch) const {
  DPC_CHECK_LT(query, n_);
  DPC_CHECK(IsLive(query));
  if (r < 0.0) return 0;

  const std::span<const double> q{Row(query), dim_};
  std::vector<double>& cands = scratch.candidates;
  cands.clear();
  ForEachCellWithin(q.data(), r, scratch,
                    [&](std::uint64_t cell) { ScanCell(cell, q, cands); });

  std::size_t count = 0;
  for (const double sq : cands) {
    if (std::sqrt(sq) <= r) ++count;
  }
  return count;
}

void SpatialGrid::CollectWithin(std::size_t query, double r,
                                Workspace& scratch,
                                std::vector<std::uint32_t>& out) const {
  DPC_CHECK_LT(query, n_);
  DPC_CHECK(IsLive(query));
  CollectWithinPoint({Row(query), dim_}, r, scratch, out);
}

void SpatialGrid::CollectWithinPoint(std::span<const double> p, double r,
                                     Workspace& scratch,
                                     std::vector<std::uint32_t>& out) const {
  DPC_CHECK_EQ(p.size(), dim_);
  if (r < 0.0) return;

  const double* base = data_.data();
  const double* qp = p.data();
  ForEachCellWithin(qp, r, scratch, [&](std::uint64_t cell) {
    const std::uint64_t hi = cell_end_[cell];
    for (std::uint64_t at = seg_start_[cell]; at < hi; ++at) {
      const std::uint32_t id = cell_points_[at];
      const double sq = RowSquaredDistance(qp, base + id * dim_, dim_);
      if (std::sqrt(sq) <= r) out.push_back(id);
    }
  });
}

void SpatialGrid::BatchCountWithin(std::span<const std::uint32_t> queries,
                                   double r, std::span<std::size_t> out,
                                   ThreadPool* pool) const {
  DPC_CHECK_EQ(out.size(), queries.size());
  constexpr std::size_t kQueryGrain = 16;
  ParallelForChunks(
      pool, 0, queries.size(), kQueryGrain,
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        Workspace scratch;
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = CountWithin(queries[i], r, scratch);
        }
      },
      kAlwaysParallel);
}

}  // namespace dpcluster
