#include "dpcluster/geo/dataset.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "dpcluster/common/check.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/parallel/parallel_for.h"

namespace dpcluster {

namespace {

// Identity tokens for Snapshot/Restore: each dataset numbering (a fresh
// dataset, or one renumbered by Compact) gets a distinct epoch, so restoring
// a snapshot onto the wrong dataset — or across a Compact — is rejected
// instead of silently mismatching row ids. Mutators are single-threaded by
// library convention, but distinct datasets may live on distinct threads.
std::uint64_t NextSnapshotEpoch() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// ------------------------------------------------------------ IndexedDataset

IndexedDataset::IndexedDataset(PointSet points, GridDomain domain,
                               std::vector<std::uint64_t> weights)
    : points_(std::move(points)),
      domain_(std::move(domain)),
      weights_(std::move(weights)),
      active_(points_.size(), 1),
      active_count_(points_.size()),
      snapshot_epoch_(NextSnapshotEpoch()) {
  active_ids_.resize(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    active_ids_[i] = static_cast<std::uint32_t>(i);
  }
  for (const std::uint64_t w : weights_) total_mass_ += w;
  active_mass_ = total_mass_;
}

Result<IndexedDataset> IndexedDataset::Create(PointSet points,
                                              GridDomain domain) {
  if (!points.empty() && points.dim() != domain.dim()) {
    return Status::InvalidArgument(
        "IndexedDataset: domain dimension mismatch");
  }
  return IndexedDataset(std::move(points), std::move(domain));
}

Result<IndexedDataset> IndexedDataset::Create(
    PointSet points, GridDomain domain, std::vector<std::uint64_t> weights) {
  if (!weights.empty() && weights.size() != points.size()) {
    return Status::InvalidArgument(
        "IndexedDataset: weights.size() must equal points.size()");
  }
  for (const std::uint64_t w : weights) {
    if (w == 0) {
      return Status::InvalidArgument(
          "IndexedDataset: weights must be >= 1 (drop zero-weight rows)");
    }
  }
  if (!points.empty() && points.dim() != domain.dim()) {
    return Status::InvalidArgument(
        "IndexedDataset: domain dimension mismatch");
  }
  return IndexedDataset(std::move(points), std::move(domain),
                        std::move(weights));
}

std::span<const std::uint32_t> IndexedDataset::ActiveIds() const {
  if (active_ids_dirty_) {
    active_ids_.clear();
    active_ids_.reserve(active_count_);
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (active_[i]) active_ids_.push_back(static_cast<std::uint32_t>(i));
    }
    active_ids_dirty_ = false;
  }
  return active_ids_;
}

PointSet IndexedDataset::ActiveView() const {
  const std::size_t d = points_.dim();
  std::vector<double> data;
  data.reserve(active_count_ * d);
  for (const std::uint32_t id : ActiveIds()) {
    const auto row = points_[id];
    data.insert(data.end(), row.begin(), row.end());
  }
  return d == 0 ? PointSet() : PointSet(d, std::move(data));
}

Result<std::size_t> IndexedDataset::Insert(std::span<const double> point,
                                           std::uint64_t weight) {
  if (point.size() != domain_.dim()) {
    return Status::InvalidArgument(
        "IndexedDataset::Insert: point dimension mismatch");
  }
  if (weight == 0) {
    return Status::InvalidArgument(
        "IndexedDataset::Insert: weight must be >= 1");
  }
  for (const double x : point) {
    if (!(x >= 0.0 && x <= domain_.axis_length())) {
      return Status::InvalidArgument(
          "IndexedDataset::Insert: point outside the domain cube (snap it "
          "first)");
    }
  }
  const std::size_t id = points_.size();
  if (points_.empty() && points_.dim() != domain_.dim()) {
    points_ = PointSet(domain_.dim());
  }
  points_.Add(point);
  if (weights_.empty() && weight != 1) {
    // Materialize the implicit all-ones vector: the dataset becomes weighted.
    weights_.assign(id, 1);
    total_mass_ = id;
    active_mass_ = active_count_;
  }
  if (!weights_.empty()) {
    weights_.push_back(weight);
    total_mass_ += weight;
    active_mass_ += weight;
  }
  active_.push_back(1);
  ++active_count_;
  // The new id is the maximum, so a clean ascending cache stays ascending.
  if (!active_ids_dirty_) active_ids_.push_back(static_cast<std::uint32_t>(id));
  if (grid_.has_value()) grid_->Append(points_.Data());
  profile_memo_.clear();  // The full row set gained a row.
  return id;
}

std::vector<std::uint32_t> IndexedDataset::Compact() {
  const std::span<const std::uint32_t> ids = ActiveIds();
  std::vector<std::uint32_t> old_ids(ids.begin(), ids.end());
  const std::size_t d = points_.dim();
  std::vector<double> data;
  data.reserve(old_ids.size() * d);
  for (const std::uint32_t id : old_ids) {
    const auto row = points_[id];
    data.insert(data.end(), row.begin(), row.end());
  }
  points_ = d == 0 ? PointSet() : PointSet(d, std::move(data));
  if (!weights_.empty()) {
    std::vector<std::uint64_t> weights;
    weights.reserve(old_ids.size());
    for (const std::uint32_t id : old_ids) weights.push_back(weights_[id]);
    weights_ = std::move(weights);
    total_mass_ = active_mass_;
  }
  active_.assign(old_ids.size(), 1);
  active_count_ = old_ids.size();
  active_ids_.resize(old_ids.size());
  for (std::size_t i = 0; i < old_ids.size(); ++i) {
    active_ids_[i] = static_cast<std::uint32_t>(i);
  }
  active_ids_dirty_ = false;
  snapshot_epoch_ = NextSnapshotEpoch();  // Old snapshots no longer apply.
  grid_.reset();
  profile_memo_.clear();  // The full row set lost its removed rows.
  return old_ids;
}

void IndexedDataset::Remove(std::size_t id) {
  DPC_CHECK_LT(id, active_.size());
  DPC_CHECK(active_[id]);
  active_[id] = 0;
  --active_count_;
  if (!weights_.empty()) active_mass_ -= weights_[id];
  active_ids_dirty_ = true;
  if (grid_.has_value()) grid_->Remove(id);
}

void IndexedDataset::Remove(std::span<const std::uint32_t> ids) {
  for (const std::uint32_t id : ids) Remove(id);
}

std::size_t IndexedDataset::RemoveWithin(const Ball& ball) {
  // Collect first: Remove() invalidates the ActiveIds() span.
  std::vector<std::uint32_t> covered;
  for (const std::uint32_t id : ActiveIds()) {
    if (ball.Contains(points_[id])) covered.push_back(id);
  }
  Remove(covered);
  return covered.size();
}

IndexedDataset::Snapshot IndexedDataset::TakeSnapshot() const {
  return {active_, active_count_, snapshot_epoch_};
}

Status IndexedDataset::Restore(const Snapshot& snapshot) {
  if (snapshot.epoch != snapshot_epoch_ ||
      snapshot.active.size() > active_.size()) {
    return Status::InvalidArgument(
        "IndexedDataset: snapshot is from a different dataset (or from "
        "before a Compact)");
  }
  // Rows appended after the snapshot keep their current activation.
  std::copy(snapshot.active.begin(), snapshot.active.end(), active_.begin());
  active_count_ = snapshot.active_count;
  for (std::size_t i = snapshot.active.size(); i < active_.size(); ++i) {
    if (active_[i]) ++active_count_;
  }
  if (!weights_.empty()) {
    active_mass_ = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (active_[i]) active_mass_ += weights_[i];
    }
  }
  active_ids_dirty_ = true;
  if (grid_.has_value()) grid_->ResetActive(active_);
  return Status::OK();
}

void IndexedDataset::RestoreAll() {
  std::fill(active_.begin(), active_.end(), std::uint8_t{1});
  active_count_ = active_.size();
  active_mass_ = total_mass_;
  active_ids_dirty_ = true;
  if (grid_.has_value()) grid_->ResetActive(active_);
}

const SpatialGrid& IndexedDataset::EnsureGrid(
    std::size_t expected_neighbors) const {
  DPC_CHECK(!points_.empty());
  if (!grid_.has_value()) {
    auto built = SpatialGrid::Build(points_, domain_, expected_neighbors);
    DPC_CHECK(built.ok());  // Preconditions hold by construction.
    grid_.emplace(std::move(*built));
    if (active_count_ < points_.size()) grid_->ResetActive(active_);
  }
  return *grid_;
}

const IndexedDataset::ProfileBreakpoints* IndexedDataset::LookupProfile(
    std::size_t t) const {
  if (!weighted() && active_count_ == points_.size()) {
    for (std::size_t slot = 0; slot < profile_memo_.size(); ++slot) {
      if (profile_memo_[slot].first != t) continue;
      // Most recently used first: rotate the hit to the front.
      std::rotate(profile_memo_.begin(),
                  profile_memo_.begin() + static_cast<std::ptrdiff_t>(slot),
                  profile_memo_.begin() + static_cast<std::ptrdiff_t>(slot) +
                      1);
      ++profile_memo_counts_.hits;
      return &profile_memo_.front().second;
    }
  }
  ++profile_memo_counts_.misses;
  return nullptr;
}

void IndexedDataset::StoreProfile(std::size_t t,
                                  std::span<const std::uint64_t> starts,
                                  std::span<const double> values) const {
  if (weighted() || active_count_ != points_.size()) return;
  std::erase_if(profile_memo_,
                [t](const auto& entry) { return entry.first == t; });
  if (profile_memo_.size() >= kProfileMemoCapacity) profile_memo_.pop_back();
  profile_memo_.emplace(
      profile_memo_.begin(), t,
      ProfileBreakpoints{{starts.begin(), starts.end()},
                         {values.begin(), values.end()}});
}

IndexedDataset::ProfileMemoCounts IndexedDataset::TakeProfileMemoCounts() {
  return std::exchange(profile_memo_counts_, ProfileMemoCounts{});
}

void IndexedDataset::BatchKnn(std::size_t k, std::span<double> out,
                              ThreadPool* pool, bool sorted) const {
  if (weighted()) {
    BatchKnnWeighted(k, out, pool);
    return;
  }
  DPC_CHECK_GE(active_count_, 1u);
  DPC_CHECK_LE(k, active_count_ - 1);
  const SpatialGrid& grid = EnsureGrid(k);
  grid.BatchKnnDistancesFor(ActiveIds(), k, out, pool, sorted);
}

void IndexedDataset::BatchCountWithin(double r, std::span<std::size_t> out,
                                      ThreadPool* pool) const {
  if (weighted()) {
    BatchCountWithinWeighted(r, out, pool);
    return;
  }
  DPC_CHECK_EQ(out.size(), active_count_);
  if (active_count_ == 0) return;
  const SpatialGrid& grid = EnsureGrid(/*expected_neighbors=*/16);
  grid.BatchCountWithin(ActiveIds(), r, out, pool);
}

void IndexedDataset::BatchKnnWeighted(std::size_t k, std::span<double> out,
                                      ThreadPool* pool) const {
  DPC_CHECK_GE(active_mass_, 1u);
  DPC_CHECK_LE(k, active_mass_ - 1);
  DPC_CHECK_EQ(out.size(), active_count_ * k);
  const std::span<const std::uint32_t> ids = ActiveIds();
  const std::size_t d = points_.dim();
  const double* data = points_.Data().data();
  // One query per expanded multiset: the query row's own weight-1 duplicate
  // copies sit at squared distance exactly +0.0 (x - x accumulates +0.0 per
  // coordinate), matching what a grid over the expanded rows returns.
  constexpr std::size_t kQueryGrain = 16;
  ParallelForChunks(
      pool, 0, ids.size(), kQueryGrain,
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        std::vector<std::pair<double, std::uint64_t>> cands;
        cands.reserve(ids.size());
        for (std::size_t r = lo; r < hi; ++r) {
          const std::uint32_t q = ids[r];
          const double* qrow = data + static_cast<std::size_t>(q) * d;
          cands.clear();
          if (weights_[q] > 1) cands.emplace_back(0.0, weights_[q] - 1);
          for (const std::uint32_t j : ids) {
            if (j == q) continue;
            cands.emplace_back(
                SquaredDistanceRows(qrow,
                                    data + static_cast<std::size_t>(j) * d, d),
                weights_[j]);
          }
          std::sort(cands.begin(), cands.end(),
                    [](const auto& a, const auto& b) {
                      return a.first < b.first;
                    });
          double* row = out.data() + r * k;
          std::size_t written = 0;
          for (const auto& [sq, w] : cands) {
            if (written == k) break;
            const double dist = std::sqrt(sq);
            const std::uint64_t take =
                std::min<std::uint64_t>(w, k - written);
            for (std::uint64_t c = 0; c < take; ++c) row[written++] = dist;
          }
          DPC_CHECK_EQ(written, k);
        }
      },
      kAlwaysParallel);
}

void IndexedDataset::BatchCountWithinWeighted(double r,
                                              std::span<std::size_t> out,
                                              ThreadPool* pool) const {
  DPC_CHECK_EQ(out.size(), active_count_);
  if (active_count_ == 0) return;
  const std::span<const std::uint32_t> ids = ActiveIds();
  const std::size_t d = points_.dim();
  const double* data = points_.Data().data();
  constexpr std::size_t kQueryGrain = 16;
  ParallelForChunks(
      pool, 0, ids.size(), kQueryGrain,
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t rank = lo; rank < hi; ++rank) {
          const std::uint32_t q = ids[rank];
          const double* qrow = data + static_cast<std::size_t>(q) * d;
          std::uint64_t mass = 0;
          if (r >= 0.0) {
            for (const std::uint32_t j : ids) {
              const double sq = SquaredDistanceRows(
                  qrow, data + static_cast<std::size_t>(j) * d, d);
              if (std::sqrt(sq) <= r) mass += weights_[j];
            }
          }
          out[rank] = static_cast<std::size_t>(mass);
        }
      },
      kAlwaysParallel);
}

// ----------------------------------------------------------- KnnCappedCounts

Result<KnnCappedCounts> KnnCappedCounts::Build(const IndexedDataset& index,
                                               std::size_t cap,
                                               std::size_t max_points,
                                               ThreadPool* pool) {
  if (index.weighted()) return BuildWeighted(index, cap, max_points, pool);
  const std::size_t n = index.active_size();
  if (n == 0) {
    return Status::InvalidArgument("KnnCappedCounts: empty active set");
  }
  if (cap < 1 || cap > n) {
    return Status::InvalidArgument(
        "KnnCappedCounts: cap must satisfy 1 <= cap <= active_size");
  }
  if (n > max_points) {
    return Status::ResourceExhausted(
        "KnnCappedCounts: dataset has " + std::to_string(n) +
        " active points, cap is " + std::to_string(max_points) +
        " (see GoodRadiusOptions::max_profile_points)");
  }
  KnnCappedCounts counts;
  counts.n_ = n;
  counts.cap_ = cap;
  counts.k_ = cap - 1;
  counts.count_scratch_.assign(n, 0);
  const std::span<const std::uint32_t> ids = index.ActiveIds();
  counts.ids_.assign(ids.begin(), ids.end());
  if (counts.k_ == 0) return counts;  // Every capped count is 1.

  std::vector<double> knn(n * counts.k_);
  index.BatchKnn(counts.k_, knn, pool, /*sorted=*/true);
  counts.rows_.resize(n * counts.k_);
  for (std::size_t i = 0; i < knn.size(); ++i) {
    counts.rows_[i] = BumpDistanceUp(static_cast<float>(knn[i]));
  }
  for (std::size_t r = 0; r < n; ++r) {
    counts.threshold_ub_ =
        std::max(counts.threshold_ub_, counts.rows_[r * counts.k_ + counts.k_ - 1]);
  }
  return counts;
}

Result<KnnCappedCounts> KnnCappedCounts::BuildWeighted(
    const IndexedDataset& index, std::size_t cap, std::size_t max_points,
    ThreadPool* pool) {
  const std::size_t n = index.active_size();
  if (n == 0) {
    return Status::InvalidArgument("KnnCappedCounts: empty active set");
  }
  if (cap < 1 || cap > index.active_mass()) {
    return Status::InvalidArgument(
        "KnnCappedCounts: cap must satisfy 1 <= cap <= active_mass");
  }
  if (n > max_points) {
    return Status::ResourceExhausted(
        "KnnCappedCounts: dataset has " + std::to_string(n) +
        " active rows, cap is " + std::to_string(max_points) +
        " (see GoodRadiusOptions::max_profile_points)");
  }
  KnnCappedCounts counts;
  counts.n_ = n;
  counts.cap_ = cap;
  counts.weighted_ = true;
  const std::span<const std::uint32_t> ids = index.ActiveIds();
  const std::span<const std::uint64_t> weights = index.weights();
  counts.center_mass_.resize(n);
  for (std::size_t r = 0; r < n; ++r) counts.center_mass_[r] = weights[ids[r]];
  counts.wrow_start_.assign(n + 1, 0);
  if (cap == 1) return counts;  // Every capped count is 1.

  // Compressed rows: ascending distinct bumped-float neighbor distances with
  // cumulative mass clamped at cap-1 — enough to answer min(B_r, cap)
  // exactly, at O(n) memory per row instead of O(cap).
  const std::uint64_t neighbor_cap = cap - 1;
  const std::size_t d = index.dim();
  const double* data = index.points().Data().data();
  constexpr std::size_t kRowGrain = 16;
  const std::size_t num_chunks = NumChunks(n, kRowGrain);
  struct ChunkRows {
    std::vector<float> vals;
    std::vector<std::uint64_t> mass;
    std::vector<std::size_t> len;  // one entry per row of the chunk
  };
  std::vector<ChunkRows> chunks(num_chunks);
  ParallelForChunks(
      pool, 0, n, kRowGrain,
      [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
        ChunkRows& out = chunks[chunk];
        std::vector<std::pair<float, std::uint64_t>> cands;
        cands.reserve(n);
        for (std::size_t r = lo; r < hi; ++r) {
          const std::uint32_t q = ids[r];
          const double* qrow = data + static_cast<std::size_t>(q) * d;
          cands.clear();
          if (weights[q] > 1) {
            cands.emplace_back(BumpDistanceUp(0.0f), weights[q] - 1);
          }
          for (const std::uint32_t j : ids) {
            if (j == q) continue;
            const double dist = std::sqrt(SquaredDistanceRows(
                qrow, data + static_cast<std::size_t>(j) * d, d));
            cands.emplace_back(BumpDistanceUp(static_cast<float>(dist)),
                               weights[j]);
          }
          std::sort(cands.begin(), cands.end(),
                    [](const auto& a, const auto& b) {
                      return a.first < b.first;
                    });
          std::size_t len = 0;
          std::uint64_t cum = 0;
          std::size_t i = 0;
          while (i < cands.size() && cum < neighbor_cap) {
            const float v = cands[i].first;
            std::uint64_t mass = 0;
            while (i < cands.size() && cands[i].first == v) {
              mass += cands[i].second;
              ++i;
            }
            cum = std::min(cum + mass, neighbor_cap);
            out.vals.push_back(v);
            out.mass.push_back(cum);
            ++len;
          }
          out.len.push_back(len);
        }
      },
      kAlwaysParallel);
  for (std::size_t chunk = 0, r = 0; chunk < num_chunks; ++chunk) {
    for (const std::size_t len : chunks[chunk].len) {
      counts.wrow_start_[r + 1] = counts.wrow_start_[r] + len;
      ++r;
    }
    counts.wvals_.insert(counts.wvals_.end(), chunks[chunk].vals.begin(),
                         chunks[chunk].vals.end());
    counts.wmass_.insert(counts.wmass_.end(), chunks[chunk].mass.begin(),
                         chunks[chunk].mass.end());
  }
  return counts;
}

Status KnnCappedCounts::ApplyBatch(const IndexedDataset& index,
                                   std::span<const std::uint32_t> added,
                                   std::span<const std::uint32_t> removed,
                                   ThreadPool* pool) {
  if (weighted_ || index.weighted()) {
    return Status::InvalidArgument(
        "KnnCappedCounts::ApplyBatch: weighted (compressed) rows do not "
        "support incremental maintenance; rebuild instead");
  }
  last_invalidated_ = 0;
  std::vector<std::uint32_t> added_sorted(added.begin(), added.end());
  std::sort(added_sorted.begin(), added_sorted.end());
  std::vector<std::uint32_t> removed_sorted(removed.begin(), removed.end());
  std::sort(removed_sorted.begin(), removed_sorted.end());

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const auto old_rank_of = [this](std::uint32_t id) -> std::size_t {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    return (it != ids_.end() && *it == id)
               ? static_cast<std::size_t>(it - ids_.begin())
               : kNone;
  };
  const auto is_added = [&added_sorted](std::uint32_t id) {
    return std::binary_search(added_sorted.begin(), added_sorted.end(), id);
  };

  std::vector<std::uint8_t> dropped(n_, 0);
  for (const std::uint32_t q : removed_sorted) {
    const std::size_t r = old_rank_of(q);
    if (r == kNone) {
      return Status::InvalidArgument(
          "KnnCappedCounts::ApplyBatch: removed id has no row");
    }
    dropped[r] = 1;
  }
  const std::span<const std::uint32_t> now = index.ActiveIds();
  if (now.size() != n_ - removed_sorted.size() + added_sorted.size()) {
    return Status::InvalidArgument(
        "KnnCappedCounts::ApplyBatch: added/removed do not reconcile the "
        "rows with the index's active set");
  }
  if (cap_ > now.size()) {
    return Status::InvalidArgument(
        "KnnCappedCounts::ApplyBatch: cap exceeds the new active size; "
        "rebuild with a smaller cap");
  }
  if (k_ == 0) {  // No distance rows to maintain; realign the id list.
    ids_.assign(now.begin(), now.end());
    n_ = ids_.size();
    count_scratch_.assign(n_, 0);
    return Status::OK();
  }

  // The reverse-neighbor sweep: candidate rows a mutated point could have
  // influenced all lie within threshold_ub_ of its coordinates (every row
  // threshold is a bumped float strictly above the true distance, and
  // threshold_ub_ bounds them all), so the grid's CollectWithinPoint is an
  // exact superset enumerator; each candidate confirms against its own row.
  const SpatialGrid& grid = index.EnsureGrid(cap_);
  SpatialGrid::Workspace scratch;
  std::vector<std::uint32_t> cand;
  const double radius = static_cast<double>(threshold_ub_);
  const PointSet& pts = index.points();
  const std::size_t d = pts.dim();
  const double* data = pts.Data().data();
  const auto row_ptr = [&](std::size_t i) {
    return data + static_cast<std::size_t>(i) * d;
  };

  // Rows a removed point sat in can lose a neighbor: full recompute.
  std::vector<std::uint8_t> recompute(n_, 0);
  for (const std::uint32_t q : removed_sorted) {
    cand.clear();
    grid.CollectWithinPoint(pts[q], radius, scratch, cand);
    for (const std::uint32_t x : cand) {
      if (is_added(x)) continue;  // Fresh rows are computed below anyway.
      const std::size_t r = old_rank_of(x);
      if (r == kNone || dropped[r] || recompute[r]) continue;
      const double dist =
          std::sqrt(SquaredDistanceRows(row_ptr(x), row_ptr(q), d));
      if (BumpDistanceUp(static_cast<float>(dist)) <= rows_[r * k_ + k_ - 1]) {
        recompute[r] = 1;
        ++last_invalidated_;
      }
    }
  }

  // Rows an added point beats absorb it in place: sorted insert, drop-last.
  // Float narrowing is monotone, so merging bumped floats and keeping the k_
  // smallest equals bumping the k_ smallest doubles — the rebuild's order.
  for (const std::uint32_t p : added_sorted) {
    cand.clear();
    grid.CollectWithinPoint(pts[p], radius, scratch, cand);
    for (const std::uint32_t x : cand) {
      if (x == p || is_added(x)) continue;
      const std::size_t r = old_rank_of(x);
      if (r == kNone || dropped[r] || recompute[r]) continue;
      const float v = BumpDistanceUp(static_cast<float>(
          std::sqrt(SquaredDistanceRows(row_ptr(x), row_ptr(p), d))));
      float* row = &rows_[r * k_];
      if (v < row[k_ - 1]) {
        float* at = std::upper_bound(row, row + k_, v);
        std::copy_backward(at, row + k_ - 1, row + k_);
        *at = v;
      }
    }
  }

  // Reassemble in the new rank order; fresh rows (added ids + invalidated
  // survivors) come from one batched grid query over the final active set.
  std::vector<std::uint32_t> new_ids(now.begin(), now.end());
  std::vector<float> new_rows(new_ids.size() * k_);
  std::vector<std::uint32_t> fresh_ids;
  std::vector<std::size_t> fresh_ranks;
  for (std::size_t r = 0; r < new_ids.size(); ++r) {
    const std::uint32_t id = new_ids[r];
    if (is_added(id)) {
      fresh_ids.push_back(id);
      fresh_ranks.push_back(r);
      continue;
    }
    const std::size_t old_r = old_rank_of(id);
    if (old_r == kNone || dropped[old_r]) {
      return Status::InvalidArgument(
          "KnnCappedCounts::ApplyBatch: active id has no row and was not "
          "listed in added");
    }
    if (recompute[old_r]) {
      fresh_ids.push_back(id);
      fresh_ranks.push_back(r);
      continue;
    }
    std::copy(&rows_[old_r * k_], &rows_[old_r * k_] + k_, &new_rows[r * k_]);
  }
  if (!fresh_ids.empty()) {
    std::vector<double> knn(fresh_ids.size() * k_);
    grid.BatchKnnDistancesFor(fresh_ids, k_, knn, pool, /*sorted=*/true);
    for (std::size_t i = 0; i < fresh_ids.size(); ++i) {
      float* row = &new_rows[fresh_ranks[i] * k_];
      for (std::size_t j = 0; j < k_; ++j) {
        row[j] = BumpDistanceUp(static_cast<float>(knn[i * k_ + j]));
      }
      threshold_ub_ = std::max(threshold_ub_, row[k_ - 1]);
    }
  }
  rows_ = std::move(new_rows);
  ids_ = std::move(new_ids);
  n_ = ids_.size();
  count_scratch_.assign(n_, 0);
  return Status::OK();
}

std::size_t KnnCappedCounts::CountWithinCapped(std::size_t rank,
                                               double r) const {
  DPC_CHECK_LT(rank, n_);
  if (r < 0.0) return 0;
  if (weighted_) {
    if (cap_ == 1) return 1;
    const float bound = std::nextafter(static_cast<float>(r),
                                       std::numeric_limits<float>::infinity());
    const std::size_t lo = wrow_start_[rank];
    const std::size_t hi = wrow_start_[rank + 1];
    // Strictly ascending distinct values: the last entry <= bound carries the
    // cumulative neighbor mass (already clamped at cap-1).
    const auto it = std::upper_bound(wvals_.begin() + lo, wvals_.begin() + hi,
                                     bound);
    if (it == wvals_.begin() + lo) return 1;
    return 1 + static_cast<std::size_t>(
                   wmass_[static_cast<std::size_t>(it - wvals_.begin()) - 1]);
  }
  if (k_ == 0) return 1;  // Only the center itself is counted.
  const float bound = std::nextafter(static_cast<float>(r),
                                     std::numeric_limits<float>::infinity());
  const std::span<const float> row{&rows_[rank * k_], k_};
  return 1 + BranchlessUpperBound(row, bound);
}

std::uint64_t GeometryFingerprint(const PointSet& points,
                                  const GridDomain& domain) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&h](const void* bytes, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(bytes);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;  // FNV-1a prime
    }
  };
  const std::uint64_t n = points.size();
  const std::uint64_t d = points.dim();
  const std::uint64_t levels = domain.levels();
  const double axis = domain.axis_length();
  mix(&n, sizeof n);
  mix(&d, sizeof d);
  mix(&levels, sizeof levels);
  mix(&axis, sizeof axis);
  const std::span<const double> data = points.Data();
  mix(data.data(), data.size() * sizeof(double));
  return h;
}

double KnnCappedCounts::CappedTopAverage(double r, std::size_t top) const {
  DPC_CHECK_GE(top, 1u);
  DPC_CHECK_LE(top, cap_);
  if (weighted_) {
    // Every expanded copy of row i shares i's capped count, so the top-`top`
    // expanded values are read off the (count, row mass) pairs sorted by
    // count. Integer sums below 2^53 stay exact in double, so this equals the
    // expanded nth_element average bit for bit.
    auto& pairs = wcount_scratch_;
    pairs.clear();
    pairs.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      pairs.emplace_back(std::min(CountWithinCapped(i, r), top),
                         center_mass_[i]);
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::uint64_t remaining = top;
    std::uint64_t sum = 0;
    for (const auto& [count, mass] : pairs) {
      if (remaining == 0) break;
      const std::uint64_t take = std::min<std::uint64_t>(mass, remaining);
      sum += static_cast<std::uint64_t>(count) * take;
      remaining -= take;
    }
    return static_cast<double>(sum) / static_cast<double>(top);
  }
  std::vector<std::size_t>& counts = count_scratch_;
  for (std::size_t i = 0; i < n_; ++i) {
    counts[i] = std::min(CountWithinCapped(i, r), top);
  }
  std::nth_element(counts.begin(),
                   counts.begin() + static_cast<std::ptrdiff_t>(top - 1),
                   counts.end(), std::greater<>());
  double sum = 0.0;
  for (std::size_t i = 0; i < top; ++i) sum += static_cast<double>(counts[i]);
  return sum / static_cast<double>(top);
}

}  // namespace dpcluster
