#include "dpcluster/geo/dataset.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "dpcluster/common/check.h"

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

}  // namespace dpcluster
