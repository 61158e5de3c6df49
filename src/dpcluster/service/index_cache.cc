#include "dpcluster/service/index_cache.h"

#include <utility>

#include "dpcluster/common/check.h"

namespace dpcluster {

void IndexCache::Lease::Release() {
  if (cache_ == nullptr) return;
  // ReleaseEntry undoes whatever this request's algorithm removed (the
  // committed live set for streams, the whole dataset otherwise).
  cache_->ReleaseEntry(index_.get());
  cache_ = nullptr;
  index_.reset();
}

IndexCache::IndexCache(std::size_t capacity) : capacity_(capacity) {
  DPC_CHECK_GE(capacity, 1u);
  entries_.reserve(capacity);
}

IndexCache::Lease IndexCache::LeaseEntry(Entry& entry, const PointSet& points,
                                         const GridDomain& domain,
                                         const CoresetOptions& coreset) {
  std::shared_ptr<IndexedDataset> lent = entry.index;
  if (coreset.Applies(points.size())) {
    if (entry.coreset_index == nullptr ||
        entry.coreset_target != coreset.target_size) {
      // First coreset request for these bytes (or a new target size):
      // compress once, serve the summary from here on. The build runs
      // serially — it happens at most once per entry generation, like the
      // raw index build above.
      entry.coreset_index.reset();
      entry.coreset_target = 0;
      auto summary = BuildCoreset(points, domain, coreset, nullptr);
      if (summary.ok()) {
        auto weighted = MakeWeightedIndex(std::move(*summary), domain);
        if (weighted.ok()) {
          entry.coreset_index =
              std::make_shared<IndexedDataset>(std::move(*weighted));
          entry.coreset_target = coreset.target_size;
          entry.edit_rows = 0;  // Streams: the summary is fresh again.
        }
      }
    }
    // Compression failure is a soft miss: fall back to the raw index.
    if (entry.coreset_index != nullptr) lent = entry.coreset_index;
  }
  entry.leased = true;
  entry.last_used = ++clock_;
  return Lease(this, std::move(lent));
}

std::size_t IndexCache::EvictionVictim() const {
  // LRU among entries that are neither leased nor pinned stream state;
  // entries_.size() = no victim. Call with mutex_ held.
  std::size_t victim = entries_.size();
  for (std::size_t slot = 0; slot < entries_.size(); ++slot) {
    if (entries_[slot].leased || entries_[slot].stream) continue;
    if (victim == entries_.size() ||
        entries_[slot].last_used < entries_[victim].last_used) {
      victim = slot;
    }
  }
  return victim;
}

IndexCache::Lease IndexCache::Acquire(const std::string& key,
                                      const PointSet& points,
                                      const GridDomain& domain,
                                      const CoresetOptions& coreset) {
  const std::uint64_t fingerprint = GeometryFingerprint(points, domain);
  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {
    if (entry.key != key) continue;
    if (entry.leased) {
      ++stats_.bypasses;
      return Lease();
    }
    if (entry.stream) {
      // The key names resident stream state; client-supplied bytes must
      // never replace it. Serve this request index-free.
      ++stats_.bypasses;
      return Lease();
    }
    if (entry.fingerprint != fingerprint) {
      // Same key, different bytes: the claimed identity is stale. Replace
      // (the cached summary described the old bytes; drop it too).
      auto rebuilt = IndexedDataset::Create(points, domain);
      if (!rebuilt.ok()) {
        ++stats_.bypasses;
        return Lease();
      }
      entry.fingerprint = fingerprint;
      entry.index = std::make_shared<IndexedDataset>(std::move(*rebuilt));
      entry.coreset_index.reset();
      entry.coreset_target = 0;
      ++stats_.replaced;
    } else {
      ++stats_.hits;
    }
    return LeaseEntry(entry, points, domain, coreset);
  }

  // Miss: make room, then build.
  if (entries_.size() >= capacity_) {
    const std::size_t victim = EvictionVictim();
    if (victim == entries_.size()) {
      // Every resident entry is leased (or pinned stream state) right now;
      // serve this one index-free.
      ++stats_.bypasses;
      return Lease();
    }
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(victim));
    ++stats_.evictions;
  }
  auto built = IndexedDataset::Create(points, domain);
  if (!built.ok()) {
    ++stats_.bypasses;
    return Lease();
  }
  Entry entry;
  entry.key = key;
  entry.fingerprint = fingerprint;
  entry.index = std::make_shared<IndexedDataset>(std::move(*built));
  entries_.push_back(std::move(entry));
  ++stats_.misses;
  return LeaseEntry(entries_.back(), points, domain, coreset);
}

void IndexCache::ReleaseEntry(const IndexedDataset* index) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {
    if (entry.index.get() == index || entry.coreset_index.get() == index) {
      DPC_CHECK(entry.leased);
      const IndexedDataset::ProfileMemoCounts memo =
          (entry.index.get() == index ? entry.index : entry.coreset_index)
              ->TakeProfileMemoCounts();
      stats_.profile_hits += memo.hits;
      stats_.profile_misses += memo.misses;
      // Hand the dataset back in its committed state, whatever the
      // borrower's algorithm removed. For a stream's raw index that is the
      // post-mutation live set — RestoreAll would resurrect expired rows.
      if (entry.stream && entry.index.get() == index) {
        DPC_CHECK(entry.index->Restore(entry.committed).ok());
      } else if (entry.index.get() == index) {
        entry.index->RestoreAll();
      } else {
        entry.coreset_index->RestoreAll();
      }
      entry.leased = false;
      return;
    }
  }
  DPC_CHECK(false);  // A live lease always has a resident entry.
}

Result<IndexCache::Entry*> IndexCache::StreamEntry(
    const std::string& key, const GridDomain* create_domain, bool* created) {
  for (Entry& entry : entries_) {
    if (entry.key != key) continue;
    if (!entry.stream) {
      return Status::InvalidArgument(
          "dataset \"" + key +
          "\" is a cached solve dataset, not a stream (pick another key)");
    }
    if (entry.leased) {
      return Status::ResourceExhausted("stream \"" + key +
                                       "\" is busy; retry");
    }
    return &entry;
  }
  if (create_domain == nullptr) {
    return Status::NotFound("no resident stream named \"" + key + "\"");
  }
  if (entries_.size() >= capacity_) {
    const std::size_t victim = EvictionVictim();
    if (victim == entries_.size()) {
      return Status::ResourceExhausted(
          "index cache is full of busy or stream entries; retry");
    }
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(victim));
    ++stats_.evictions;
  }
  auto built =
      IndexedDataset::Create(PointSet(create_domain->dim()), *create_domain);
  if (!built.ok()) return built.status();
  Entry entry;
  entry.key = key;
  entry.stream = true;
  entry.index = std::make_shared<IndexedDataset>(std::move(*built));
  entry.committed = entry.index->TakeSnapshot();
  entries_.push_back(std::move(entry));
  if (created != nullptr) *created = true;
  return &entries_.back();
}

Result<IndexCache::StreamStatus> IndexCache::MutateStream(
    const std::string& key, const GridDomain* create_domain,
    double compact_fraction,
    const std::function<Result<std::size_t>(IndexedDataset&)>& mutate) {
  std::lock_guard<std::mutex> lock(mutex_);
  StreamStatus status;
  DPC_ASSIGN_OR_RETURN(Entry * entry,
                       StreamEntry(key, create_domain, &status.created));
  IndexedDataset& index = *entry->index;
  DPC_ASSIGN_OR_RETURN(const std::size_t edited, mutate(index));
  entry->version += 1;
  entry->edit_rows += edited;
  if (index.active_size() < index.size() &&
      static_cast<double>(index.active_size()) <
          compact_fraction * static_cast<double>(index.size())) {
    index.Compact();
    entry->version += 1;  // Row ids moved; client-held ids are stale.
    status.compacted = true;
  }
  entry->committed = index.TakeSnapshot();
  entry->last_used = ++clock_;
  status.version = entry->version;
  status.live = index.active_size();
  status.total = index.size();
  return status;
}

Result<IndexCache::Lease> IndexCache::AcquireStream(
    const std::string& key, const CoresetOptions& coreset,
    double staleness_fraction, PointSet* active, GridDomain* domain,
    StreamStatus* status) {
  std::lock_guard<std::mutex> lock(mutex_);
  DPC_ASSIGN_OR_RETURN(Entry * entry,
                       StreamEntry(key, /*create_domain=*/nullptr, nullptr));
  IndexedDataset& index = *entry->index;
  if (index.active_size() < index.size()) {
    // The shared_index contract wants every resident row active; fold the
    // expired rows away before lending. Solves after an expiry pay this
    // once, then the entry is clean until the next expiry.
    index.Compact();
    entry->version += 1;
    entry->committed = index.TakeSnapshot();
    if (status != nullptr) status->compacted = true;
  }
  *active = index.points();
  *domain = index.domain();
  if (status != nullptr) {
    status->version = entry->version;
    status->live = index.active_size();
    status->total = index.size();
  }
  if (coreset.enabled && entry->coreset_index != nullptr &&
      static_cast<double>(entry->edit_rows) >
          staleness_fraction * static_cast<double>(index.active_size())) {
    // Drifted past the staleness threshold: drop the summary so LeaseEntry
    // rebuilds it from the current live set.
    entry->coreset_index.reset();
    entry->coreset_target = 0;
  }
  return LeaseEntry(*entry, *active, *domain, coreset);
}

IndexCache::Stats IndexCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  stats.entries = entries_.size();
  return stats;
}

}  // namespace dpcluster
