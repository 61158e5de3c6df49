// IndexCache: the daemon's keyed LRU cache of shared IndexedDatasets.
//
// Clients name their dataset with a string key ("dataset" in the wire
// request); the cache maps that key to one IndexedDataset whose SpatialGrid
// and radius-profile memo (geo/dataset.h) survive across requests, so
// repeated solves over the same data stop paying the index build and, at a
// t already seen on the full row set, the L(r, S) profile build. Because the client key is
// *claimed*, not proven, every hit is verified against GeometryFingerprint
// (geo/dataset.h): a key reused for different bytes replaces the entry
// instead of silently serving the wrong geometry.
//
// Concurrency: IndexedDataset is not thread-safe ("one thread at a time"),
// so the cache hands out exclusive RAII leases. A request that finds its
// entry leased by another worker BYPASSES the cache — the algorithm builds
// its own index for that request (BuildSharedIndex), which by the
// exactness contract releases bit-identical outputs, just without the
// reuse speedup. No request ever blocks on another tenant's
// index. Releasing a lease restores the entry's committed active set
// (the full dataset for cached entries, the post-mutation live set for
// streams), so the next borrower always starts from the same state.
//
// Streams: /v1/stream/append and /v1/stream/expire feed a server-resident
// IndexedDataset through MutateStream — edits go through the incremental
// Insert/Remove path so the grid survives, a live/total compaction
// heuristic bounds dead-row density, and a per-stream version (bumped on
// every mutation) replaces the fingerprint as the identity on solve borrows
// (AcquireStream). Stream entries are pinned: never evicted, never
// fingerprint-replaced.
//
// Eviction: least-recently-used among entries not currently leased, only
// when inserting above capacity. Stats() exposes hit/miss/replace/evict/
// bypass counters for /v1/stats and the cache tests, plus the profile memo's
// hit/miss counts, folded in under the cache mutex when a lease returns so
// no counter is read while a solve holds the index.
//
// Coreset: when Acquire is passed CoresetOptions that apply to the dataset
// (CoresetOptions::Applies), the entry lazily builds and caches a weighted
// k-center summary index (coreset/coreset.h) next to the raw index, and the
// lease hands out the summary instead — repeated coreset solves over the
// same key pay the compression once. The summary is rebuilt when the
// dataset bytes change (fingerprint replace) or a different target size is
// requested; a failed summary build falls back to leasing the raw index.

#ifndef DPCLUSTER_SERVICE_INDEX_CACHE_H_
#define DPCLUSTER_SERVICE_INDEX_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dpcluster/coreset/coreset.h"
#include "dpcluster/geo/dataset.h"

namespace dpcluster {

class IndexCache {
 public:
  /// Exclusive borrow of one cached IndexedDataset. Falsy when the cache
  /// was bypassed (entry leased elsewhere, capacity exhausted by leased
  /// entries, or index construction failed) — the request's algorithm then
  /// builds its own index. Move-only; returns the entry on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      Release();
      cache_ = other.cache_;
      index_ = std::move(other.index_);
      other.cache_ = nullptr;
      other.index_.reset();
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Release(); }

    explicit operator bool() const { return index_ != nullptr; }
    /// The leased index; only valid while the lease is truthy. The caller
    /// may hand this to Request::shared_index but must not retain it past
    /// the lease's lifetime.
    const std::shared_ptr<IndexedDataset>& index() const { return index_; }

   private:
    friend class IndexCache;
    Lease(IndexCache* cache, std::shared_ptr<IndexedDataset> index)
        : cache_(cache), index_(std::move(index)) {}
    void Release();

    IndexCache* cache_ = nullptr;
    std::shared_ptr<IndexedDataset> index_;
  };

  struct Stats {
    std::uint64_t hits = 0;       ///< Key found, fingerprint verified.
    std::uint64_t misses = 0;     ///< Key absent; fresh index built.
    std::uint64_t replaced = 0;   ///< Key found but bytes changed.
    std::uint64_t evictions = 0;  ///< LRU entry dropped to make room.
    std::uint64_t bypasses = 0;   ///< Served index-free (entry busy / full
                                  ///< of leased entries / build failure).
    std::uint64_t entries = 0;    ///< Current resident indexes.
    /// Radius-profile builds over leased indexes served from the memo, and
    /// those that ran cold (a subset, a new t, or fresh rows).
    std::uint64_t profile_hits = 0;
    std::uint64_t profile_misses = 0;
  };

  /// Post-call state of one streaming dataset (the /v1/stream/* reply body).
  struct StreamStatus {
    /// Monotone edit counter: every successful mutation — and every
    /// compaction, which renumbers row ids — advances it. The version IS
    /// the stream's identity on later borrows (there are no client bytes to
    /// fingerprint), so replies carry it.
    std::uint64_t version = 0;
    std::size_t live = 0;   ///< Active rows.
    std::size_t total = 0;  ///< Resident rows including expired ones.
    bool compacted = false; ///< This call dropped expired rows (ids moved).
    bool created = false;   ///< This call created the stream.
  };

  /// `capacity` >= 1: max resident indexes.
  explicit IndexCache(std::size_t capacity);

  /// Borrows (building on demand) the index for `key` over exactly
  /// (points, domain). Falsy lease = bypass; never blocks on a busy entry.
  /// When coreset.Applies(points.size()), the lease carries the entry's cached weighted summary index instead of the
  /// raw one (built on first request, reused until the bytes or the target
  /// size change); the raw index is the fallback if compression fails.
  /// A `key` naming a resident stream always bypasses: client-supplied bytes
  /// never replace (and so never destroy) stream state.
  Lease Acquire(const std::string& key, const PointSet& points,
                const GridDomain& domain, const CoresetOptions& coreset = {});

  /// Applies `mutate` exclusively to the stream named `key`, creating an
  /// empty stream over `*create_domain` first when the key is absent
  /// (absent + null domain is NotFound; a key naming a non-stream entry is
  /// InvalidArgument). `mutate` edits the dataset through Insert/Remove and
  /// returns the number of rows it touched (accumulated toward coreset
  /// staleness); its error aborts the call with the mutation half-applied
  /// only if it errored mid-batch — parsers should validate up front.
  /// After a successful mutation the version advances and, when
  /// live/total < compact_fraction (and any row is dead), the index is
  /// compacted in place. A leased (busy) stream or a cache full of leased
  /// entries is ResourceExhausted — retryable, never silently dropped.
  Result<StreamStatus> MutateStream(
      const std::string& key, const GridDomain* create_domain,
      double compact_fraction,
      const std::function<Result<std::size_t>(IndexedDataset&)>& mutate);

  /// Version-tagged borrow of a live stream for a solve. No fingerprint is
  /// verified — the stream's bytes live server-side and the returned
  /// StreamStatus::version names exactly what the solve saw. Expired rows
  /// still resident are compacted away first (bumping the version) so the
  /// leased index satisfies the shared_index contract: every row active,
  /// rows byte-identical to `*active`. When the coreset applies, the cached
  /// summary is reused until the rows edited since it was built exceed
  /// staleness_fraction * live, then rebuilt from the current active set.
  /// NotFound when the key names no stream; ResourceExhausted when busy.
  Result<Lease> AcquireStream(const std::string& key,
                              const CoresetOptions& coreset,
                              double staleness_fraction, PointSet* active,
                              GridDomain* domain, StreamStatus* status);

  Stats GetStats() const;

 private:
  struct Entry {
    std::string key;
    std::uint64_t fingerprint = 0;
    std::shared_ptr<IndexedDataset> index;
    /// Cached weighted summary over the same bytes; null until a coreset
    /// lease is first requested, reset on fingerprint replacement.
    std::shared_ptr<IndexedDataset> coreset_index;
    std::size_t coreset_target = 0;  // target_size the summary was built at.
    bool leased = false;
    std::uint64_t last_used = 0;  // LRU clock value of the latest borrow.
    /// Streaming entries (see MutateStream): the dataset is server-resident
    /// state, not a cached view of client bytes — never fingerprint-replaced
    /// and never LRU-evicted. `committed` is the active set as of the last
    /// mutation; releasing a solve lease restores it (NOT RestoreAll, which
    /// would resurrect expired rows). `edit_rows` counts rows appended +
    /// expired since the cached coreset summary was built.
    bool stream = false;
    std::uint64_t version = 0;
    std::uint64_t edit_rows = 0;
    IndexedDataset::Snapshot committed;
  };

  /// Leases `entry`, handing out its coreset summary when `coreset` asks for
  /// one (building or rebuilding it as needed). Call with mutex_ held.
  Lease LeaseEntry(Entry& entry, const PointSet& points,
                   const GridDomain& domain, const CoresetOptions& coreset);

  /// Marks the entry holding `index` not-leased, folds its profile-memo
  /// counts into the stats, and restores the dataset the borrower edited:
  /// committed live set for streams, full active set otherwise. Entries can shift position while a lease is out (a lower
  /// slot may be evicted), so the entry is found by pointer identity —
  /// leased entries are never evicted.
  void ReleaseEntry(const IndexedDataset* index);

  /// LRU slot eligible for eviction (not leased, not a stream), or
  /// entries_.size() when none is. Call with mutex_ held.
  std::size_t EvictionVictim() const;

  /// The stream entry named `key`, creating it over `*create_domain` when
  /// absent (null = NotFound). Errors as documented on MutateStream. Call
  /// with mutex_ held.
  Result<Entry*> StreamEntry(const std::string& key,
                             const GridDomain* create_domain, bool* created);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
  Stats stats_;
};

}  // namespace dpcluster

#endif  // DPCLUSTER_SERVICE_INDEX_CACHE_H_
