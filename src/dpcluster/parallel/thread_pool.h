// Fixed-size worker pool for the deterministic compute kernels (Matrix GEMM,
// pair-event chunks, CountBoxes, sample-aggregate blocks).
//
// Determinism contract: the pool only ever executes *deterministic numeric
// work* — no Rng is ever touched from a worker (all randomness stays on the
// caller's single Rng stream). Work is handed out as chunks whose boundaries
// depend solely on the problem size (see parallel_for.h), and every chunk
// writes to slots disjoint from every other chunk's, so the result of a
// parallel region is bit-identical for any pool size, and a pool of size 1
// runs everything inline on the caller's thread with no synchronization.

#ifndef DPCLUSTER_PARALLEL_THREAD_POOL_H_
#define DPCLUSTER_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dpcluster {

/// A fixed-size pool of worker threads. Workers are spawned lazily on the
/// first multi-chunk RunChunks call, so serial callers never pay for thread
/// creation.
class ThreadPool {
 public:
  /// num_threads == 0 means "auto" (std::thread::hardware_concurrency);
  /// num_threads == 1 is fully serial (no workers are ever spawned).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The configured parallelism degree (always >= 1; includes the caller's
  /// thread). Work decomposition heuristics key off this number; the pool
  /// itself never spawns more workers than the hardware offers, so asking
  /// for more threads than cores costs nothing (see EnsureWorkers).
  std::size_t num_threads() const { return num_threads_; }

  /// False when the hardware cap leaves no worker to hand work to (e.g. a
  /// single-core machine): every region then runs inline on the caller's
  /// thread, and ParallelFor skips the dispatch machinery entirely.
  bool can_parallelize() const { return effective_threads_ > 1; }

  /// Executes body(chunk) for every chunk in [0, num_chunks), blocking until
  /// all chunks are done. Chunks are claimed dynamically (which *thread* runs
  /// a chunk is unspecified), so bodies must confine their writes to
  /// chunk-owned slots. If bodies throw, the exception of the lowest-indexed
  /// throwing chunk is rethrown on the caller's thread after the region
  /// drains.
  void RunChunks(std::size_t num_chunks,
                 const std::function<void(std::size_t)>& body);

 private:
  struct Region;  // One parallel region's shared state.

  void EnsureWorkers();
  void WorkerLoop();
  static void DrainChunks(Region& region);

  std::size_t num_threads_;
  std::size_t effective_threads_;  // min(num_threads_, hardware cores)
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  Region* region_ = nullptr;  // Active region, guarded by mutex_.
  // Bumped per RunChunks; a worker joins each region at most once, so a
  // worker that drained the chunk counter blocks instead of busy-rejoining
  // while the caller is still finishing its own chunk.
  std::uint64_t region_seq_ = 0;
  bool shutdown_ = false;
};

}  // namespace dpcluster

#endif  // DPCLUSTER_PARALLEL_THREAD_POOL_H_
