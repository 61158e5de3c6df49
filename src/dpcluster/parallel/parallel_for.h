// ParallelFor: deterministic static chunking on top of ThreadPool.
//
// The chunk decomposition is a pure function of (range size, grain) — it never
// depends on the pool's thread count or on runtime timing. Combined with the
// ThreadPool contract (workers run deterministic numeric bodies that write to
// chunk-owned slots), every parallel region produces bit-identical results at
// any thread count, including the inline serial path taken when pool is null
// or has a single thread. Callers that must merge per-chunk partial results
// (e.g. CountBoxes) do so on the calling thread in ascending chunk order,
// which reproduces the serial merge exactly.

#ifndef DPCLUSTER_PARALLEL_PARALLEL_FOR_H_
#define DPCLUSTER_PARALLEL_PARALLEL_FOR_H_

#include <cstddef>
#include <utility>

#include "dpcluster/parallel/thread_pool.h"

namespace dpcluster {

/// Default work granularity: chunks below this many indices are not worth a
/// thread handoff for the kernels in this library.
inline constexpr std::size_t kDefaultGrain = 256;

/// Default minimum-grain cutoff: a parallel region whose range offers fewer
/// than this many indices *per pool thread* runs inline on the caller's
/// thread instead. Sized for light per-item bodies (a few hundred ns or
/// less, e.g. the per-point box indexing of GoodCenter's CountBoxes), where
/// the region is shorter than the worker wake-up it would pay for — the
/// measured source of the 1->4 thread GoodCenter slowdown in
/// BENCH_scaling.json. Call sites whose per-item work is itself O(n) or
/// O(n d) (pair-event chunks, radius-profile rows, k-NN batches) pass
/// kAlwaysParallel to keep parallelism at any range size.
///
/// Only the *execution policy* consults the thread count; the chunk
/// decomposition and every chunk's writes stay a pure function of
/// (range, grain), so the serial fallback is bit-identical to the parallel
/// run and the determinism contract is unchanged.
inline constexpr std::size_t kMinItemsPerThread = 8192;

/// Opt-out value for min_items_per_thread: parallelize regardless of size.
inline constexpr std::size_t kAlwaysParallel = 1;

/// Number of chunks a range of `count` indices splits into at granularity
/// `grain`. Depends only on (count, grain) — never on the thread count.
inline std::size_t NumChunks(std::size_t count, std::size_t grain) {
  if (count == 0) return 0;
  if (grain == 0) grain = 1;
  return (count + grain - 1) / grain;
}

/// Half-open index range of chunk `chunk` of a [begin, end) split at `grain`.
inline std::pair<std::size_t, std::size_t> ChunkRange(std::size_t begin,
                                                      std::size_t end,
                                                      std::size_t grain,
                                                      std::size_t chunk) {
  if (grain == 0) grain = 1;
  const std::size_t lo = begin + chunk * grain;
  const std::size_t hi = lo + grain < end ? lo + grain : end;
  return {lo, hi};
}

/// Runs body(chunk_begin, chunk_end, chunk_index) for every chunk of
/// [begin, end). `pool` may be null (serial). Exceptions from the body
/// propagate to the caller (the lowest-indexed throwing chunk wins).
/// Ranges offering fewer than `min_items_per_thread` indices per pool thread
/// run inline (same chunks, same results; see kMinItemsPerThread).
template <typename ChunkBody>
void ParallelForChunks(ThreadPool* pool, std::size_t begin, std::size_t end,
                       std::size_t grain, ChunkBody&& body,
                       std::size_t min_items_per_thread = kMinItemsPerThread) {
  if (end <= begin) return;
  const std::size_t count = end - begin;
  const std::size_t num_chunks = NumChunks(count, grain);
  if (pool == nullptr || !pool->can_parallelize() || num_chunks == 1 ||
      count / pool->num_threads() < min_items_per_thread) {
    for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
      const auto [lo, hi] = ChunkRange(begin, end, grain, chunk);
      body(lo, hi, chunk);
    }
    return;
  }
  pool->RunChunks(num_chunks, [&](std::size_t chunk) {
    const auto [lo, hi] = ChunkRange(begin, end, grain, chunk);
    body(lo, hi, chunk);
  });
}

/// Runs body(i) for every i in [begin, end); see ParallelForChunks.
template <typename Body>
void ParallelFor(ThreadPool* pool, std::size_t begin, std::size_t end,
                 std::size_t grain, Body&& body,
                 std::size_t min_items_per_thread = kMinItemsPerThread) {
  ParallelForChunks(
      pool, begin, end, grain,
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      min_items_per_thread);
}

}  // namespace dpcluster

#endif  // DPCLUSTER_PARALLEL_PARALLEL_FOR_H_
