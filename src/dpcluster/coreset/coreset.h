// Greedy k-center-with-outliers coreset: collapse n raw points into a small
// weighted summary (m rows with integer multiplicities, sum of weights = n)
// the DP pipeline consumes in place of the input. Every summary row is an
// actual input point, so the summary lives in the same GridDomain cube; the
// per-row weight is the number of inputs assigned to it by the greedy
// farthest-point (Gonzalez) traversal, and `coverage_radius` bounds how far
// any input sits from its summary row. Counting queries answered on the
// weighted summary therefore match the raw dataset up to mass moving at most
// coverage_radius — which is why OneCluster / KCluster accuracy degrades
// gracefully: with target_size >= 2z + O(k) centers, the traversal's radius
// is within 2x of the optimal k-center-with-z-outliers radius on the input
// (Gonzalez' bound), so a planted cluster of radius r is summarized by rows
// within r + 2 r_opt of its true center.
//
// The construction is deterministic and bit-identical at any thread count:
// no Rng, size-only static chunking, chunk-ordered argmax merges, and
// per-element relaxations that never race (geo/SpatialGrid prunes each
// round's update set; the distance is la/vector_ops' canonical kernel).
//
// Privacy note: the summary is a data-dependent *internal* representation —
// nothing about it is released, and the DP mechanisms run on the weighted
// rows with their expanded-mass semantics (see geo/dataset.h). The greedy
// traversal is not 1-stable, though: replacing one input row can move many
// summary rows and their weights, so the mechanisms' per-row sensitivity
// arguments do not carry over to the summary as they stand. A 1-stable
// summary is open work (ROADMAP.md, the 1-stable coreset item).

#ifndef DPCLUSTER_CORESET_CORESET_H_
#define DPCLUSTER_CORESET_CORESET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dpcluster/common/status.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"
#include "dpcluster/parallel/thread_pool.h"

namespace dpcluster {

/// Knobs for the coreset stage, read from the request's `Tuning` block. The
/// index builders (BuildSharedIndex, the service's IndexCache) are the only
/// code that applies them; the core algorithms run on whatever index they are
/// given.
struct CoresetOptions {
  /// Master switch. Off by default: compression trades a bounded accuracy
  /// loss (coverage_radius) for speed, so it is an explicit opt-in.
  bool enabled = false;
  /// Inputs with fewer rows than this run uncompressed even when enabled —
  /// below it the pipeline is already fast and the summary would only add
  /// the coverage error.
  std::size_t min_points = 65536;
  /// Number of summary rows the greedy traversal keeps. Sized as
  /// ~2z + O(k) for k clusters with z outliers; the 2048 default comfortably
  /// covers the bench/eval scenarios (k <= 8, z <= n/10 collapsed by
  /// duplicate weights) while keeping every downstream stage at its small-n
  /// cost.
  std::size_t target_size = 2048;

  /// True if an n-row input is compressed: the one copy of the gate.
  bool Applies(std::size_t n) const { return enabled && n >= min_points; }

  Status Validate() const;
};

/// A weighted summary of an input PointSet.
struct CoresetSummary {
  /// The m summary rows; each is (bit-for-bit) one of the input rows.
  PointSet points;
  /// Per-row multiplicities; weights[i] >= 1 and the weights sum to
  /// input_size.
  std::vector<std::uint64_t> weights;
  /// For each summary row, the index of the input row it copies (the first
  /// occurrence, in input order).
  std::vector<std::uint32_t> source_ids;
  /// Max distance from any input row to its assigned summary row (0 when the
  /// summary is lossless, i.e. only exact duplicates were collapsed).
  double coverage_radius = 0.0;
  /// Number of input rows the summary stands for.
  std::size_t input_size = 0;
};

/// Collapses exact duplicate rows (bit-identical coordinates) into one
/// weighted row each, in first-occurrence order. Lossless: coverage_radius
/// is 0, and any weighted-consumer query on the result equals the same query
/// on the input. This is the whole coreset when the input has at most
/// target_size distinct rows (e.g. the grid_snapped scenario family).
CoresetSummary CollapseDuplicates(const PointSet& s);

/// Builds the k-center summary: duplicates collapsed, then (if more than
/// options.target_size distinct rows remain) the greedy farthest-point
/// traversal picks target_size rows and assigns every distinct row to its
/// nearest picked row (ties to the earlier pick), accumulating weights.
/// `options.Applies` is the *caller's* gate — this function always
/// compresses. Deterministic and bit-identical at any `pool`
/// size.
Result<CoresetSummary> BuildCoreset(const PointSet& s, const GridDomain& domain,
                                    const CoresetOptions& options,
                                    ThreadPool* pool);

/// A deletion-capable weighted IndexedDataset over the summary rows — the
/// object the pipeline's IndexedDataset entry points consume.
Result<IndexedDataset> MakeWeightedIndex(CoresetSummary summary,
                                         const GridDomain& domain);

}  // namespace dpcluster

#endif  // DPCLUSTER_CORESET_CORESET_H_
