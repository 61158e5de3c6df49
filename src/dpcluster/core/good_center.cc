#include "dpcluster/core/good_center.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dpcluster/common/check.h"
#include "dpcluster/dp/above_threshold.h"
#include "dpcluster/dp/accountant.h"
#include "dpcluster/dp/noisy_average.h"
#include "dpcluster/dp/stable_histogram.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/partition.h"
#include "dpcluster/la/jl_transform.h"
#include "dpcluster/la/matrix.h"
#include "dpcluster/la/qr.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/parallel/parallel_for.h"

namespace dpcluster {
namespace {

using BoxKey = std::vector<std::int64_t>;
using BoxCounts = std::unordered_map<BoxKey, std::size_t, BoxIndexHash>;

// The rows a GoodCenter call operates on: a whole PointSet (empty ids) or the
// active subset of an IndexedDataset (row i is points[ids[i]]). Row access is
// only needed to assemble the heavy-box preimage D — the hot passes all run
// over the projected matrix — so the indirection never touches a hot loop.
// A weighted (coreset) dataset additionally carries per-row multiplicities
// (`weights` indexed by original row id): every count in the pipeline — box
// occupancy, axis histograms, the averaged mass — then accumulates weight
// instead of rows, matching the duplicate-expanded dataset's counts exactly.
struct SourceRows {
  const PointSet* points;
  std::span<const std::uint32_t> ids;  // empty = identity over all rows
  std::span<const std::uint64_t> weights;  // empty = all rows have weight 1

  std::size_t size() const { return ids.empty() ? points->size() : ids.size(); }
  std::span<const double> Row(std::size_t i) const {
    return (*points)[ids.empty() ? i : ids[i]];
  }
  std::uint64_t Weight(std::size_t i) const {
    return weights.empty() ? 1 : weights[ids.empty() ? i : ids[i]];
  }
};

// Box-occupancy histogram of the projected points for one random partition;
// each row contributes its weight (1 for unweighted sources), so on a coreset
// the histogram equals the duplicate-expanded dataset's box counts exactly.
// Chunks count into private maps; the merge inserts keys in ascending-chunk
// first-seen order, which is exactly the serial row-order insertion sequence —
// ChooseHeavyCell iterates the map (drawing one noise sample per cell), so
// reproducing the insertion order keeps the released choice independent of
// the thread count.
BoxCounts CountBoxes(const Matrix& projected, const BoxPartition& partition,
                     const SourceRows& src, ThreadPool* pool) {
  struct ChunkCounts {
    BoxCounts counts;
    std::vector<BoxKey> first_seen;
  };
  const std::size_t n = projected.rows();
  std::vector<ChunkCounts> chunks(NumChunks(n, kDefaultGrain));
  ParallelForChunks(pool, 0, n, kDefaultGrain,
                    [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
    ChunkCounts& local = chunks[chunk];
    local.counts.reserve(hi - lo);
    BoxKey key(projected.cols());
    for (std::size_t i = lo; i < hi; ++i) {
      const auto row = projected.Row(i);
      for (std::size_t a = 0; a < key.size(); ++a) {
        key[a] = partition.axis(a).IndexOf(row[a]);
      }
      const auto [it, inserted] = local.counts.try_emplace(key, 0);
      it->second += static_cast<std::size_t>(src.Weight(i));
      if (inserted) local.first_seen.push_back(key);
    }
  });
  BoxCounts counts;
  counts.reserve(n);
  for (ChunkCounts& chunk : chunks) {
    for (BoxKey& key : chunk.first_seen) {
      counts[key] += chunk.counts.find(key)->second;
    }
  }
  return counts;
}

std::size_t MaxCount(const BoxCounts& counts) {
  std::size_t best = 0;
  for (const auto& [key, c] : counts) best = std::max(best, c);
  return best;
}

Status ValidateCall(const GoodCenterOptions& options, std::size_t n,
                    std::uint64_t mass, std::size_t t, double r) {
  DPC_RETURN_IF_ERROR(options.Validate());
  if (n == 0) return Status::InvalidArgument("GoodCenter: empty dataset");
  if (t < 1 || t > mass) {
    return Status::InvalidArgument(
        mass != n ? "GoodCenter: t must satisfy 1 <= t <= active mass"
                  : "GoodCenter: t must satisfy 1 <= t <= n");
  }
  if (!(r > 0.0) || !std::isfinite(r)) {
    return Status::InvalidArgument("GoodCenter: radius r must be positive");
  }
  return Status::OK();
}

// Step 1's target dimension: ceil(jl_constant * ln(2n/beta)), clamped. For a
// weighted source n is the expanded mass, not the row count — the utility
// bound's n is the number of (expanded) input points.
std::size_t JlDimFor(std::uint64_t n, const GoodCenterOptions& options) {
  std::size_t k = static_cast<std::size_t>(std::ceil(
      options.jl_constant *
      std::log(2.0 * static_cast<double>(n) / options.beta)));
  if (options.max_jl_dim > 0) k = std::min(k, options.max_jl_dim);
  return std::max<std::size_t>(k, 2);
}

// Steps 2-11, shared by both entry points: everything past the JL projection
// consumes `projected` (src.size() x k) plus original-space row access via
// `src`, so the PointSet and IndexedDataset paths release identical bytes
// whenever their projected matrices match.
Result<GoodCenterResult> GoodCenterImpl(Rng& rng, const SourceRows& src,
                                        std::size_t t, double r,
                                        const GoodCenterOptions& options,
                                        const Matrix& projected,
                                        ThreadPool& pool) {
  const std::size_t n = src.size();
  const std::size_t d = src.points->dim();
  const std::size_t k = projected.cols();
  // Formulas written in terms of the input size use the expanded mass: for a
  // weighted source the rows stand for that many duplicate-expanded points.
  std::uint64_t mass = n;
  if (!src.weights.empty()) {
    mass = 0;
    for (std::size_t i = 0; i < n; ++i) mass += src.Weight(i);
  }

  const double eps = options.params.epsilon;
  const double delta = options.params.delta;
  const double beta = options.beta;
  const PrivacyParams quarter{eps / 4.0, delta / 4.0};

  GoodCenterResult result;
  result.jl_dim = k;

  // ---- Step 2: AboveThreshold over the box-partition queries (eps/4). ----
  const double threshold =
      static_cast<double>(t) -
      (options.threshold_offset_factor / eps) *
          std::log(2.0 * static_cast<double>(mass) / beta);
  DPC_ASSIGN_OR_RETURN(AboveThreshold sparse_vector,
                       AboveThreshold::Create(rng, eps / 4.0, threshold));

  // ---- Steps 3-6: random box partitions until a heavy box exists. --------
  std::size_t max_rounds = options.max_rounds;
  if (max_rounds == 0) {
    max_rounds = static_cast<std::size_t>(
        std::ceil(2.0 * static_cast<double>(mass) * std::log(1.0 / beta) /
                  beta));
  }
  const double box_side = options.box_side_factor * r;
  BoxCounts counts;
  bool found = false;
  // Constructed lazily inside the loop: a throwaway up-front construction
  // would burn k Rng draws that no round ever uses.
  std::optional<BoxPartition> partition;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    partition.emplace(rng, k, box_side);
    counts = CountBoxes(projected, *partition, src, &pool);
    result.rounds_used = round + 1;
    DPC_ASSIGN_OR_RETURN(
        bool top,
        sparse_vector.Process(rng, static_cast<double>(MaxCount(counts))));
    if (top) {
      found = true;
      break;
    }
  }
  if (!found) {
    return Status::DeadlineExceeded(
        "GoodCenter: no box partition captured the cluster within max_rounds "
        "(is there really a ball of radius r holding t points?)");
  }

  // ---- Step 7: stable histogram chooses the heavy box (eps/4, delta/4). ---
  DPC_ASSIGN_OR_RETURN(auto box_choice,
                       (ChooseHeavyCell<BoxKey, BoxIndexHash>(rng, counts, quarter)));
  result.noisy_box_count = box_choice.noisy_count;

  std::vector<std::size_t> d_indices;
  {
    // Membership scan over the chosen box; per-chunk hits concatenated in
    // chunk order reproduce the serial ascending-index sequence.
    std::vector<std::vector<std::size_t>> chunk_hits(NumChunks(n, kDefaultGrain));
    ParallelForChunks(&pool, 0, n, kDefaultGrain,
                      [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
      std::vector<std::size_t>& hits = chunk_hits[chunk];
      for (std::size_t i = lo; i < hi; ++i) {
        const auto row = projected.Row(i);
        bool match = true;
        for (std::size_t a = 0; a < k; ++a) {
          if (partition->axis(a).IndexOf(row[a]) != box_choice.key[a]) {
            match = false;
            break;
          }
        }
        if (match) hits.push_back(i);
      }
    });
    for (const std::vector<std::size_t>& hits : chunk_hits) {
      d_indices.insert(d_indices.end(), hits.begin(), hits.end());
    }
  }
  // The preimage D, gathered row by row (same bytes as Subset of a
  // materialized active view).
  PointSet d_set(d);
  for (const std::size_t i : d_indices) d_set.Add(src.Row(i));

  // ---- Steps 8-9: rotate and pick a heavy interval per axis. --------------
  const Matrix basis = RandomOrthonormalBasis(rng, d);
  const double cube_diameter =
      options.domain_axis_length > 0.0
          ? options.domain_axis_length * std::sqrt(static_cast<double>(d))
          : std::numeric_limits<double>::infinity();
  double p_len;
  if (options.axis_cell_factor > 0.0) {
    p_len = options.axis_cell_factor * r;
  } else {
    p_len = options.interval_multiplier * options.box_side_factor * r *
            std::sqrt(static_cast<double>(k) *
                      std::log(static_cast<double>(d) *
                               static_cast<double>(mass) / beta) /
                      static_cast<double>(d));
  }
  // The projection of any two cube points onto a unit vector differs by at
  // most the cube diameter, so it is also a valid per-axis spread bound.
  p_len = std::min(p_len, cube_diameter);

  // Budget: d stable histograms composed into (eps/4, delta/4). Advanced
  // composition (the paper's eps/(10 sqrt(d ln(8/delta))) choice) only beats
  // basic composition once d exceeds ~2 ln(1/delta); use whichever grants the
  // larger per-axis epsilon.
  const double eps_axis_advanced =
      InverseAdvancedEpsilon(eps / 4.0, d, delta / 8.0);
  const double eps_axis_basic = (eps / 4.0) / static_cast<double>(d);
  const bool use_advanced = eps_axis_advanced > eps_axis_basic;
  const PrivacyParams axis_params{
      use_advanced ? eps_axis_advanced : eps_axis_basic,
      use_advanced ? delta / (8.0 * static_cast<double>(d))
                   : delta / (4.0 * static_cast<double>(d))};

  // All d axis projections of D in one blocked GEMM (row i of axis_proj is
  // the rotated coordinates of d_set[i]; bit-identical to per-axis Dot calls).
  Matrix axis_proj(d_set.size(), d);
  basis.MultiplyAll(d_set.Data(), d_set.size(), axis_proj.MutableData(), &pool);

  std::vector<double> mids(d);
  for (std::size_t axis = 0; axis < d; ++axis) {
    std::unordered_map<std::int64_t, std::size_t> cells;
    for (std::size_t i = 0; i < d_set.size(); ++i) {
      cells[static_cast<std::int64_t>(
          std::floor(axis_proj.At(i, axis) / p_len))] +=
          static_cast<std::size_t>(src.Weight(d_indices[i]));
    }
    auto interval_choice = ChooseHeavyCell<std::int64_t, std::hash<std::int64_t>>(
        rng, cells, axis_params);
    if (!interval_choice.ok()) {
      return Status::NoPrivateAnswer(
          "GoodCenter: axis " + std::to_string(axis) +
          " interval selection failed (" + interval_choice.status().message() +
          "); the heavy box holds too few points for this budget");
    }
    // Interval [j p, (j+1) p) extended by p on both sides; same midpoint.
    mids[axis] =
        (static_cast<double>(interval_choice->key) + 0.5) * p_len;
  }

  // ---- Step 10: the bounding sphere C of the extended box. ----------------
  std::vector<double> center_c(d);
  basis.MultiplyTransposed(mids, center_c);
  double radius_c = 1.5 * p_len * std::sqrt(static_cast<double>(d));
  if (options.domain_axis_length > 0.0) {
    // Clamping c into the cube only shrinks its distance to any data point,
    // and any two cube points are within the cube diameter of each other —
    // so the clamped sphere still covers D while capping the averaging reach.
    for (double& x : center_c) {
      x = std::clamp(x, 0.0, options.domain_axis_length);
    }
    radius_c = std::min(radius_c, cube_diameter);
  }

  // ---- Step 11: NoisyAVG of D ∩ C (eps/4, delta/4). -----------------------
  // The weighted overload averages w-fold copies of each selected row; the
  // unweighted call stays on its own path so its bytes remain bit-identical
  // to the pre-weights implementation.
  Result<NoisyAverageOutput> avg_or = Status::Internal("unset");
  if (src.weights.empty()) {
    avg_or = NoisyAverage(rng, d_set, center_c, radius_c, quarter);
  } else {
    std::vector<std::uint64_t> d_weights(d_indices.size());
    for (std::size_t i = 0; i < d_indices.size(); ++i) {
      d_weights[i] = src.Weight(d_indices[i]);
    }
    avg_or = NoisyAverage(rng, d_set, d_weights, center_c, radius_c, quarter);
  }
  DPC_RETURN_IF_ERROR(avg_or.status());
  NoisyAverageOutput& avg = *avg_or;
  result.center = std::move(avg.average);
  result.noisy_inlier_count = avg.noisy_count;
  result.noise_sigma = avg.sigma;
  result.guarantee_radius = (std::sqrt(2.0) * options.box_side_factor + 1.0) * r *
                            std::sqrt(static_cast<double>(k));
  return result;
}

}  // namespace

GoodCenterOptions GoodCenterOptions::PaperConstants() {
  GoodCenterOptions o;
  o.jl_constant = 46.0;
  o.max_jl_dim = 0;
  o.box_side_factor = 300.0;
  o.threshold_offset_factor = 100.0;
  o.interval_multiplier = 3.0;
  o.axis_cell_factor = 0.0;  // Verbatim worst-case interval length.
  o.max_rounds = 0;  // Resolved to the paper's 2n log(1/beta)/beta at run time.
  o.domain_axis_length = 0.0;  // No domain clamping in the verbatim preset.
  return o;
}

Status GoodCenterOptions::Validate() const {
  DPC_RETURN_IF_ERROR(params.ValidateWithPositiveDelta());
  if (!(beta > 0.0) || !(beta < 1.0)) {
    return Status::InvalidArgument("GoodCenter: beta must be in (0,1)");
  }
  if (!(jl_constant > 0.0)) {
    return Status::InvalidArgument("GoodCenter: jl_constant must be positive");
  }
  if (!(box_side_factor >= 4.0)) {
    return Status::InvalidArgument(
        "GoodCenter: box_side_factor must be >= 4 (the box must be able to "
        "contain the projected cluster, whose diameter is ~3r)");
  }
  if (!(threshold_offset_factor >= 0.0)) {
    return Status::InvalidArgument(
        "GoodCenter: threshold_offset_factor must be >= 0");
  }
  if (!(interval_multiplier >= 3.0)) {
    return Status::InvalidArgument(
        "GoodCenter: interval_multiplier must be >= 3 (Lemma 4.9 bound)");
  }
  return Status::OK();
}

Result<GoodCenterResult> GoodCenter(Rng& rng, const PointSet& s, std::size_t t,
                                    double r, const GoodCenterOptions& options) {
  DPC_RETURN_IF_ERROR(ValidateCall(options, s.size(), s.size(), t, r));

  // One pool for the whole call; every parallel region is deterministic
  // numeric work (the Rng is only ever touched from this thread).
  ThreadPool pool(options.num_threads);

  // ---- Step 1: JL projection into R^k. -----------------------------------
  const std::size_t k = JlDimFor(s.size(), options);
  const JlTransform jl(rng, s.dim(), k);
  const Matrix projected = jl.ApplyAll(s, &pool);

  const SourceRows src{&s, {}, {}};
  return GoodCenterImpl(rng, src, t, r, options, projected, pool);
}

Result<GoodCenterResult> GoodCenter(Rng& rng, const IndexedDataset& index,
                                    std::size_t t, double r,
                                    const GoodCenterOptions& options) {
  const std::size_t n = index.active_size();
  DPC_RETURN_IF_ERROR(ValidateCall(options, n, index.active_mass(), t, r));

  ThreadPool pool(options.num_threads);
  const std::size_t k = JlDimFor(index.active_mass(), options);
  const SourceRows src{&index.points(), index.ActiveIds(),
                       index.weighted() ? index.weights()
                                        : std::span<const std::uint64_t>{}};

  // ---- Step 1: JL projection of the active rows. --------------------------
  // The matrix comes from the caller Rng and projects the gathered active
  // rows — bit-identical to the PointSet overload on ActiveView().
  const JlTransform jl(rng, index.dim(), k);
  const Matrix projected = jl.ApplyAllGathered(index.points(), src.ids, &pool);
  return GoodCenterImpl(rng, src, t, r, options, projected, pool);
}

}  // namespace dpcluster
