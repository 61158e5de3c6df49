#include "dpcluster/core/good_radius.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "dpcluster/common/check.h"
#include "dpcluster/coreset/coreset.h"
#include "dpcluster/common/math_util.h"
#include "dpcluster/core/radius_profile.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/spatial_grid.h"
#include "dpcluster/parallel/thread_pool.h"
#include "dpcluster/random/distributions.h"

namespace dpcluster {
namespace {

// Builds the Algorithm 1 quality
//   Q(g) = 1/2 * min{ t - L(r_g / 2),  L(r_g) - t + 4 Gamma }
// as a step function over solution-grid indices g, from the fine profile.
//
// Q changes value only where L(r_g) changes (fine index 2g crosses a fine
// breakpoint b => g = ceil(b/2)) or where L(r_g/2) changes (fine index g
// crosses b => g = b). Both candidate streams ascend with b, so one merged
// two-pointer pass visits every candidate in order while two piece cursors
// track the fine pieces containing 2g and g — no sort, no per-candidate
// binary searches (the former enumeration walked the breakpoints twice and
// paid a log-factor lookup per candidate).
StepFunction BuildQuality(const RadiusProfile& profile, double t, double gamma) {
  const StepFunction& fine = profile.fine_l();
  const std::uint64_t grid = profile.solution_grid_size();
  const std::span<const std::uint64_t> bps = fine.starts();
  const std::span<const double> fine_values = fine.values();
  const std::size_t pieces = bps.size();

  std::vector<std::uint64_t> starts;
  std::vector<double> values;
  starts.reserve(2 * pieces + 1);
  values.reserve(2 * pieces + 1);

  std::size_t pf = 0;  // piece containing fine index 2g (for L(r_g))
  std::size_t ph = 0;  // piece containing fine index g (for L(r_g/2))
  auto emit = [&](std::uint64_t g) {
    while (pf + 1 < pieces && bps[pf + 1] <= 2 * g) ++pf;
    while (ph + 1 < pieces && bps[ph + 1] <= g) ++ph;
    const double l_full = fine_values[pf];
    const double l_half = fine_values[ph];
    const double q = 0.5 * std::min(t - l_half, l_full - t + 4.0 * gamma);
    if (values.empty() || values.back() != q) {
      starts.push_back(g);
      values.push_back(q);
    }
  };

  emit(0);
  // Stream A: g = ceil(b/2); stream B: g = b. Candidates at or past the grid
  // end are dropped — monotone, so the whole stream tail is dropped with
  // them. Duplicate candidates re-evaluate to the same q and coalesce.
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < pieces && (bps[ia] + 1) / 2 >= grid) ia = pieces;
  while (ib < pieces && bps[ib] >= grid) ib = pieces;
  while (ia < pieces || ib < pieces) {
    const std::uint64_t ga =
        ia < pieces ? (bps[ia] + 1) / 2 : std::uint64_t(-1);
    const std::uint64_t gb = ib < pieces ? bps[ib] : std::uint64_t(-1);
    if (ga <= gb) {
      emit(ga);
      if (++ia >= pieces || (bps[ia] + 1) / 2 >= grid) ia = pieces;
    } else {
      emit(gb);
      if (++ib >= pieces || bps[ib] >= grid) ib = pieces;
    }
  }
  return StepFunction::FromBreakpoints(grid, std::move(starts), std::move(values));
}

// t rescaled for a subsample of m of the n rows (never below 1).
std::size_t RescaledT(std::size_t t, std::size_t m, std::size_t n) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(static_cast<double>(t) * static_cast<double>(m) /
                          static_cast<double>(n))));
}

// The subsample size the radius stage may keep (satellite of the
// IndexedDataset PR): max_profile_points guards the quadratic structures,
// but when the ~O(n t) grid profile serves the subsampled problem cheaply
// the stage can afford subsample_grid_cap_factor times more rows — less
// subsampling error at about the same cost. Only the RecConcave engine
// qualifies, and under kAuto only from 512 rows and while t - 1 stays within
// the t-NN stream's cheap range: n/4 (n/2 once the cell grid collapses to
// one cell). Larger t keeps the strict cap, which bounds the ~n t events of
// the enlarged sample.
std::size_t EffectiveSubsampleCap(std::size_t n, std::size_t t, std::size_t d,
                                  const GoodRadiusOptions& options) {
  const std::size_t m = options.max_profile_points;
  if (options.engine != GoodRadiusOptions::Engine::kRecConcave) return m;
  if (!(options.subsample_grid_cap_factor > 1.0)) return m;
  const double raised =
      static_cast<double>(m) * options.subsample_grid_cap_factor;
  const std::size_t m2 = static_cast<std::size_t>(std::min(
      static_cast<double>(n), raised));
  if (m2 <= m) return m;
  if (options.profile_index == ProfileIndex::kExact) return m;
  if (options.profile_index == ProfileIndex::kAuto) {
    if (m2 < 512) return m;
    const std::size_t t2 = RescaledT(t, m2, n);
    const std::size_t t_cap =
        GridCollapsesToSingleCell(m2, d, t2 > 1 ? t2 - 1 : 1) ? m2 / 2
                                                              : m2 / 4;
    if (t2 - 1 > t_cap) return m;
  }
  return m2;
}

Result<GoodRadiusResult> RunRecConcaveEngine(Rng& rng, const PointSet* s,
                                             const IndexedDataset* index,
                                             std::size_t t,
                                             const GridDomain& domain,
                                             const GoodRadiusOptions& options,
                                             std::size_t profile_cap,
                                             double gamma, ThreadPool* pool) {
  const double eps = options.params.epsilon;
  const double beta = options.beta;
  Result<RadiusProfile> built =
      index != nullptr
          ? RadiusProfile::Build(*index, t, profile_cap, pool,
                                 options.profile_index)
          : RadiusProfile::Build(*s, t, domain, profile_cap, pool,
                                 options.profile_index);
  DPC_RETURN_IF_ERROR(built.status());
  const RadiusProfile& profile = *built;

  GoodRadiusResult result;
  result.gamma = gamma;

  // Step 2: zero-radius shortcut. L has sensitivity 2, so Lap(4/eps) noise
  // gives an (eps/2)-DP test.
  const double noisy_l0 = profile.LAtZero() + SampleLaplace(rng, 4.0 / eps);
  const double bar =
      static_cast<double>(t) - 2.0 * gamma - (4.0 / eps) * std::log(2.0 / beta);
  if (noisy_l0 > bar) {
    result.radius = 0.0;
    result.grid_index = 0;
    result.zero_radius_shortcut = true;
    return result;
  }

  // Steps 3-4: RecConcave on Q with promise Gamma and the remaining eps/2.
  const StepFunction quality =
      BuildQuality(profile, static_cast<double>(t), gamma);
  RecConcaveOptions rc = options.rec_concave;
  rc.alpha = 0.5;
  rc.beta = beta / 2.0;
  rc.epsilon = eps / 2.0;
  DPC_ASSIGN_OR_RETURN(std::uint64_t g, RecConcave(rng, quality, gamma, rc));
  result.grid_index = g;
  result.radius = domain.RadiusFromIndex(g);
  return result;
}

Result<GoodRadiusResult> RunSparseVectorEngine(Rng& rng, const PointSet* s,
                                               const IndexedDataset* index,
                                               std::size_t t,
                                               const GridDomain& domain,
                                               const GoodRadiusOptions& options,
                                               std::size_t profile_cap,
                                               ThreadPool* pool) {
  const double eps = options.params.epsilon;
  const double beta = options.beta;
  // The ~log|X| capped counts of the binary search come from per-point t-NN
  // rows (O(n t) memory) — the n x n PairwiseDistances matrix this engine
  // used to materialize is gone.
  Result<KnnCappedCounts> built = Status::Internal("unset");
  const KnnCappedCounts* counts_ptr = nullptr;
  if (index != nullptr && options.shared_counts != nullptr) {
    // Streaming fast path: the caller maintains the rows across edits
    // (KnnCappedCounts::ApplyBatch), so this query pays nothing to build
    // them. The rows are bit-identical to a fresh Build by ApplyBatch's
    // contract, so the released output is unchanged.
    if (options.shared_counts->size() != index->active_size() ||
        options.shared_counts->cap() != t) {
      return Status::InvalidArgument(
          "GoodRadius: shared_counts does not match the index's active set "
          "(size or cap)");
    }
    counts_ptr = options.shared_counts;
  } else if (index != nullptr) {
    built = KnnCappedCounts::Build(*index, t, profile_cap, pool);
    DPC_RETURN_IF_ERROR(built.status());
    counts_ptr = &*built;
  } else {
    DPC_ASSIGN_OR_RETURN(IndexedDataset local,
                         IndexedDataset::Create(*s, domain));
    built = KnnCappedCounts::Build(local, t, profile_cap, pool);
    DPC_RETURN_IF_ERROR(built.status());
    counts_ptr = &*built;
  }
  const KnnCappedCounts& counts = *counts_ptr;

  GoodRadiusResult result;

  const std::uint64_t grid = domain.RadiusGridSize();
  const int comparisons = CeilLog2(grid) + 1;
  // L has sensitivity 2; splitting eps across the comparisons, each uses
  // Lap(2 * comparisons * 2 / eps).
  const double scale = 4.0 * static_cast<double>(comparisons) / eps;
  // Loss margin: noise tail over all comparisons (the footnote-2 log|F| cost).
  const double margin = scale * std::log(2.0 * comparisons / beta);
  result.gamma = margin;

  // Find the smallest grid index with noisy L >= t - margin via binary search
  // (L is non-decreasing in the radius).
  const double target = static_cast<double>(t) - margin;
  std::uint64_t lo = 0;
  std::uint64_t hi = grid - 1;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const double l = counts.CappedTopAverage(domain.RadiusFromIndex(mid), t);
    const double noisy = l + SampleLaplace(rng, scale);
    if (noisy >= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  result.grid_index = lo;
  result.radius = domain.RadiusFromIndex(lo);
  result.zero_radius_shortcut = (lo == 0);
  return result;
}

// Shared driver behind both public entry points: `index` == nullptr runs on
// `s`; otherwise on the index's active points (s unused).
Result<GoodRadiusResult> GoodRadiusImpl(Rng& rng, const PointSet* s,
                                        const IndexedDataset* index,
                                        std::size_t t, const GridDomain& domain,
                                        const GoodRadiusOptions& options) {
  DPC_RETURN_IF_ERROR(options.Validate());
  const std::size_t n = index != nullptr ? index->active_size() : s->size();
  if (n == 0) return Status::InvalidArgument("GoodRadius: empty dataset");
  const std::size_t dim = index != nullptr ? index->dim() : s->dim();
  if (dim != domain.dim()) {
    return Status::InvalidArgument("GoodRadius: domain dimension mismatch");
  }
  // Weighted (coreset) inputs bound t by total mass: the rows stand for a
  // duplicate-expanded dataset, so t points may span fewer distinct rows.
  const bool weighted = index != nullptr && index->weighted();
  const std::uint64_t mass = weighted ? index->active_mass() : n;
  if (t < 1 || t > mass) {
    return Status::InvalidArgument(
        weighted ? "GoodRadius: t must satisfy 1 <= t <= active mass"
                 : "GoodRadius: t must satisfy 1 <= t <= n");
  }

  // Coreset stage (PointSet entry only): collapse to a weighted summary and
  // re-enter through the weighted index — t keeps its expanded meaning
  // because every downstream count sums multiplicities.
  if (index == nullptr && options.coreset.enabled &&
      n >= options.coreset.min_points) {
    ThreadPool build_pool(options.num_threads);
    DPC_ASSIGN_OR_RETURN(
        CoresetSummary summary,
        BuildCoreset(*s, domain, options.coreset, &build_pool));
    DPC_ASSIGN_OR_RETURN(IndexedDataset weighted_index,
                         MakeWeightedIndex(std::move(summary), domain));
    GoodRadiusOptions inner = options;
    inner.coreset.enabled = false;
    inner.shared_counts = nullptr;  // Rows describe the uncompressed index.
    return GoodRadius(rng, weighted_index, t, inner);
  }

  std::size_t profile_cap = options.max_profile_points;
  // Amplification-by-subsampling escape hatch for the profile cap: run on an
  // iid subsample with t rescaled. The subsampled mechanism is at least as
  // private as the full-data one (Lemma 6.4). When the grid profile path
  // makes the enlarged cap cheap, keep up to subsample_grid_cap_factor times
  // more rows — possibly all of them, in which case no subsample is drawn
  // and only the cap is raised.
  // A weighted index never subsamples: rows are already a compressed summary
  // (drawing rows uniformly would ignore their multiplicities).
  if (options.subsample_large_inputs && !weighted &&
      n > options.max_profile_points) {
    profile_cap = EffectiveSubsampleCap(n, t, dim, options);
    if (n > profile_cap) {
      const std::size_t m = profile_cap;
      std::vector<std::size_t> idx(m);
      for (auto& i : idx) i = rng.NextUint64(n);
      PointSet sample(dim);
      if (index != nullptr) {
        const std::span<const std::uint32_t> ids = index->ActiveIds();
        for (const std::size_t i : idx) sample.Add(index->points()[ids[i]]);
      } else {
        for (const std::size_t i : idx) sample.Add((*s)[i]);
      }
      GoodRadiusOptions inner = options;
      inner.subsample_large_inputs = false;
      inner.max_profile_points = std::max(inner.max_profile_points, m);
      inner.shared_counts = nullptr;  // Rows describe the full dataset.
      return GoodRadius(rng, sample, RescaledT(t, m, n), domain, inner);
    }
  }

  const double gamma = GoodRadiusGamma(domain, options);
  ThreadPool pool(options.num_threads);
  switch (options.engine) {
    case GoodRadiusOptions::Engine::kRecConcave:
      return RunRecConcaveEngine(rng, s, index, t, domain, options,
                                 profile_cap, gamma, &pool);
    case GoodRadiusOptions::Engine::kSparseVector:
      return RunSparseVectorEngine(rng, s, index, t, domain, options,
                                   profile_cap, &pool);
  }
  return Status::Internal("GoodRadius: unknown engine");
}

}  // namespace

Status GoodRadiusOptions::Validate() const {
  DPC_RETURN_IF_ERROR(params.Validate());
  if (!(beta > 0.0) || !(beta < 1.0)) {
    return Status::InvalidArgument("GoodRadius: beta must be in (0,1)");
  }
  if (max_profile_points < 1) {
    return Status::InvalidArgument("GoodRadius: max_profile_points must be >= 1");
  }
  if (!(subsample_grid_cap_factor >= 1.0)) {
    return Status::InvalidArgument(
        "GoodRadius: subsample_grid_cap_factor must be >= 1 (1 disables the "
        "grid-path cap raise)");
  }
  return Status::OK();
}

double GoodRadiusGamma(const GridDomain& domain,
                       const GoodRadiusOptions& options) {
  const std::uint64_t grid = domain.RadiusGridSize();
  if (options.paper_constants) {
    return PaperGamma(static_cast<double>(grid), options.params.epsilon,
                      options.beta, std::max(options.params.delta, 1e-300));
  }
  RecConcaveOptions rc = options.rec_concave;
  rc.alpha = 0.5;
  rc.beta = options.beta / 2.0;
  rc.epsilon = options.params.epsilon / 2.0;
  return RecConcaveMinPromise(grid, rc);
}

Result<GoodRadiusResult> GoodRadius(Rng& rng, const PointSet& s, std::size_t t,
                                    const GridDomain& domain,
                                    const GoodRadiusOptions& options) {
  return GoodRadiusImpl(rng, &s, nullptr, t, domain, options);
}

Result<GoodRadiusResult> GoodRadius(Rng& rng, const IndexedDataset& index,
                                    std::size_t t,
                                    const GoodRadiusOptions& options) {
  return GoodRadiusImpl(rng, nullptr, &index, t, index.domain(), options);
}

}  // namespace dpcluster
