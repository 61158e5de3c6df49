#include "dpcluster/core/good_radius.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "dpcluster/common/check.h"
#include "dpcluster/common/math_util.h"
#include "dpcluster/core/radius_profile.h"
#include "dpcluster/geo/dataset.h"
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

Result<GoodRadiusResult> RunRecConcaveEngine(Rng& rng,
                                             const RadiusProfile& profile,
                                             std::size_t t,
                                             const GridDomain& domain,
                                             const GoodRadiusOptions& options,
                                             double gamma) {
  const double eps = options.params.epsilon;
  const double beta = options.beta;

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

Result<GoodRadiusResult> RunSparseVectorEngine(Rng& rng,
                                               const RadiusProfile& profile,
                                               std::size_t t,
                                               const GridDomain& domain,
                                               const GoodRadiusOptions& options) {
  const double eps = options.params.epsilon;
  const double beta = options.beta;
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
    const double l = profile.LAtSolutionIndex(mid);
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

  // Both engines query the same exact L(r, S): Algorithm 1 sweeps all of it,
  // footnote 2's binary search reads ~log|X| of its values.
  ThreadPool pool(options.num_threads);
  Result<RadiusProfile> built =
      index != nullptr
          ? RadiusProfile::Build(*index, t, options.max_profile_points, &pool,
                                 options.profile_index)
          : RadiusProfile::Build(*s, t, domain, options.max_profile_points,
                                 &pool, options.profile_index);
  DPC_RETURN_IF_ERROR(built.status());
  const RadiusProfile& profile = *built;
  switch (options.engine) {
    case GoodRadiusOptions::Engine::kRecConcave:
      return RunRecConcaveEngine(rng, profile, t, domain, options,
                                 GoodRadiusGamma(domain, options));
    case GoodRadiusOptions::Engine::kSparseVector:
      return RunSparseVectorEngine(rng, profile, t, domain, options);
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
