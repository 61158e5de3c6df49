#include "dpcluster/core/radius_profile.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "dpcluster/common/check.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/spatial_grid.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/parallel/parallel_for.h"

namespace dpcluster {
namespace {

// Maintains, for a multiset of per-center counts capped at `cap`, the sum of
// the `top` largest values under unit increments. Events only ever move one
// element from value v to v+1, so the t-th-largest threshold `thr` is
// monotone non-decreasing and all updates are amortized O(1).
//
// Invariant: thr is the value of the top-set's smallest member, i.e.
//   cnt_above := #{elements > thr} < top   and   cnt_above + cnt[thr] >= top,
// and the top-t sum is sum_above + thr * (top - cnt_above).
//
// The invariant pins (thr, cnt_above, sum_above) as functions of the count
// histogram alone (thr is exactly the top-th largest value), and every
// quantity is integer-valued, so the state after processing a batch of
// increments is independent of their order — what makes the t-NN pruned
// event stream bit-identical to the all-pairs one.
class CappedTopTracker {
 public:
  CappedTopTracker(std::size_t cap, std::size_t top, std::size_t n_centers)
      : cap_(cap), top_(top), cnt_(cap + 2, 0) {
    DPC_CHECK_GE(top, 1u);
    DPC_CHECK_LE(top, n_centers);
    // All centers start with capped count min(1, cap) (the center itself).
    const std::size_t start = std::min<std::size_t>(1, cap);
    cnt_[start] = n_centers;
    thr_ = start;
    cnt_above_ = 0;
    sum_above_ = 0.0;
  }

  /// Moves one center from capped value `old_value` to min(old_value+1, cap).
  void Increment(std::size_t old_value) {
    if (old_value >= cap_) return;  // Already saturated.
    const std::size_t nv = old_value + 1;
    --cnt_[old_value];
    ++cnt_[nv];
    if (old_value > thr_) {
      sum_above_ += 1.0;  // Stays strictly above the threshold.
    } else if (old_value == thr_) {
      ++cnt_above_;
      sum_above_ += static_cast<double>(nv);
      while (cnt_above_ >= top_) {  // Raise the threshold.
        ++thr_;
        cnt_above_ -= cnt_[thr_];
        sum_above_ -= static_cast<double>(thr_) * static_cast<double>(cnt_[thr_]);
      }
    }
    // old_value < thr_: the element stays outside the top set; nothing moves.
  }

  /// Current sum of the `top` largest capped values.
  double TopSum() const {
    return sum_above_ +
           static_cast<double>(thr_) * static_cast<double>(top_ - cnt_above_);
  }

 private:
  std::size_t cap_;
  std::size_t top_;
  std::vector<std::size_t> cnt_;
  std::size_t thr_;
  std::size_t cnt_above_;
  double sum_above_;
};

// The weighted generalization of CappedTopTracker: elements carry integer
// multiplicities (a weighted row stands for `weight` expanded centers sharing
// one capped value), and an event moves a row's whole mass from `old_value`
// to a possibly much larger `new_value` in one step. The invariant is the
// same — (thr, cnt_above, sum_above) remain functions of the expanded count
// histogram alone — so the tracker state matches running the unweighted
// tracker over the duplicate-expanded events, in any order. All sums are
// exact integers (<= top * cap <= 2^40 at bench scale), so TopSum() equals
// the unweighted tracker's double bit for bit.
class WeightedCappedTracker {
 public:
  WeightedCappedTracker(std::size_t cap, std::size_t top,
                        std::uint64_t total_mass)
      : cap_(cap), top_(top), cnt_(cap + 2, 0) {
    DPC_CHECK_GE(top, 1u);
    DPC_CHECK_LE(top, total_mass);
    const std::size_t start = std::min<std::size_t>(1, cap);
    cnt_[start] = total_mass;
    thr_ = start;
    cnt_above_ = 0;
    sum_above_ = 0;
  }

  /// Moves `mass` expanded centers from capped value `old_value` to
  /// `new_value` (callers pass old_value < new_value <= cap).
  void MoveMass(std::uint64_t mass, std::size_t old_value,
                std::size_t new_value) {
    cnt_[old_value] -= mass;
    cnt_[new_value] += mass;
    if (old_value > thr_) {
      // The mass stays strictly above the threshold; only its sum moves.
      sum_above_ += mass * static_cast<std::uint64_t>(new_value - old_value);
    } else if (new_value > thr_) {
      // Lump jumps can carry mass from at-or-below the threshold to above it
      // (impossible under unit increments from below thr, but routine here).
      cnt_above_ += mass;
      sum_above_ += mass * static_cast<std::uint64_t>(new_value);
      while (cnt_above_ >= top_) {  // Raise the threshold.
        ++thr_;
        cnt_above_ -= cnt_[thr_];
        sum_above_ -= static_cast<std::uint64_t>(thr_) * cnt_[thr_];
      }
    }
    // new_value <= thr_: the mass stays outside the top set; nothing moves.
  }

  double TopSum() const {
    return static_cast<double>(
        sum_above_ +
        static_cast<std::uint64_t>(thr_) *
            static_cast<std::uint64_t>(top_ - cnt_above_));
  }

 private:
  std::size_t cap_;
  std::uint64_t top_;
  std::vector<std::uint64_t> cnt_;
  std::size_t thr_;
  std::uint64_t cnt_above_;
  std::uint64_t sum_above_;
};

// One B-count increment: `center`'s ball gains a point at fine index `index`.
struct Event {
  std::uint64_t index;
  std::uint32_t center;
};

// Weighted increment: `center`'s ball gains `add` expanded points at `index`.
struct WeightedEvent {
  std::uint64_t index;
  std::uint32_t center;
  std::uint32_t add;
};

// Unit pair events grouped by fine index: bucket b holds the 4-byte ids of
// the centers whose ball gains one point at fine index FineIndex(b). The
// sweep only needs each index's events together (see CappedTopTracker), so
// when the fine grid is comparably sized to the event stream — the common
// case — one counting sort over the indices groups the t-NN stream without
// ever materializing (index, center) records.
class EventBuckets {
 public:
  /// `for_each_event(emit)` must call emit(fine_index, center) once per event,
  /// the same events on every call (Group makes up to two passes).
  template <typename ForEachEvent>
  static EventBuckets Group(std::size_t num_events, std::uint64_t fine_domain,
                            ForEachEvent&& for_each_event) {
    if (fine_domain > 8 * num_events + 1024) {
      // Huge |X| with few events: sorting the records beats a mostly empty
      // bucket table.
      std::vector<Event> events;
      events.reserve(num_events);
      for_each_event([&](std::uint64_t g, std::uint32_t center) {
        events.push_back({g, center});
      });
      std::sort(events.begin(), events.end(),
                [](const Event& a, const Event& b) {
                  return a.index < b.index;
                });
      return FromSorted(events);
    }
    EventBuckets buckets;
    std::vector<std::size_t>& offsets = buckets.offsets_;
    offsets.assign(fine_domain + 1, 0);
    for_each_event([&](std::uint64_t g, std::uint32_t) { ++offsets[g + 1]; });
    for (std::uint64_t g = 0; g < fine_domain; ++g) {
      offsets[g + 1] += offsets[g];
    }
    DPC_CHECK_EQ(offsets[fine_domain], num_events);
    buckets.centers_.resize(num_events);
    // Scatter with offsets[g] as bucket g's cursor; it ends at bucket g+1's
    // start, so one shift restores the starts.
    for_each_event([&](std::uint64_t g, std::uint32_t center) {
      buckets.centers_[offsets[g]++] = center;
    });
    std::copy_backward(offsets.begin(), offsets.end() - 2, offsets.end() - 1);
    offsets[0] = 0;
    return buckets;
  }

  /// Groups index-sorted events: one bucket per distinct index.
  static EventBuckets FromSorted(std::span<const Event> events) {
    EventBuckets buckets;
    buckets.sparse_ = true;
    buckets.centers_.reserve(events.size());
    for (std::size_t e = 0; e < events.size(); ++e) {
      if (e == 0 || events[e].index != events[e - 1].index) {
        buckets.keys_.push_back(events[e].index);
        buckets.offsets_.push_back(e);
      }
      buckets.centers_.push_back(events[e].center);
    }
    buckets.offsets_.push_back(events.size());
    return buckets;
  }

  std::size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::uint64_t FineIndex(std::size_t b) const {
    return sparse_ ? keys_[b] : b;
  }
  std::span<const std::uint32_t> Centers(std::size_t b) const {
    return std::span<const std::uint32_t>(centers_).subspan(
        offsets_[b], offsets_[b + 1] - offsets_[b]);
  }

 private:
  bool sparse_ = false;              // Bucket b is fine index keys_[b], not b.
  std::vector<std::uint64_t> keys_;  // Sparse buckets only.
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> centers_;
};

// The shared sweep over grouped events: maintain per-center counts (capped
// at t) and the top-t sum, recording a breakpoint wherever the value changes.
StepFunction SweepEvents(const EventBuckets& events, std::size_t n,
                         std::size_t t, std::uint64_t fine_domain) {
  std::vector<std::uint32_t> counts(n, 1);  // Every ball contains its center.
  CappedTopTracker tracker(t, t, n);
  const double inv_t = 1.0 / static_cast<double>(t);

  std::vector<std::uint64_t> starts = {0};
  std::vector<double> values = {tracker.TopSum() * inv_t};
  for (std::size_t b = 0; b < events.size(); ++b) {
    const std::span<const std::uint32_t> centers = events.Centers(b);
    if (centers.empty()) continue;
    for (const std::uint32_t c : centers) {
      tracker.Increment(std::min<std::size_t>(counts[c], t));
      ++counts[c];
    }
    const std::uint64_t g = events.FineIndex(b);
    const double value = tracker.TopSum() * inv_t;
    if (g == 0) {
      values[0] = value;  // Duplicates: the r=0 value.
    } else if (value != values.back()) {
      starts.push_back(g);
      values.push_back(value);
    }
  }

  return StepFunction::FromBreakpoints(fine_domain, std::move(starts),
                                       std::move(values));
}

// The weighted sweep: identical structure to SweepEvents, with per-row capped
// values advanced by lump mass moves. A weighted row's expanded copies all
// share one capped count — each copy's ball holds the row's own mass plus
// every within-range row's mass — so the expanded histogram is exactly
// {value(row) with multiplicity weight(row)}, which the tracker maintains.
// Values at every fine index therefore match the duplicate-expanded
// unweighted sweep bit for bit, breakpoints included.
StepFunction SweepWeightedEvents(std::span<const WeightedEvent> events,
                                 std::span<const std::uint64_t> rank_weights,
                                 std::size_t t, std::uint64_t fine_domain) {
  std::uint64_t total_mass = 0;
  for (const std::uint64_t w : rank_weights) total_mass += w;
  const std::size_t cap = t;
  // Per-row capped value; every expanded center starts at min(1, cap).
  std::vector<std::size_t> value(rank_weights.size(),
                                 std::min<std::size_t>(1, cap));
  WeightedCappedTracker tracker(cap, t, total_mass);
  const double inv_t = 1.0 / static_cast<double>(t);

  const auto apply = [&](const WeightedEvent& ev) {
    const std::size_t old_value = value[ev.center];
    const std::size_t nv =
        std::min<std::size_t>(old_value + ev.add, cap);
    if (nv == old_value) return;  // Already saturated.
    tracker.MoveMass(rank_weights[ev.center], old_value, nv);
    value[ev.center] = nv;
  };

  std::vector<std::uint64_t> starts;
  std::vector<double> values;
  std::size_t e = 0;
  // Index-0 events first (duplicate rows and self-mass), as in SweepEvents.
  while (e < events.size() && events[e].index == 0) apply(events[e++]);
  starts.push_back(0);
  values.push_back(tracker.TopSum() * inv_t);

  while (e < events.size()) {
    const std::uint64_t g = events[e].index;
    while (e < events.size() && events[e].index == g) apply(events[e++]);
    const double value_at_g = tracker.TopSum() * inv_t;
    if (value_at_g != values.back()) {
      starts.push_back(g);
      values.push_back(value_at_g);
    }
  }

  return StepFunction::FromBreakpoints(fine_domain, std::move(starts),
                                       std::move(values));
}

// Distance -> fine event index min(max(ceil(dist/fine_step - 1e-12), 0),
// max_fine); shared by both generators so their events carry identical
// indices for identical pairs. The ceiling is taken through the integer
// conversion (exact below max_fine < 2^53), which keeps this hot loop free of
// a libm call.
inline std::uint64_t FineIndexOf(double dist, double fine_step,
                                 std::uint64_t max_fine) {
  const double x = dist / fine_step - 1e-12;
  if (!(x > 0.0)) return 0;
  if (x >= static_cast<double>(max_fine)) return max_fine;
  const auto g = static_cast<std::uint64_t>(x);  // floor(x), as x > 0
  return static_cast<double>(g) < x ? g + 1 : g;
}

// All n(n-1) ordered pair events, index-sorted, then grouped — the
// O(n^2 (d + log n)) oracle path, independent of the t-NN stream's counting
// sort. `row(i)` yields the i-th point, so the same kernel sweeps a PointSet
// directly (identity rows) or the active subset of an IndexedDataset
// (rank -> original id indirection) with identical chunking and event order.
template <typename GetRow>
EventBuckets BuildExactEvents(std::size_t n, GetRow&& row, double fine_step,
                              std::uint64_t max_fine, ThreadPool* pool) {
  // The O(n^2 d) pair pass runs in parallel over row chunks; per-chunk event
  // vectors concatenated in chunk order reproduce the serial i-ascending
  // sequence exactly, so the profile is independent of the thread count.
  constexpr std::size_t kRowGrain = 32;
  const std::size_t num_chunks = NumChunks(n, kRowGrain);
  std::vector<std::vector<Event>> chunk_events(num_chunks);
  ParallelForChunks(
      pool, 0, n, kRowGrain,
      [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
        std::vector<Event>& local = chunk_events[chunk];
        std::size_t pairs = 0;
        for (std::size_t i = lo; i < hi; ++i) pairs += n - 1 - i;
        local.reserve(2 * pairs);
        for (std::size_t i = lo; i < hi; ++i) {
          const auto xi = row(i);
          for (std::size_t j = i + 1; j < n; ++j) {
            const std::uint64_t g =
                FineIndexOf(Distance(xi, row(j)), fine_step, max_fine);
            local.push_back({g, static_cast<std::uint32_t>(i)});
            local.push_back({g, static_cast<std::uint32_t>(j)});
          }
        }
      },
      kAlwaysParallel);
  std::vector<Event> events;
  events.reserve(n * (n - 1));
  for (std::vector<Event>& local : chunk_events) {
    events.insert(events.end(), local.begin(), local.end());
    local.clear();
    local.shrink_to_fit();
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.index < b.index; });
  return EventBuckets::FromSorted(events);
}

// All weighted pair events over the active rows, index-sorted: pair (i, j)
// raises i's ball by weight(j) (and vice versa) at the shared fine index, and
// each row with weight > 1 raises its own ball by weight - 1 at index 0 (its
// expanded duplicate copies sit at distance 0). Same chunking and
// chunk-ordered concatenation as BuildExactEvents, so the event sequence —
// and therefore the profile — is independent of the thread count. The
// weighted path always sweeps exact all-pairs events: rows are coreset-sized
// (max_profile_points caps them), while a t-NN pruned stream would need
// ~rows * (t-1) expanded entries, which at expanded t ~ 10^5 is exactly the
// memory blow-up the compressed representation exists to avoid.
std::vector<WeightedEvent> BuildWeightedExactEvents(
    const PointSet& view, std::span<const std::uint64_t> rank_weights,
    double fine_step, std::uint64_t max_fine, ThreadPool* pool) {
  const std::size_t n = view.size();
  std::vector<WeightedEvent> events;
  for (std::size_t i = 0; i < n; ++i) {
    DPC_CHECK_LE(rank_weights[i], std::numeric_limits<std::uint32_t>::max());
    if (rank_weights[i] > 1) {
      events.push_back(
          {0, static_cast<std::uint32_t>(i),
           static_cast<std::uint32_t>(rank_weights[i] - 1)});
    }
  }
  constexpr std::size_t kRowGrain = 32;
  const std::size_t num_chunks = NumChunks(n, kRowGrain);
  std::vector<std::vector<WeightedEvent>> chunk_events(num_chunks);
  ParallelForChunks(
      pool, 0, n, kRowGrain,
      [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
        std::vector<WeightedEvent>& local = chunk_events[chunk];
        std::size_t pairs = 0;
        for (std::size_t i = lo; i < hi; ++i) pairs += n - 1 - i;
        local.reserve(2 * pairs);
        for (std::size_t i = lo; i < hi; ++i) {
          const auto xi = view[i];
          for (std::size_t j = i + 1; j < n; ++j) {
            const std::uint64_t g =
                FineIndexOf(Distance(xi, view[j]), fine_step, max_fine);
            local.push_back({g, static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(rank_weights[j])});
            local.push_back({g, static_cast<std::uint32_t>(j),
                             static_cast<std::uint32_t>(rank_weights[i])});
          }
        }
      },
      kAlwaysParallel);
  for (std::vector<WeightedEvent>& local : chunk_events) {
    events.insert(events.end(), local.begin(), local.end());
    local.clear();
    local.shrink_to_fit();
  }
  std::sort(events.begin(), events.end(),
            [](const WeightedEvent& a, const WeightedEvent& b) {
              return a.index < b.index;
            });
  return events;
}

// Groups n rows of k nearest-neighbor distances (row r = center r) — the
// t-NN pruned event stream: each center emits exactly its t-1 nearest-
// neighbor distances (any farther pair is a no-op in the capped sweep — see
// the header). The grid computes squared distances with the same
// accumulation order as Distance(), so sqrt() reproduces the exact path's
// event indices bit-for-bit.
EventBuckets EventsFromKnnRows(std::span<const double> knn, std::size_t n,
                               std::size_t k, double fine_step,
                               std::uint64_t max_fine,
                               std::uint64_t fine_domain) {
  return EventBuckets::Group(n * k, fine_domain, [&](auto&& emit) {
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = knn.data() + i * k;
      for (std::size_t j = 0; j < k; ++j) {
        emit(FineIndexOf(row[j], fine_step, max_fine),
             static_cast<std::uint32_t>(i));
      }
    }
  });
}

// Validation shared by both Build entry points.
Status ValidateBuildArgs(std::size_t n, std::size_t t, std::size_t max_points) {
  if (n == 0) return Status::InvalidArgument("RadiusProfile: empty dataset");
  if (t < 1 || t > n) {
    return Status::InvalidArgument("RadiusProfile: t must satisfy 1 <= t <= n");
  }
  if (n > max_points) {
    return Status::ResourceExhausted(
        "RadiusProfile: n=" + std::to_string(n) + " exceeds max_points=" +
        std::to_string(max_points) +
        "; raise GoodRadiusOptions::max_profile_points or subsample the "
        "radius stage");
  }
  return Status::OK();
}

}  // namespace

std::string_view ProfileIndexName(ProfileIndex index) {
  switch (index) {
    case ProfileIndex::kAuto:
      return "auto";
    case ProfileIndex::kGrid:
      return "grid";
    case ProfileIndex::kExact:
      return "exact";
  }
  return "auto";
}

Result<ProfileIndex> ProfileIndexFromName(std::string_view name) {
  if (name == "auto") return ProfileIndex::kAuto;
  if (name == "grid") return ProfileIndex::kGrid;
  if (name == "exact") return ProfileIndex::kExact;
  return Status::InvalidArgument("ProfileIndex: unknown name '" +
                                 std::string(name) +
                                 "' (expected auto|grid|exact)");
}

ProfileIndex ResolveProfileIndex(ProfileIndex requested) {
  return requested == ProfileIndex::kExact ? ProfileIndex::kExact
                                           : ProfileIndex::kGrid;
}

Result<RadiusProfile> RadiusProfile::Build(const PointSet& s, std::size_t t,
                                           const GridDomain& domain,
                                           std::size_t max_points,
                                           ThreadPool* pool,
                                           ProfileIndex index,
                                           IndexGeometry) {
  const std::size_t n = s.size();
  DPC_RETURN_IF_ERROR(ValidateBuildArgs(n, t, max_points));
  if (s.dim() != domain.dim()) {
    return Status::InvalidArgument("RadiusProfile: domain dimension mismatch");
  }

  RadiusProfile profile;
  profile.solution_grid_ = domain.RadiusGridSize();
  const std::uint64_t fine_domain = 2 * (profile.solution_grid_ - 1) + 1;
  const double fine_step =
      domain.axis_length() / (4.0 * static_cast<double>(domain.levels()));
  const std::uint64_t max_fine = fine_domain - 1;

  EventBuckets events;
  if (ResolveProfileIndex(index) == ProfileIndex::kGrid) {
    const std::size_t k = t - 1;  // t = 1: every increment saturates.
    std::vector<double> knn(n * k);
    if (k > 0) {
      DPC_ASSIGN_OR_RETURN(SpatialGrid grid,
                           SpatialGrid::Build(s, domain, k));
      grid.BatchKnnDistances(k, knn, pool, /*sorted=*/false);
    }
    events = EventsFromKnnRows(knn, n, k, fine_step, max_fine, fine_domain);
  } else {
    events = BuildExactEvents(
        n, [&s](std::size_t i) { return s[i]; }, fine_step, max_fine, pool);
  }
  profile.fine_l_ = SweepEvents(events, n, t, fine_domain);
  return profile;
}

Result<RadiusProfile> RadiusProfile::Build(const IndexedDataset& index,
                                           std::size_t t,
                                           std::size_t max_points,
                                           ThreadPool* pool,
                                           ProfileIndex profile_index) {
  const std::size_t n = index.active_size();
  if (index.weighted()) {
    // Weighted t bound is against total mass, not rows: the profile models the
    // duplicate-expanded dataset, where t points may span fewer distinct rows.
    if (n == 0) return Status::InvalidArgument("RadiusProfile: empty dataset");
    if (t < 1 || t > index.active_mass()) {
      return Status::InvalidArgument(
          "RadiusProfile: t must satisfy 1 <= t <= active mass");
    }
    if (n > max_points) {
      return Status::ResourceExhausted(
          "RadiusProfile: n=" + std::to_string(n) + " exceeds max_points=" +
          std::to_string(max_points) +
          "; raise GoodRadiusOptions::max_profile_points or shrink the "
          "coreset");
    }
  } else {
    DPC_RETURN_IF_ERROR(ValidateBuildArgs(n, t, max_points));
  }
  const GridDomain& domain = index.domain();

  RadiusProfile profile;
  profile.solution_grid_ = domain.RadiusGridSize();
  const std::uint64_t fine_domain = 2 * (profile.solution_grid_ - 1) + 1;
  const double fine_step =
      domain.axis_length() / (4.0 * static_cast<double>(domain.levels()));
  const std::uint64_t max_fine = fine_domain - 1;

  if (index.weighted()) {
    // Weighted rows always take the exact all-pairs generator: the coreset
    // keeps rows well under max_profile_points, and a pruned t-NN stream
    // would have to expand to ~rows * (t - 1) entries at expanded t.
    const PointSet view = index.ActiveView();
    const std::span<const std::uint32_t> active_ids = index.ActiveIds();
    std::vector<std::uint64_t> rank_weights(n);
    for (std::size_t rank = 0; rank < n; ++rank) {
      rank_weights[rank] = index.weight(active_ids[rank]);
    }
    const std::vector<WeightedEvent> events = BuildWeightedExactEvents(
        view, rank_weights, fine_step, max_fine, pool);
    profile.fine_l_ = SweepWeightedEvents(events, rank_weights, t, fine_domain);
    return profile;
  }

  // Event centers are active *ranks* (positions in the ascending active-id
  // list), which is exactly the row numbering of ActiveView() — so both
  // generators emit the same events the subset-rebuild path would, and the
  // sweep below is untouched.
  EventBuckets events;
  if (ResolveProfileIndex(profile_index) == ProfileIndex::kGrid) {
    const std::size_t k = t - 1;
    std::vector<double> knn(n * k);
    if (k > 0) index.BatchKnn(k, knn, pool, /*sorted=*/false);
    events = EventsFromKnnRows(knn, n, k, fine_step, max_fine, fine_domain);
  } else {
    // Materialize the active view once: the O(n^2 d) pair sweep then streams
    // contiguous rows — a per-access rank indirection into the full dataset
    // costs ~10% in this hot loop, far more than one O(n d) copy.
    const PointSet view = index.ActiveView();
    events = BuildExactEvents(
        n, [&view](std::size_t i) { return view[i]; }, fine_step, max_fine,
        pool);
  }
  profile.fine_l_ = SweepEvents(events, n, t, fine_domain);
  return profile;
}

double RadiusProfile::LAtSolutionIndex(std::uint64_t g) const {
  DPC_CHECK_LT(g, solution_grid_);
  return fine_l_.ValueAt(2 * g);
}

double RadiusProfile::LAtHalfSolutionIndex(std::uint64_t g) const {
  DPC_CHECK_LT(g, solution_grid_);
  return fine_l_.ValueAt(g);
}

}  // namespace dpcluster
