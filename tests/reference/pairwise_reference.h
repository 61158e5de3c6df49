// Reference oracle for the ball counts B_r(x_i, S) and the capped average
//   L(r, S) = (1/t) max_{distinct i_1..i_t} sum_j min(B_r(x_{i_j}), t)
// of Algorithm 1: every pair distance, one sorted row per center. O(n^2 d)
// time and n^2 floats, for small test inputs only. Stored distances are
// narrowed to float with a one-ulp inclusive rounding (BumpDistanceUp), so a
// pair farther than r by less than ~one float ulp counts as inside; the
// exact L(r, S) is core/RadiusProfile's, and the inputs compared against it
// here stay clear of such ties.

#ifndef DPCLUSTER_TESTS_REFERENCE_PAIRWISE_REFERENCE_H_
#define DPCLUSTER_TESTS_REFERENCE_PAIRWISE_REFERENCE_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "dpcluster/geo/point_set.h"
#include "dpcluster/la/vector_ops.h"

namespace dpcluster {

/// nextafter(f, +inf) for non-negative finite floats, without the libm call:
/// incrementing the bit pattern of a non-negative float yields the next
/// representable value (0.0f maps to the smallest subnormal, as nextafter
/// does). The inclusive one-ulp rounding PairwiseRows gives every stored
/// distance before a `<= bound` count comparison.
inline float BumpDistanceUp(float f) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(f) + 1u);
}

/// Branchless upper_bound over an ascending row: the number of elements
/// <= bound. Each halving step is a conditional move instead of a compare
/// branch (bench_primitives times it against std::upper_bound).
inline std::size_t BranchlessUpperBound(std::span<const float> sorted,
                                        float bound) {
  if (sorted.empty()) return 0;
  const float* base = sorted.data();
  std::size_t len = sorted.size();
  while (len > 1) {
    const std::size_t half = len / 2;
    base += (base[half - 1] <= bound) ? half : 0;
    len -= half;
  }
  return static_cast<std::size_t>(base - sorted.data()) +
         (base[0] <= bound ? 1 : 0);
}

namespace reference {

/// Sorted per-center distance rows of a dataset, built by brute force.
class PairwiseRows {
 public:
  explicit PairwiseRows(const PointSet& s) : n_(s.size()), rows_(n_ * n_) {
    for (std::size_t i = 0; i < n_; ++i) {
      float* row = &rows_[i * n_];
      for (std::size_t j = 0; j < n_; ++j) {
        row[j] = i == j ? 0.0f
                        : BumpDistanceUp(
                              static_cast<float>(Distance(s[i], s[j])));
      }
      std::sort(row, row + n_);
    }
  }

  std::size_t size() const { return n_; }

  /// Distances from point i to all n points (itself included), ascending.
  std::span<const float> SortedRow(std::size_t i) const {
    return {&rows_[i * n_], n_};
  }

  /// B_r(x_i, S): points within distance r of x_i, itself included.
  std::size_t CountWithin(std::size_t i, double r) const {
    if (r < 0.0) return 0;
    const float bound = std::nextafter(static_cast<float>(r),
                                       std::numeric_limits<float>::infinity());
    const std::span<const float> row = SortedRow(i);
    return static_cast<std::size_t>(
        std::upper_bound(row.begin(), row.end(), bound) - row.begin());
  }

  /// L(r, S) with counts capped at `cap` (1 <= cap <= n): the average of the
  /// `cap` largest values of min(B_r(x_i), cap).
  double CappedTopAverage(double r, std::size_t cap) const {
    std::vector<std::size_t> counts(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      counts[i] = std::min(CountWithin(i, r), cap);
    }
    std::sort(counts.begin(), counts.end(), std::greater<>());
    double sum = 0.0;
    for (std::size_t i = 0; i < cap; ++i) {
      sum += static_cast<double>(counts[i]);
    }
    return sum / static_cast<double>(cap);
  }

 private:
  std::size_t n_;
  std::vector<float> rows_;  // n_ x n_, each row ascending.
};

}  // namespace reference
}  // namespace dpcluster

#endif  // DPCLUSTER_TESTS_REFERENCE_PAIRWISE_REFERENCE_H_
