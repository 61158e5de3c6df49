// Reference oracle over every pair distance of a small dataset, one ascending
// row of exact doubles per center. It answers the ball counts B_r(x_i, S),
// the capped average
//   L(r, S) = (1/t) max_{distinct i_1..i_t} sum_j min(B_r(x_{i_j}), t)
// of Algorithm 1, and the k nearest distances the geometry layer's queries
// must reproduce bit for bit. A pair counts as inside a ball iff
// Distance(x_i, x_j) <= r — the predicate every ball count in the library
// uses — so a pair that misses r by one ulp stays outside. O(n^2 d) time and
// n^2 doubles, for small test inputs only.

#ifndef DPCLUSTER_TESTS_REFERENCE_PAIRWISE_REFERENCE_H_
#define DPCLUSTER_TESTS_REFERENCE_PAIRWISE_REFERENCE_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "dpcluster/geo/point_set.h"
#include "dpcluster/la/vector_ops.h"

namespace dpcluster {
namespace reference {

/// Sorted per-center distance rows of a dataset, built by brute force.
class PairwiseRows {
 public:
  explicit PairwiseRows(const PointSet& s) : n_(s.size()), rows_(n_ * n_) {
    for (std::size_t i = 0; i < n_; ++i) {
      double* row = &rows_[i * n_];
      for (std::size_t j = 0; j < n_; ++j) row[j] = Distance(s[i], s[j]);
      std::sort(row, row + n_);
    }
  }

  std::size_t size() const { return n_; }

  /// Distances from point i to all n points (itself included), ascending.
  std::span<const double> SortedRow(std::size_t i) const {
    return {&rows_[i * n_], n_};
  }

  /// The k smallest distances from point i to the other points, ascending
  /// (1 <= k <= n - 1). Self is excluded by index, so a duplicate of x_i
  /// counts at distance 0: dropping the row's first 0.0 drops x_i itself,
  /// whichever equal copy it is.
  std::span<const double> Nearest(std::size_t i, std::size_t k) const {
    return SortedRow(i).subspan(1, k);
  }

  /// Nearest(i, k) for every i, concatenated (row stride k).
  std::vector<double> NearestRows(std::size_t k) const {
    std::vector<double> out;
    out.reserve(n_ * k);
    for (std::size_t i = 0; i < n_; ++i) {
      const std::span<const double> row = Nearest(i, k);
      out.insert(out.end(), row.begin(), row.end());
    }
    return out;
  }

  /// B_r(x_i, S): points within distance r of x_i, itself included.
  std::size_t CountWithin(std::size_t i, double r) const {
    const std::span<const double> row = SortedRow(i);
    return static_cast<std::size_t>(
        std::upper_bound(row.begin(), row.end(), r) - row.begin());
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
  std::vector<double> rows_;  // n_ x n_, each row ascending.
};

}  // namespace reference
}  // namespace dpcluster

#endif  // DPCLUSTER_TESTS_REFERENCE_PAIRWISE_REFERENCE_H_
