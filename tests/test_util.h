// Shared helpers for the dpcluster test suite.

#ifndef DPCLUSTER_TESTS_TEST_UTIL_H_
#define DPCLUSTER_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dpcluster/common/status.h"
#include "dpcluster/core/radius_profile.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/point_set.h"
#include "dpcluster/random/rng.h"

#define ASSERT_OK(expr) ASSERT_TRUE((expr).ok()) << (expr).ToString()
#define EXPECT_OK(expr) EXPECT_TRUE((expr).ok()) << (expr).ToString()

#define ASSERT_OK_AND_ASSIGN(lhs, expr)            \
  ASSERT_OK_AND_ASSIGN_IMPL_(                      \
      DPC_STATUS_CONCAT_(_test_result, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, expr)        \
  auto tmp = (expr);                                      \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();      \
  lhs = std::move(tmp).value()

namespace dpcluster {
namespace testing_util {

/// A d-dimensional PointSet from an initializer-style flat buffer.
inline PointSet MakePointSet(std::size_t dim, std::vector<double> flat) {
  return PointSet(dim, std::move(flat));
}

/// n points iid uniform over [0, 1]^dim.
inline PointSet UniformCube(Rng& rng, std::size_t n, std::size_t dim) {
  PointSet s(dim);
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& x : p) x = rng.NextDouble();
    s.Add(p);
  }
  return s;
}

/// The ids 0..n-1: the query list that batches a k-NN query over every row.
inline std::vector<std::uint32_t> AllIds(std::size_t n) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint32_t>(i);
  return ids;
}

/// The exact k-NN rows the index serves: BatchKnnSupersetFor over every
/// active id (on the cached grid, built for k-NN queries if none exists yet),
/// each row cut to its k smallest values, ascending. Row r (stride k)
/// belongs to ActiveIds()[r], so it lines up with row r of ActiveView().
inline std::vector<double> SortedKnnRows(const IndexedDataset& index,
                                         std::size_t k, ThreadPool* pool) {
  SpatialGrid::KnnRows rows;
  index.EnsureGrid(k).BatchKnnSupersetFor(index.ActiveIds(), k, rows, pool);
  std::vector<double> out;
  out.reserve(index.active_size() * k);
  for (std::size_t r = 0; r + 1 < rows.offsets.size(); ++r) {
    const auto begin =
        rows.values.begin() + static_cast<std::ptrdiff_t>(rows.offsets[r]);
    const auto end =
        rows.values.begin() + static_cast<std::ptrdiff_t>(rows.offsets[r + 1]);
    const auto kth = begin + static_cast<std::ptrdiff_t>(k);
    std::partial_sort(begin, kth, end);
    out.insert(out.end(), begin, kth);
  }
  return out;
}

/// Two profiles are the same StepFunction: same breakpoints, same values.
inline void ExpectSameProfile(const RadiusProfile& a, const RadiusProfile& b,
                              const std::string& context) {
  ASSERT_EQ(a.fine_l().domain_size(), b.fine_l().domain_size()) << context;
  ASSERT_EQ(a.fine_l().num_pieces(), b.fine_l().num_pieces()) << context;
  for (std::size_t p = 0; p < a.fine_l().num_pieces(); ++p) {
    ASSERT_EQ(a.fine_l().starts()[p], b.fine_l().starts()[p])
        << context << " piece=" << p;
    ASSERT_EQ(a.fine_l().values()[p], b.fine_l().values()[p])
        << context << " piece=" << p;
  }
}

/// Sample mean of a scalar callback over `trials` evaluations.
template <typename F>
double SampleMean(std::size_t trials, F&& f) {
  double sum = 0.0;
  for (std::size_t i = 0; i < trials; ++i) sum += f();
  return sum / static_cast<double>(trials);
}

}  // namespace testing_util
}  // namespace dpcluster

#endif  // DPCLUSTER_TESTS_TEST_UTIL_H_
