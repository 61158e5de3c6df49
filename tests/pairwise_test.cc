// Tests for the brute-force pairwise oracle: its exact ball counts, its k
// nearest distances, and the capped averaged count L(r, S) — including the
// paper's central sensitivity-2 property (Lemma 4.5's core).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "dpcluster/geo/ball.h"
#include "dpcluster/geo/dataset.h"
#include "reference/pairwise_reference.h"
#include "test_util.h"

namespace dpcluster {
namespace {

using reference::PairwiseRows;
using testing_util::MakePointSet;

// Direct O(n^2) evaluation of L(r, S) from the definition.
double BruteForceL(const PointSet& s, double r, std::size_t t) {
  std::vector<double> counts(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    counts[i] = static_cast<double>(
        std::min<std::size_t>(CountWithin(s, s[i], r), t));
  }
  std::sort(counts.rbegin(), counts.rend());
  double sum = 0.0;
  for (std::size_t i = 0; i < t; ++i) sum += counts[i];
  return sum / static_cast<double>(t);
}

TEST(PairwiseReferenceTest, CountWithinMatchesBruteForce) {
  Rng rng(2);
  const PointSet s = testing_util::UniformCube(rng, 50, 3);
  const PairwiseRows pd(s);
  for (double r : {0.0, 0.1, 0.3, 0.7, 2.0}) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(pd.CountWithin(i, r), CountWithin(s, s[i], r))
          << "i=" << i << " r=" << r;
    }
  }
}

TEST(PairwiseReferenceTest, CountIncludesSelfAndDuplicates) {
  const PointSet s = MakePointSet(1, {0.5, 0.5, 0.5, 0.9});
  const PairwiseRows pd(s);
  EXPECT_EQ(pd.CountWithin(0, 0.0), 3u);
  EXPECT_EQ(pd.CountWithin(3, 0.0), 1u);
  // Nearest drops the center itself but keeps its duplicates at 0.
  EXPECT_EQ(pd.Nearest(0, 3)[0], 0.0);
  EXPECT_EQ(pd.Nearest(0, 3)[1], 0.0);
  EXPECT_EQ(pd.Nearest(0, 3)[2], Distance(s[0], s[3]));
  EXPECT_EQ(pd.Nearest(3, 1)[0], Distance(s[3], s[0]));
}

TEST(PairwiseReferenceTest, CappedTopAverageMatchesDefinition) {
  Rng rng(3);
  const PointSet s = testing_util::UniformCube(rng, 60, 2);
  const PairwiseRows pd(s);
  for (std::size_t t : {1u, 5u, 20u, 60u}) {
    for (double r : {0.0, 0.05, 0.2, 0.5, 1.5}) {
      EXPECT_NEAR(pd.CappedTopAverage(r, t), BruteForceL(s, r, t), 1e-9)
          << "t=" << t << " r=" << r;
    }
  }
}

TEST(PairwiseReferenceTest, LIsMonotoneInRadius) {
  Rng rng(4);
  const PointSet s = testing_util::UniformCube(rng, 40, 2);
  const PairwiseRows pd(s);
  const std::size_t t = 10;
  double prev = -1.0;
  for (double r = 0.0; r <= 1.5; r += 0.05) {
    const double l = pd.CappedTopAverage(r, t);
    EXPECT_GE(l, prev);
    prev = l;
  }
}

TEST(PairwiseReferenceTest, LBoundedByTAndReachesT) {
  Rng rng(5);
  const PointSet s = testing_util::UniformCube(rng, 30, 2);
  const PairwiseRows pd(s);
  const std::size_t t = 12;
  EXPECT_LE(pd.CappedTopAverage(0.01, t), static_cast<double>(t));
  // At the cube diameter every ball holds all points.
  EXPECT_DOUBLE_EQ(pd.CappedTopAverage(2.0, t), static_cast<double>(t));
}

// The property Lemma 4.5 rests on: |L(r, S) - L(r, S')| <= 2 for neighboring
// datasets (one row replaced).
TEST(PairwiseReferenceTest, LSensitivityAtMostTwoUnderReplacement) {
  Rng rng(6);
  for (int trial = 0; trial < 15; ++trial) {
    PointSet s = testing_util::UniformCube(rng, 30, 2);
    const std::size_t t = 1 + rng.NextUint64(29);
    const PairwiseRows pd0(s);

    PointSet s2 = s;
    const std::size_t victim = rng.NextUint64(s.size());
    std::vector<double> replacement = {rng.NextDouble(), rng.NextDouble()};
    s2.ReplaceRow(victim, replacement);
    const PairwiseRows pd1(s2);

    for (double r : {0.0, 0.1, 0.25, 0.6, 1.2}) {
      const double l0 = pd0.CappedTopAverage(r, t);
      const double l1 = pd1.CappedTopAverage(r, t);
      EXPECT_LE(std::abs(l0 - l1), 2.0 + 1e-9)
          << "trial=" << trial << " r=" << r << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace dpcluster
