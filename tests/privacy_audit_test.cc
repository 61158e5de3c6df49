// Monte-Carlo privacy audits: estimate the empirical privacy loss of the
// primitive mechanisms on worst-case neighboring inputs and check it stays
// within the configured budget. These are necessary-condition tests (an audit
// can only catch violations, not prove privacy), but they reliably flag scale
// bugs like using sensitivity/2 noise.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "dpcluster/dp/above_threshold.h"
#include "dpcluster/dp/stable_histogram.h"
#include "dpcluster/random/distributions.h"
#include "test_util.h"

namespace dpcluster {
namespace {

// Estimates max over output bins of |ln(P0/P1)| for two output samples.
double EmpiricalEpsilon(const std::vector<int>& h0, const std::vector<int>& h1,
                        int trials, int min_count) {
  double worst = 0.0;
  for (std::size_t b = 0; b < h0.size(); ++b) {
    if (h0[b] < min_count || h1[b] < min_count) continue;
    const double p0 = static_cast<double>(h0[b]) / trials;
    const double p1 = static_cast<double>(h1[b]) / trials;
    worst = std::max(worst, std::abs(std::log(p0 / p1)));
  }
  return worst;
}

// The Laplace mechanism (Theorem 2.3) every mechanism in the library draws
// directly: a sensitivity-1 value plus SampleLaplace(rng, 1 / eps).
TEST(PrivacyAuditTest, LaplaceNoiseStaysWithinBudget) {
  const double eps = 1.0;
  Rng rng(1);
  // Neighboring counts 10 and 11; bin outputs at resolution 0.5 around them.
  const int trials = 400000;
  const int bins = 80;
  std::vector<int> h0(bins, 0);
  std::vector<int> h1(bins, 0);
  const auto bin_of = [&](double v) {
    const int b = static_cast<int>(std::floor((v - 10.5) / 0.5)) + bins / 2;
    return std::clamp(b, 0, bins - 1);
  };
  for (int i = 0; i < trials; ++i) {
    ++h0[bin_of(10.0 + SampleLaplace(rng, 1.0 / eps))];
    ++h1[bin_of(11.0 + SampleLaplace(rng, 1.0 / eps))];
  }
  const double emp = EmpiricalEpsilon(h0, h1, trials, 500);
  // Interior bins of width 0.5 can differ by at most eps (plus sampling
  // noise); the clamped edge bins stay within eps as well.
  EXPECT_LE(emp, eps * 1.15);
  // And the mechanism is not trivially over-noised: the loss is visible.
  EXPECT_GE(emp, eps * 0.3);
}

TEST(PrivacyAuditTest, AboveThresholdFirstAnswerPattern) {
  // Audit the distribution of the halting round over a fixed query stream for
  // neighboring databases (each query differs by 1).
  const double eps = 1.0;
  const int rounds = 6;
  const int trials = 300000;
  Rng rng(2);
  std::vector<int> h0(rounds + 1, 0);
  std::vector<int> h1(rounds + 1, 0);
  for (int i = 0; i < trials; ++i) {
    for (int side = 0; side < 2; ++side) {
      auto at = AboveThreshold::Create(rng, eps, 5.0);
      ASSERT_TRUE(at.ok());
      int halt_round = rounds;
      for (int q = 0; q < rounds; ++q) {
        auto top = at->Process(rng, 4.0 + (side == 0 ? 0.0 : 1.0));
        ASSERT_TRUE(top.ok());
        if (*top) {
          halt_round = q;
          break;
        }
      }
      (side == 0 ? h0 : h1)[halt_round] += 1;
    }
  }
  const double emp = EmpiricalEpsilon(h0, h1, trials, 500);
  EXPECT_LE(emp, eps * 1.15);
}

TEST(PrivacyAuditTest, StableHistogramCellChoiceWithinBudget) {
  const PrivacyParams p{1.0, 1e-6};
  const int trials = 200000;
  Rng rng(3);
  // Neighboring histograms: one element moves between two heavy cells.
  using Counts = std::unordered_map<int, std::size_t, std::hash<int>>;
  const Counts c0{{0, 60}, {1, 50}, {2, 40}};
  const Counts c1{{0, 59}, {1, 51}, {2, 40}};
  std::vector<int> h0(4, 0);
  std::vector<int> h1(4, 0);
  for (int i = 0; i < trials; ++i) {
    auto a = ChooseHeavyCell(rng, c0, p);
    ++h0[a.ok() ? a->key : 3];
    auto b = ChooseHeavyCell(rng, c1, p);
    ++h1[b.ok() ? b->key : 3];
  }
  const double emp = EmpiricalEpsilon(h0, h1, trials, 300);
  EXPECT_LE(emp, p.epsilon * 1.2);
}

}  // namespace
}  // namespace dpcluster
