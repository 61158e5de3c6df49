// Weighted-dataset exactness: every consumer of the weights answers in
// *expanded* terms — a weighted IndexedDataset is semantically the dataset
// in which row i appears weight(i) times. The radius profile's weighted
// sweep, the ball mass RefineRadius counts and GoodRadius are each pinned
// BIT-IDENTICAL to the unweighted computation on the duplicate-expanded
// PointSet, across all 8 scenario families and thread counts {1, 2, 8}.
// This is the contract that lets the coreset layer stand a 10^6-point
// dataset behind a few-thousand-row summary without changing any consumer
// (see coreset/coreset.h and geo/dataset.h).

#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "dpcluster/core/good_radius.h"
#include "dpcluster/core/radius_profile.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/data/scenario.h"
#include "dpcluster/geo/ball.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/parallel/thread_pool.h"
#include "test_util.h"

namespace dpcluster {
namespace {

struct WeightedCase {
  ScenarioInstance instance;
  std::vector<std::uint64_t> weights;  // synthesized, w_i = 1 + (i mod 5)
  PointSet expanded;                   // row i repeated weights[i] times
  std::uint64_t mass = 0;
};

// Generates a small instance of `family` and synthesizes deterministic
// multiplicities plus the duplicate-expanded reference dataset.
WeightedCase MakeCase(const std::string& family) {
  ScenarioSpec spec;
  spec.scenario = family;
  spec.n = 96;
  spec.dim = 2;
  spec.levels = 1u << 10;
  Rng rng(977);
  auto instance = GenerateScenario(rng, spec);
  EXPECT_TRUE(instance.ok()) << family << ": " << instance.status().ToString();

  WeightedCase c;
  c.instance = std::move(*instance);
  const PointSet& s = c.instance.points;
  c.expanded = PointSet(s.dim());
  c.weights.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::uint64_t w = 1 + (i % 5);
    c.weights.push_back(w);
    for (std::uint64_t copy = 0; copy < w; ++copy) c.expanded.Add(s[i]);
    c.mass += w;
  }
  return c;
}

const char* kFamilies[] = {
    "planted_cluster", "gaussian_mixture", "outlier_contaminated",
    "heavy_tailed",    "axis_degenerate",  "grid_snapped",
    "annulus",         "near_tie"};
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

class WeightedGeometryTest : public ::testing::TestWithParam<const char*> {};

// The footnote-2 SparseVector engine over a weighted index releases what the
// same call (same seed) releases on the duplicate-expanded PointSet: it reads
// the weighted profile RadiusProfileMatchesExpanded pins, so every noisy
// comparison sees the same L value.
TEST_P(WeightedGeometryTest, SparseVectorGoodRadiusMatchesExpanded) {
  const WeightedCase c = MakeCase(GetParam());
  ASSERT_OK_AND_ASSIGN(
      IndexedDataset weighted,
      IndexedDataset::Create(c.instance.points, c.instance.domain, c.weights));
  for (const std::size_t t : {static_cast<std::size_t>(c.mass) / 8,
                              static_cast<std::size_t>(c.mass) / 2}) {
    for (const std::size_t threads : kThreadCounts) {
      GoodRadiusOptions options;
      options.engine = GoodRadiusOptions::Engine::kSparseVector;
      options.params = {8.0, 1e-9};
      options.num_threads = threads;
      Rng wrng(700 + t);
      ASSERT_OK_AND_ASSIGN(GoodRadiusResult wres,
                           GoodRadius(wrng, weighted, t, options));
      Rng erng(700 + t);
      ASSERT_OK_AND_ASSIGN(
          GoodRadiusResult eres,
          GoodRadius(erng, c.expanded, t, c.instance.domain, options));
      EXPECT_EQ(wres.grid_index, eres.grid_index)
          << "t " << t << " threads " << threads;
      EXPECT_EQ(wres.radius, eres.radius);
      EXPECT_EQ(wres.gamma, eres.gamma);
      EXPECT_EQ(wres.zero_radius_shortcut, eres.zero_radius_shortcut);
      EXPECT_EQ(wrng(), erng());  // Same number of draws consumed.
    }
  }
}

// RadiusProfile: the weighted sweep's step function equals the exact profile
// of the expanded dataset — same breakpoints, same values.
TEST_P(WeightedGeometryTest, RadiusProfileMatchesExpanded) {
  const WeightedCase c = MakeCase(GetParam());
  ASSERT_OK_AND_ASSIGN(
      IndexedDataset weighted,
      IndexedDataset::Create(c.instance.points, c.instance.domain, c.weights));
  const std::size_t t = static_cast<std::size_t>(c.mass) / 8;
  for (const std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    ASSERT_OK_AND_ASSIGN(
        RadiusProfile wprofile,
        RadiusProfile::Build(weighted, t, c.instance.points.size(), &pool));
    ASSERT_OK_AND_ASSIGN(
        RadiusProfile eprofile,
        RadiusProfile::Build(c.expanded, t, c.instance.domain,
                             c.expanded.size(), &pool));
    ASSERT_EQ(wprofile.solution_grid_size(), eprofile.solution_grid_size());
    const StepFunction& wf = wprofile.fine_l();
    const StepFunction& ef = eprofile.fine_l();
    ASSERT_EQ(wf.domain_size(), ef.domain_size()) << "threads " << threads;
    ASSERT_EQ(wf.num_pieces(), ef.num_pieces()) << "threads " << threads;
    for (std::size_t p = 0; p < wf.num_pieces(); ++p) {
      EXPECT_EQ(wf.starts()[p], ef.starts()[p]) << "piece " << p;
      EXPECT_EQ(wf.values()[p], ef.values()[p]) << "piece " << p;
    }
  }
}

// MassWithin: the ball-mass primitive the weighted RefineRadius path counts
// with equals CountWithin on the expanded dataset for any center and radius.
TEST_P(WeightedGeometryTest, MassWithinMatchesExpanded) {
  const WeightedCase c = MakeCase(GetParam());
  ASSERT_OK_AND_ASSIGN(
      IndexedDataset weighted,
      IndexedDataset::Create(c.instance.points, c.instance.domain, c.weights));
  const std::vector<double> centers[] = {
      c.instance.primary().center,
      std::vector<double>(c.instance.points.dim(), 0.0),
      std::vector<double>(c.instance.points.dim(), 0.5)};
  for (const auto& center : centers) {
    for (const double r : {0.0, 0.05, 0.25, 1.0, 3.0}) {
      EXPECT_EQ(MassWithin(weighted.points(), weighted.ActiveIds(),
                           weighted.weights(), center, r),
                CountWithin(c.expanded, center, r))
          << "r " << r;
    }
  }
}

// Deletion removes mass: removing a weighted row is removing all its copies.
TEST_P(WeightedGeometryTest, RemovalDropsMass) {
  const WeightedCase c = MakeCase(GetParam());
  ASSERT_OK_AND_ASSIGN(
      IndexedDataset weighted,
      IndexedDataset::Create(c.instance.points, c.instance.domain, c.weights));
  const Ball ball{c.instance.primary().center, c.instance.primary().radius};
  std::uint64_t removed_mass = 0;
  for (std::size_t i = 0; i < c.instance.points.size(); ++i) {
    if (ball.Contains(c.instance.points[i])) removed_mass += c.weights[i];
  }
  weighted.RemoveWithin(ball);
  EXPECT_EQ(weighted.active_mass(), c.mass - removed_mass);
  weighted.RestoreAll();
  EXPECT_EQ(weighted.active_mass(), c.mass);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, WeightedGeometryTest,
                         ::testing::ValuesIn(kFamilies));

// The grid_snapped emission: WeightedDistinctIndex collapses the duplicate-
// heavy instance losslessly, and a weighted consumer on the collapsed index
// answers bit-identically to the expanded (raw) instance.
TEST(WeightedDistinct, GridSnappedCollapsesLosslessly) {
  ScenarioSpec spec;
  spec.scenario = "grid_snapped";
  spec.n = 512;
  spec.dim = 2;
  spec.levels = 1u << 10;
  spec.snap_levels = 4;  // few occupied cells: heavy duplication
  Rng rng(1231);
  ASSERT_OK_AND_ASSIGN(ScenarioInstance instance,
                       GenerateScenario(rng, spec));
  ASSERT_OK_AND_ASSIGN(IndexedDataset distinct,
                       instance.WeightedDistinctIndex());
  EXPECT_LT(distinct.size(), instance.points.size());
  EXPECT_EQ(distinct.total_mass(), instance.points.size());

  // Lossless: the weighted profile over the distinct rows is the raw profile.
  const std::size_t t = instance.points.size() / 8;
  ASSERT_OK_AND_ASSIGN(
      RadiusProfile wprofile,
      RadiusProfile::Build(distinct, t, distinct.size()));
  ASSERT_OK_AND_ASSIGN(
      RadiusProfile eprofile,
      RadiusProfile::Build(instance.points, t, instance.domain,
                           instance.points.size()));
  const StepFunction& wf = wprofile.fine_l();
  const StepFunction& ef = eprofile.fine_l();
  ASSERT_EQ(wf.num_pieces(), ef.num_pieces());
  for (std::size_t p = 0; p < wf.num_pieces(); ++p) {
    EXPECT_EQ(wf.starts()[p], ef.starts()[p]) << "piece " << p;
    EXPECT_EQ(wf.values()[p], ef.values()[p]) << "piece " << p;
  }
}

}  // namespace
}  // namespace dpcluster
