// Tests for the Solver façade: algorithm registry, request validation,
// budget sessions, end-to-end runs, and batched RunAll accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "dpcluster/api/algorithm.h"
#include "dpcluster/api/registry.h"
#include "dpcluster/api/solver.h"
#include "dpcluster/data/registry.h"
#include "test_util.h"

namespace dpcluster {
namespace {

Result<ScenarioInstance> SmallWorkload(std::uint64_t seed,
                                       std::size_t dim = 1) {
  Rng rng(seed);
  return GenerateScenario(rng, {.n = 1200, .dim = dim, .levels = 1024,
                                .cluster_radius = 0.015,
                                .cluster_fraction = (700 + 0.5) / 1200});
}

Request SmallRequest(const ScenarioInstance& w, const std::string& algorithm,
                     double eps = 8.0) {
  Request request;
  request.algorithm = algorithm;
  request.data = w.points;
  request.domain = w.domain;
  request.t = w.t;
  request.budget = {eps, 1e-8};
  request.beta = 0.1;
  return request;
}

// --- Registry -------------------------------------------------------------

TEST(RegistryTest, GlobalRegistryHoldsAtLeastSixAlgorithms) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  const std::vector<std::string> names = registry.Names();
  EXPECT_GE(names.size(), 6u);
  for (const char* expected :
       {"one_cluster", "k_cluster", "outlier_screen", "interior_point",
        "sample_aggregate", "exp_mech_baseline", "noisy_mean_baseline",
        "threshold_release_1d", "nonprivate"}) {
    EXPECT_TRUE(registry.Contains(expected)) << expected;
  }
  // Every entry has a self-consistent name and a description.
  for (const std::string& name : names) {
    ASSERT_OK_AND_ASSIGN(const Algorithm* algorithm, registry.Lookup(name));
    EXPECT_EQ(algorithm->name(), name);
    EXPECT_FALSE(algorithm->description().empty());
  }
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  const auto result = AlgorithmRegistry::Global().Lookup("no_such_algorithm");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // The message lists the registered names to help the caller.
  EXPECT_NE(result.status().message().find("one_cluster"), std::string::npos);
}

TEST(RegistryTest, DuplicateRegistrationRejected) {
  AlgorithmRegistry registry;
  ASSERT_OK(RegisterBuiltinAlgorithms(registry));
  const std::size_t size = registry.size();
  // Re-registering the builtins is a no-op, not an error or a growth.
  ASSERT_OK(RegisterBuiltinAlgorithms(registry));
  EXPECT_EQ(registry.size(), size);
}

// --- Request validation ---------------------------------------------------

TEST(RequestValidationTest, GenericFieldChecks) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, SmallWorkload(7));
  Request request = SmallRequest(w, "one_cluster");
  EXPECT_OK(request.Validate());

  Request bad = request;
  bad.beta = 0.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = request;
  bad.budget.epsilon = -1.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = request;
  bad.data = PointSet(2);
  EXPECT_FALSE(bad.Validate().ok());

  bad = request;
  bad.domain = GridDomain(64, 2);  // dim mismatch with 1D data
  EXPECT_FALSE(bad.Validate().ok());

  bad = request;
  bad.tuning.radius_budget_fraction = 1.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = request;
  bad.tuning.refine_fraction = 1.0;
  EXPECT_FALSE(bad.Validate().ok());

  // A non-finite coordinate (e.g. a "nan" CSV cell) never reaches the
  // spatial index.
  for (const double x : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    bad = request;
    bad.data.ReplaceRow(0, std::vector<double>(bad.data.dim(), x));
    EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument) << x;
  }
}

TEST(RequestValidationTest, AlgorithmSpecificChecksSurfaceThroughSolver) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, SmallWorkload(8));
  Solver solver;

  // one_cluster needs t.
  Request request = SmallRequest(w, "one_cluster");
  request.t = 0;
  EXPECT_FALSE(solver.Run(request).ok());

  // one_cluster needs a domain.
  request = SmallRequest(w, "one_cluster");
  request.domain.reset();
  EXPECT_FALSE(solver.Run(request).ok());

  // threshold_release_1d refuses multi-dimensional data.
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w2, SmallWorkload(9, 2));
  request = SmallRequest(w2, "threshold_release_1d");
  const auto response = solver.Run(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);

  // Unknown algorithm propagates NotFound.
  request = SmallRequest(w, "bogus");
  EXPECT_EQ(solver.Run(request).status().code(), StatusCode::kNotFound);
}

// --- Budget sessions ------------------------------------------------------

TEST(BudgetSessionTest, ChargesMirrorIntoSharedAccountant) {
  Accountant shared;
  BudgetSession session(&shared, "req0", {1.0, 1e-9});
  ASSERT_OK(session.Charge("phase_a", {0.4, 5e-10}));
  ASSERT_OK(session.Charge("phase_b", {0.6, 5e-10}));
  EXPECT_EQ(session.ledger().interactions(), 2u);
  EXPECT_EQ(shared.interactions(), 2u);
  EXPECT_EQ(shared.charges()[0].label, "req0/phase_a");
  EXPECT_NEAR(session.spent().epsilon, 1.0, 1e-12);
  EXPECT_NEAR(session.remaining().epsilon, 0.0, 1e-12);
}

TEST(BudgetSessionTest, OverdrawIsRejected) {
  Accountant shared;
  BudgetSession session(&shared, "req0", {1.0, 1e-9});
  ASSERT_OK(session.Charge("phase_a", {0.9, 0.0}));
  const Status overdraw = session.Charge("phase_b", {0.2, 0.0});
  ASSERT_FALSE(overdraw.ok());
  EXPECT_EQ(overdraw.code(), StatusCode::kResourceExhausted);
  // The rejected charge reached neither ledger.
  EXPECT_EQ(session.ledger().interactions(), 1u);
  EXPECT_EQ(shared.interactions(), 1u);
}

// --- End-to-end runs ------------------------------------------------------

TEST(SolverTest, OneClusterEndToEnd) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, SmallWorkload(31));
  Solver solver(SolverOptions{.seed = 31});
  ASSERT_OK_AND_ASSIGN(Response response,
                       solver.Run(SmallRequest(w, "one_cluster")));
  EXPECT_EQ(response.algorithm, "one_cluster");
  EXPECT_EQ(response.kind, ProblemKind::kOneCluster);
  ASSERT_EQ(response.ball.center.size(), w.points.dim());
  EXPECT_GT(response.ball.radius, 0.0);
  ASSERT_EQ(response.balls.size(), 1u);
  // The pipeline charges its two phases, summing to the request budget.
  EXPECT_EQ(response.ledger.interactions(), 2u);
  EXPECT_NEAR(response.charged.epsilon, 8.0, 1e-9);
  EXPECT_NEAR(response.charged.delta, 1e-8, 1e-18);
  // The solver scored the release on the raw data.
  ASSERT_TRUE(response.diagnostics.has_value());
  EXPECT_GT(response.diagnostics->captured, 0u);
  EXPECT_GE(response.wall_ms, 0.0);
  // The solver's accountant saw the same spend, scope-prefixed.
  EXPECT_NEAR(solver.TotalSpend().epsilon, 8.0, 1e-9);
  EXPECT_EQ(solver.accountant().charges()[0].label,
            "one_cluster#0/good_radius");
}

TEST(SolverTest, KClusterEndToEnd) {
  Rng rng(99);
  ASSERT_OK_AND_ASSIGN(
      const ScenarioInstance w,
      GenerateScenario(rng, {.scenario = "gaussian_mixture", .n = 1500,
                             .levels = 512, .k = 2, .sigma = 0.015,
                             .noise_fraction = 0.05}));
  Request request;
  request.algorithm = "k_cluster";
  request.data = w.points;
  request.domain = w.domain;
  request.k = 2;
  request.budget = {16.0, 1e-8};
  request.beta = 0.2;
  Solver solver(SolverOptions{.seed = 99});
  ASSERT_OK_AND_ASSIGN(Response response, solver.Run(request));
  EXPECT_EQ(response.kind, ProblemKind::kKCluster);
  EXPECT_GE(response.balls.size(), 1u);
  EXPECT_LE(response.balls.size(), 2u);
  for (const Ball& ball : response.balls) {
    EXPECT_EQ(ball.center.size(), 2u);
  }
  EXPECT_LT(response.uncovered, w.points.size());
  // Spend stays within the request budget under basic composition.
  EXPECT_LE(response.charged.epsilon, 16.0 + 1e-6);
  EXPECT_LE(response.charged.delta, 1e-8 + 1e-18);
  // Per-round scoped ledger entries (good_radius/good_center/refine).
  EXPECT_GE(response.ledger.interactions(), 3u);
  EXPECT_EQ(response.ledger.charges()[0].label, "round0/good_radius");
}

TEST(SolverTest, ScalarReleaseForInteriorPoint) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, SmallWorkload(55));
  Request request = SmallRequest(w, "interior_point");
  request.t = 0;  // not used by interior_point
  Solver solver(SolverOptions{.seed = 55});
  ASSERT_OK_AND_ASSIGN(Response response, solver.Run(request));
  EXPECT_EQ(response.kind, ProblemKind::kInteriorPoint);
  EXPECT_FALSE(std::isnan(response.scalar));
  EXPECT_GE(response.scalar, 0.0);
  EXPECT_LE(response.scalar, 1.0);
  EXPECT_NEAR(response.charged.epsilon, 8.0, 1e-9);
}

TEST(SolverTest, OneClusterRefineTightensRadiusWithinBudget) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, SmallWorkload(41));
  Request request = SmallRequest(w, "one_cluster");
  request.tuning.refine_one_cluster = true;
  request.tuning.refine_fraction = 0.25;
  Solver solver(SolverOptions{.seed = 41});
  ASSERT_OK_AND_ASSIGN(Response response, solver.Run(request));
  // Pipeline (75%) + refine (25%) still sum to the request epsilon.
  EXPECT_EQ(response.ledger.interactions(), 3u);
  EXPECT_NEAR(response.charged.epsilon, 8.0, 1e-9);
  EXPECT_NE(response.note.find("refined"), std::string::npos);
  // The refined radius is far below the worst-case guarantee (~the cube).
  EXPECT_LT(response.ball.radius, 0.5);
}

// Passes validation, then fails inside Run as an algorithm that had already
// queried the data would.
class FailsMidRunAlgorithm final : public Algorithm {
 public:
  std::string_view name() const override { return "fails_mid_run"; }
  ProblemKind kind() const override { return ProblemKind::kBaseline; }
  std::string_view description() const override {
    return "test-only: fails after validation";
  }
  Status ValidateRequest(const Request&) const override { return Status::OK(); }
  Result<Response> Run(Rng&, const Request&, BudgetSession&) const override {
    return Status::ResourceExhausted("fails_mid_run: out of resources");
  }
};

TEST(SolverTest, MidRunFailureIsConservativelyAccounted) {
  // The request passed validation and failed inside Run. The internal layer
  // reports no partial ledger, so the solver books the whole request budget.
  AlgorithmRegistry registry;
  ASSERT_OK(registry.Register(std::make_unique<FailsMidRunAlgorithm>()));
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, SmallWorkload(42, 2));
  Request request = SmallRequest(w, "fails_mid_run", 2.0);
  Solver solver(SolverOptions{.registry = &registry});
  const auto response = solver.Run(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NEAR(solver.TotalSpend().epsilon, 2.0, 1e-9);
  ASSERT_EQ(solver.accountant().charges().size(), 1u);
  EXPECT_NE(solver.accountant().charges()[0].label.find("failed:"),
            std::string::npos);
}

TEST(SolverTest, ShapeOnlyRefusalsChargeNothing) {
  // exp_mech_baseline over more grid centers than max_grid_centers, and
  // interior_point on fewer than 4 points, are refused by validation before
  // any budget is spent.
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, SmallWorkload(42, 2));
  Request wide = SmallRequest(w, "exp_mech_baseline", 2.0);
  wide.tuning.max_grid_centers = 4;
  Solver solver;
  const auto refused = solver.Run(wide);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  Request few;
  few.algorithm = "interior_point";
  few.domain = GridDomain(1u << 10, 1);
  few.data = testing_util::MakePointSet(1, {0.25, 0.5, 0.75});
  few.t = 2;
  few.budget = {2.0, 1e-6};
  const auto too_few = solver.Run(few);
  ASSERT_FALSE(too_few.ok());
  EXPECT_EQ(too_few.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(solver.TotalSpend().epsilon, 0.0);
  EXPECT_TRUE(solver.accountant().charges().empty());
}

TEST(SolverTest, SampleAggregateEndToEnd) {
  // Concentrated data: block means cluster tightly, so the aggregator finds
  // them (SA needs many blocks — the adapter's default block size targets
  // k ~ 400 of them).
  Rng rng(11);
  PointSet s(2);
  for (std::size_t i = 0; i < 20000; ++i) {
    s.Add(std::vector<double>{0.4 + 0.02 * (rng.NextDouble() - 0.5),
                              0.6 + 0.02 * (rng.NextDouble() - 0.5)});
  }
  const GridDomain domain(1u << 12, 2);
  Request request;
  request.algorithm = "sample_aggregate";
  request.data = std::move(s);
  request.domain = domain;
  request.budget = {8.0, 1e-8};
  Solver solver(SolverOptions{.seed = 11});
  ASSERT_OK_AND_ASSIGN(Response response, solver.Run(request));
  EXPECT_EQ(response.kind, ProblemKind::kSampleAggregate);
  ASSERT_EQ(response.ball.center.size(), 2u);
  EXPECT_NEAR(response.ball.center[0], 0.4, 0.05);
  EXPECT_NEAR(response.ball.center[1], 0.6, 0.05);
  EXPECT_NEAR(response.charged.epsilon, 8.0, 1e-9);
  // The adapter surfaces the Lemma 6.4 amplified budget in the note.
  EXPECT_NE(response.note.find("amplified"), std::string::npos);
}

// --- RunAll ---------------------------------------------------------------

TEST(SolverTest, RunAllChargesOneAccountantWithPerRequestScopes) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, SmallWorkload(77));
  std::vector<Request> batch;
  batch.push_back(SmallRequest(w, "one_cluster", 4.0));
  batch.push_back(SmallRequest(w, "nonprivate"));
  batch.push_back(SmallRequest(w, "threshold_release_1d", 2.0));
  Request labeled = SmallRequest(w, "one_cluster", 1.0);
  labeled.label = "my_request";
  batch.push_back(labeled);

  Solver solver(SolverOptions{.seed = 77});
  const auto responses = solver.RunAll(batch);
  ASSERT_EQ(responses.size(), batch.size());

  PrivacyParams sum{0.0, 0.0};
  for (const auto& response : responses) {
    ASSERT_OK(response.status());
    sum.epsilon += response->charged.epsilon;
    sum.delta += response->charged.delta;
  }
  // The shared accountant's total equals the sum of per-request charges.
  const PrivacyParams total = solver.TotalSpend();
  EXPECT_NEAR(total.epsilon, sum.epsilon, 1e-9);
  EXPECT_NEAR(total.delta, sum.delta, 1e-18);
  // 4 + 0 + 2 + 1 epsilon across the batch.
  EXPECT_NEAR(total.epsilon, 7.0, 1e-9);

  // Scopes: auto-numbered by default, caller label when provided.
  bool saw_labeled = false;
  for (const auto& charge : solver.accountant().charges()) {
    if (charge.label.rfind("my_request/", 0) == 0) saw_labeled = true;
  }
  EXPECT_TRUE(saw_labeled);
}

TEST(SolverTest, RunAllReportsPerRequestFailures) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, SmallWorkload(78));
  std::vector<Request> batch;
  batch.push_back(SmallRequest(w, "nonprivate"));
  batch.push_back(SmallRequest(w, "does_not_exist"));
  Solver solver;
  const auto responses = solver.RunAll(batch);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].ok());
  ASSERT_FALSE(responses[1].ok());
  EXPECT_EQ(responses[1].status().code(), StatusCode::kNotFound);
  // The failing request charged nothing.
  EXPECT_NEAR(solver.TotalSpend().epsilon, 0.0, 1e-12);
}

TEST(SolverTest, OutlierScreenNoteReleasesNoCount) {
  // The note used to carry the exact number of rows inside the ball.
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, SmallWorkload(96, 2));
  Solver solver;
  ASSERT_OK_AND_ASSIGN(const Response response,
                       solver.Run(SmallRequest(w, "outlier_screen")));
  EXPECT_FALSE(response.note.empty());
  EXPECT_EQ(response.note.find_first_of("0123456789"), std::string::npos)
      << response.note;
}

// --- A lent geometry index -----------------------------------------------

TEST(SolverTest, MismatchedSharedIndexIsRejectedByValidation) {
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance w, SmallWorkload(92, 2));
  ASSERT_OK_AND_ASSIGN(const ScenarioInstance other, SmallWorkload(93, 2));
  Request request = SmallRequest(w, "one_cluster");
  Request wrong = SmallRequest(other, "one_cluster");
  ASSERT_OK_AND_ASSIGN(request.shared_index, BuildSharedIndex(wrong));
  Solver solver;
  const auto response = solver.Run(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dpcluster
