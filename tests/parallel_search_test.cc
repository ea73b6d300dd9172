// Parallel proof search: differential equivalence across worker counts,
// the Theorem 9 optimality oracle, lifecycle/budget invariants, and the
// knobs' documented semantics.
//
// The load-bearing test is the randomized differential suite. For seeded
// scenarios, 1, 2 and 4 workers, all run to exhaustion, must report the
// same optimal plan cost (plan identity may differ — ties and exploration
// order are not canonical under work stealing). Worker counts share all of
// the search code, so the suite also checks the 1-worker optimum against an
// independent oracle: Theorem 9 says pruning by cost and dominance under a
// simple cost function keeps the optimum, so it must equal the minimum over
// the unpruned proof space. The same scenarios also check, under each cost
// function, that pricing a candidate before building its child makes the
// same decisions as building it first. LCP_PARALLEL_STRESS_ITERS scales the
// seed count (CI stress/TSan jobs).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/base/budget.h"
#include "lcp/base/clock.h"
#include "lcp/plan/cardinality_cost.h"
#include "lcp/plan/cost.h"
#include "lcp/planner/proof_search.h"
#include "lcp/workload/scenarios.h"

namespace lcp {
namespace {

int StressIters(int default_iters) {
  if (const char* env = std::getenv("LCP_PARALLEL_STRESS_ITERS")) {
    return std::max(1, std::atoi(env));
  }
  return default_iters;
}

/// The three cost functions of plan/: the paper's simple one, per-relation
/// weights, and the cardinality-propagating model.
enum class CostModel { kSimple, kWeighted, kCardinality };

std::unique_ptr<CostFunction> MakeCost(CostModel model, const Schema& schema) {
  switch (model) {
    case CostModel::kSimple:
      return std::make_unique<SimpleCostFunction>(&schema);
    case CostModel::kWeighted: {
      std::unordered_map<RelationId, double> calls;
      for (RelationId r = 0; r < schema.num_relations(); ++r) {
        calls[r] = 1.0 + r % 3;
      }
      return std::make_unique<WeightedAccessCostFunction>(&schema,
                                                          std::move(calls));
    }
    case CostModel::kCardinality: {
      CardinalityEstimates estimates;
      for (RelationId r = 0; r < schema.num_relations(); ++r) {
        estimates.cardinality[r] = 10.0 * (1 + r % 4);
      }
      return std::make_unique<CardinalityCostFunction>(&schema,
                                                       std::move(estimates));
    }
  }
  return nullptr;
}

Result<SearchOutcome> RunScenario(const Scenario& scenario,
                                  const SearchOptions& options,
                                  CostModel model = CostModel::kSimple) {
  auto accessible =
      AccessibleSchema::Build(*scenario.schema, AccessibleVariant::kStandard);
  if (!accessible.ok()) return accessible.status();
  std::unique_ptr<CostFunction> cost = MakeCost(model, accessible->base());
  ProofSearch search(&*accessible, cost.get());
  return search.Run(scenario.query, options);
}

/// Runs one scenario with 1, 2 and 4 workers; checks that all three
/// exhaust the space and agree on the optimal cost (or all find no plan).
/// Fills `single_out` (if non-null) with the 1-worker outcome.
void ExpectWorkerCountsAgree(const Scenario& scenario, SearchOptions options,
                             SearchOutcome* single_out = nullptr) {
  options.parallelism = 1;
  auto single = RunScenario(scenario, options);
  ASSERT_TRUE(single.ok()) << single.status();
  EXPECT_TRUE(single->exhaustion.ok()) << single->exhaustion;
  for (int workers : {2, 4}) {
    options.parallelism = workers;
    auto parallel = RunScenario(scenario, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_TRUE(parallel->exhaustion.ok()) << parallel->exhaustion;
    ASSERT_EQ(single->best.has_value(), parallel->best.has_value())
        << scenario.name << " with " << workers << " workers";
    if (single->best.has_value()) {
      EXPECT_DOUBLE_EQ(single->best->cost, parallel->best->cost)
          << scenario.name << " with " << workers << " workers";
    }
    // Stats must be coherent: every worker's counters merged, no charge
    // lost. Expanding at least as many nodes as the plan has accesses is
    // the weakest sanity floor; the real check is that the counters are
    // consistent with each other.
    EXPECT_GE(parallel->stats.nodes_expanded, 0);
    EXPECT_GE(parallel->stats.nodes_created, 1);
    if (parallel->best.has_value()) {
      EXPECT_GE(parallel->stats.successes, 1);
    }
  }
  if (single_out != nullptr) *single_out = std::move(*single);
}

/// Theorem 9 oracle (SimpleCostFunction is monotone): `pruned`, the outcome
/// of a search with `options`, has the minimum cost over the unpruned proof
/// space within the same access budget.
void ExpectPruningKeepsOptimum(const Scenario& scenario, SearchOptions options,
                               const SearchOutcome& pruned) {
  options.parallelism = 1;
  options.prune_by_cost = false;
  options.prune_by_dominance = false;
  auto unpruned = RunScenario(scenario, options);
  ASSERT_TRUE(unpruned.ok()) << unpruned.status();
  ASSERT_TRUE(unpruned->exhaustion.ok()) << unpruned->exhaustion;
  ASSERT_EQ(pruned.best.has_value(), unpruned->best.has_value())
      << scenario.name;
  if (unpruned->best.has_value()) {
    EXPECT_NEAR(pruned.best->cost, unpruned->best->cost, 1e-9)
        << scenario.name;
  }
}

TEST(ParallelSearchTest, PaperScenariosAgree) {
  for (bool boolean_query : {false, true}) {
    auto scenario = MakeProfinfoScenario(boolean_query);
    ASSERT_TRUE(scenario.ok());
    SearchOutcome outcome;
    ExpectWorkerCountsAgree(*scenario, SearchOptions{}, &outcome);
    EXPECT_TRUE(outcome.best.has_value());
  }
  auto telephone = MakeTelephoneScenario();
  ASSERT_TRUE(telephone.ok());
  ExpectWorkerCountsAgree(*telephone, SearchOptions{});
}

/// Price-first vs build-first at one worker: with the exploration log on,
/// the driver builds every child before its cost decision; with it off, it
/// prices the child's access command first and builds only children the
/// price does not prune. For cost functions that charge only access
/// commands the price is the built cost, so both runs must make the same
/// decisions: same plans, same node and prune counts. Only the closure
/// chases of price-pruned children go away.
void ExpectPricingMatchesBuilding(const Scenario& scenario,
                                  SearchOptions options, CostModel model) {
  options.parallelism = 1;
  options.collect_exploration_log = true;
  auto built = RunScenario(scenario, options, model);
  options.collect_exploration_log = false;
  auto priced = RunScenario(scenario, options, model);
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_TRUE(priced.ok()) << priced.status();
  EXPECT_TRUE(built->exhaustion.ok()) << built->exhaustion;
  EXPECT_TRUE(priced->exhaustion.ok()) << priced->exhaustion;
  ASSERT_EQ(built->best.has_value(), priced->best.has_value())
      << scenario.name;
  if (built->best.has_value()) {
    EXPECT_TRUE(built->best->plan == priced->best->plan) << scenario.name;
    EXPECT_EQ(built->best->cost, priced->best->cost) << scenario.name;
  }
  ASSERT_EQ(built->all_plans.size(), priced->all_plans.size());
  for (size_t i = 0; i < built->all_plans.size(); ++i) {
    EXPECT_TRUE(built->all_plans[i].plan == priced->all_plans[i].plan);
    EXPECT_EQ(built->all_plans[i].cost, priced->all_plans[i].cost);
  }
  const SearchStats& b = built->stats;
  const SearchStats& p = priced->stats;
  EXPECT_EQ(b.nodes_created, p.nodes_created) << scenario.name;
  EXPECT_EQ(b.nodes_expanded, p.nodes_expanded) << scenario.name;
  EXPECT_EQ(b.successes, p.successes) << scenario.name;
  EXPECT_EQ(b.pruned_cost, p.pruned_cost) << scenario.name;
  EXPECT_EQ(b.pruned_dominance, p.pruned_dominance) << scenario.name;
  EXPECT_LE(p.closure_firings, b.closure_firings) << scenario.name;
}

/// One round of the seeded random scenarios: a multi-source scenario and a
/// chain scenario, each with its search options.
struct RandomRound {
  Scenario multi;
  SearchOptions multi_options;
  Scenario chain;
  SearchOptions chain_options;
};

RandomRound NextRandomRound(std::mt19937& rng) {
  RandomRound round;
  // Multi-source with randomized access costs: cost pruning and dominance
  // both bite, and the optimal source choice is seed-dependent.
  int num_sources = 2 + static_cast<int>(rng() % 4);
  std::vector<double> costs(num_sources);
  std::uniform_real_distribution<double> cost_dist(0.5, 8.0);
  for (double& c : costs) c = cost_dist(rng);
  double profinfo_cost = cost_dist(rng);
  round.multi =
      MakeMultiSourceScenario(num_sources, costs.data(), profinfo_cost)
          .value();
  SearchOptions& options = round.multi_options;
  options.max_access_commands = 2 + static_cast<int>(rng() % 3);
  options.candidate_order = (rng() % 2 == 0)
                                ? CandidateOrder::kDerivationDepth
                                : CandidateOrder::kFreeAccessFirst;
  options.prune_by_cost = rng() % 4 != 0;  // Mostly on, sometimes off.
  options.keep_all_plans = rng() % 2 == 0;

  // Chain scenario: plans need several dependent accesses, so parallel
  // workers hand partially-expanded ancestors back and forth.
  round.chain = MakeChainScenario(1 + static_cast<int>(rng() % 4)).value();
  round.chain_options.max_access_commands = 3 + static_cast<int>(rng() % 4);
  round.chain_options.candidate_order = options.candidate_order;
  return round;
}

TEST(ParallelSearchTest, DifferentialRandomizedScenarios) {
  // >= 100 scenarios by default: `iters` rounds of 2 scenarios, each
  // compared across three parallelism levels and against the unpruned
  // optimum.
  const int iters = StressIters(50);
  std::mt19937 rng(20260806);
  for (int iter = 0; iter < iters; ++iter) {
    RandomRound round = NextRandomRound(rng);
    SearchOutcome single;
    ExpectWorkerCountsAgree(round.multi, round.multi_options, &single);
    ExpectPruningKeepsOptimum(round.multi, round.multi_options, single);
    ExpectWorkerCountsAgree(round.chain, round.chain_options, &single);
    ExpectPruningKeepsOptimum(round.chain, round.chain_options, single);
  }
}

TEST(ParallelSearchTest, PricingFirstMatchesBuildingFirst) {
  const int iters = StressIters(50);
  std::mt19937 rng(20260806);
  for (int iter = 0; iter < iters; ++iter) {
    RandomRound round = NextRandomRound(rng);
    for (CostModel model : {CostModel::kSimple, CostModel::kWeighted,
                            CostModel::kCardinality}) {
      ExpectPricingMatchesBuilding(round.multi, round.multi_options, model);
      ExpectPricingMatchesBuilding(round.chain, round.chain_options, model);
    }
  }
}

TEST(ParallelSearchTest, ExplorationLogRejectedWhenParallel) {
  auto scenario = MakeProfinfoScenario(true);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  options.parallelism = 2;
  options.collect_exploration_log = true;
  auto outcome = RunScenario(*scenario, options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  // parallelism == 1 keeps full log support.
  options.parallelism = 1;
  auto single = RunScenario(*scenario, options);
  ASSERT_TRUE(single.ok());
  EXPECT_FALSE(single->exploration_log.empty());
}

TEST(ParallelSearchTest, NodeCapOvershootBoundedByParallelism) {
  auto scenario = MakeMultiSourceScenario(6);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  options.parallelism = 4;
  options.max_nodes = 10;
  options.prune_by_cost = false;
  options.prune_by_dominance = false;
  auto outcome = RunScenario(*scenario, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->exhaustion.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(outcome->stats.nodes_created, options.max_nodes);
  // Each worker checks the cap before its next creation, so the documented
  // overshoot bound is `parallelism` nodes.
  EXPECT_LE(outcome->stats.nodes_created,
            options.max_nodes + options.parallelism);
}

TEST(ParallelSearchTest, BudgetNodeCapAnytime) {
  auto scenario = MakeMultiSourceScenario(6);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  options.parallelism = 4;
  options.prune_by_cost = false;
  options.prune_by_dominance = false;
  Budget budget;
  budget.set_node_cap(12);
  options.budget = &budget;
  auto outcome = RunScenario(*scenario, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->exhaustion.code(), StatusCode::kResourceExhausted);
  // At most one in-flight charge per worker can land after the cap trips.
  EXPECT_LE(budget.stats().nodes_charged, 12 + options.parallelism);
}

TEST(ParallelSearchTest, PreExpiredDeadlineYieldsAnytimeOutcome) {
  auto scenario = MakeMultiSourceScenario(4);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  options.parallelism = 4;
  Budget budget;
  SystemClock clock;
  budget.SetDeadline(&clock, -1);
  options.budget = &budget;
  auto outcome = RunScenario(*scenario, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->exhaustion.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(outcome->best.has_value());
}

TEST(ParallelSearchTest, CrossThreadCancellationStopsAllWorkers) {
  // A deliberately large space (no pruning, deep access budget) so the
  // search is still running when the cancel lands; if the machine is fast
  // enough to finish first, the test still checks the lifecycle contract
  // (Run returned with all workers joined and a coherent outcome).
  auto scenario = MakeMultiSourceScenario(9);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  options.parallelism = 4;
  options.max_access_commands = 9;
  options.prune_by_cost = false;
  options.prune_by_dominance = false;
  CancelToken token;
  Budget budget;
  budget.set_cancel_token(&token);
  options.budget = &budget;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel(StatusCode::kCancelled);
  });
  auto outcome = RunScenario(*scenario, options);
  canceller.join();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  if (!outcome->exhaustion.ok()) {
    EXPECT_EQ(outcome->exhaustion.code(), StatusCode::kCancelled);
  }
}

TEST(ParallelSearchTest, FirstPlanModeStopsWorkersPromptly) {
  auto scenario = MakeMultiSourceScenario(6);
  ASSERT_TRUE(scenario.ok());

  SearchOptions exhaustive;
  exhaustive.prune_by_cost = false;
  auto full = RunScenario(*scenario, exhaustive);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->best.has_value());

  SearchOptions first;
  first.parallelism = 4;
  first.stop_at_first_plan = true;
  first.prune_by_cost = false;
  auto outcome = RunScenario(*scenario, first);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->best.has_value());
  // The first success raises the stop flag; every worker exits at its next
  // poll point, so total expansions stay well below the exhaustive count.
  EXPECT_LT(outcome->stats.nodes_expanded, full->stats.nodes_expanded / 2);
}

TEST(ParallelSearchTest, FindAnyPlanParallel) {
  auto scenario = MakeProfinfoScenario(false);
  ASSERT_TRUE(scenario.ok());
  auto accessible = AccessibleSchema::Build(*scenario->schema,
                                            AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  auto found =
      FindAnyPlan(*accessible, scenario->query, /*max_access_commands=*/4,
                  /*parallelism=*/4);
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_GE(found->plan.NumAccessCommands(), 1);
}

TEST(ParallelSearchTest, KeepAllPlansBestIsCheapest) {
  auto scenario = MakeMultiSourceScenario(5);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  options.parallelism = 4;
  options.keep_all_plans = true;
  options.prune_by_cost = false;
  auto outcome = RunScenario(*scenario, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->best.has_value());
  ASSERT_FALSE(outcome->all_plans.empty());
  double min_cost = outcome->all_plans[0].cost;
  for (const FoundPlan& plan : outcome->all_plans) {
    min_cost = std::min(min_cost, plan.cost);
  }
  EXPECT_DOUBLE_EQ(outcome->best->cost, min_cost);
}

TEST(ParallelSearchTest, ParallelismBelowOneRunsSequentially) {
  auto scenario = MakeProfinfoScenario(true);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  options.parallelism = 0;
  options.collect_exploration_log = true;  // Only legal at one worker.
  auto outcome = RunScenario(*scenario, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->exploration_log.empty());
}

}  // namespace
}  // namespace lcp
