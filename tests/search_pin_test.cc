// Pinned single-worker proof-search behaviour: the exact exploration log,
// SearchStats and returned plans of small scenarios, recorded once and
// compared verbatim. Any change to exploration order, node numbering (which
// names the plan's temporary tables), pruning decisions or the §4
// translation shows up here as a diff, so scheduler refactors that claim to
// preserve behaviour can prove it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/plan/serialize.h"
#include "lcp/planner/proof_search.h"
#include "lcp/workload/scenarios.h"

namespace lcp {
namespace {

std::string FromHex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

SearchOutcome RunSearch(const Scenario& scenario,
                        const SearchOptions& options) {
  AccessibleSchema accessible =
      AccessibleSchema::Build(*scenario.schema, AccessibleVariant::kStandard)
          .value();
  SimpleCostFunction cost(scenario.schema.get());
  ProofSearch search(&accessible, &cost);
  auto outcome = search.Run(scenario.query, options);
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  return std::move(outcome).value();
}

void ExpectStats(const SearchStats& got, const SearchStats& want) {
  EXPECT_EQ(got.nodes_created, want.nodes_created);
  EXPECT_EQ(got.nodes_expanded, want.nodes_expanded);
  EXPECT_EQ(got.successes, want.successes);
  EXPECT_EQ(got.pruned_cost, want.pruned_cost);
  EXPECT_EQ(got.pruned_dominance, want.pruned_dominance);
  EXPECT_EQ(got.depth_limited, want.depth_limited);
  EXPECT_EQ(got.root_chase_firings, want.root_chase_firings);
  EXPECT_EQ(got.closure_firings, want.closure_firings);
}

void ExpectLog(const std::vector<std::string>& got,
               const std::vector<std::string>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "log line " << i;
  }
}

/// The Figure 1 scenario (three directories + Profinfo, unit costs) with the
/// options of bench_fig1_exploration: the paper's free-accesses-first
/// heuristic, access budget 4, every plan kept.
SearchOptions Fig1Options() {
  SearchOptions options;
  options.max_access_commands = 4;
  options.candidate_order = CandidateOrder::kFreeAccessFirst;
  options.collect_exploration_log = true;
  options.keep_all_plans = true;
  return options;
}

Scenario Fig1Scenario() {
  const double unit[3] = {1.0, 1.0, 1.0};
  return MakeMultiSourceScenario(3, unit, 1.0).value();
}

/// The winning Figure 1 plan (Udirect1, then Profinfo), EncodePlan bytes.
const char* const kFig1BestPlanHex =
    "01060000000001000000ff00000000000000000600000074315f726177020000"
    "0003000000237030000000000300000023703101000000000000000000000001"
    "0500000074315f66300102000000050000006569645f30070000006c6e616d65"
    "5f32060200000003000000237030050000006569645f30030000002370310700"
    "00006c6e616d655f32000600000074315f726177010200000074310005000000"
    "74315f663000000000000102000000050000006569645f30070000006c6e616d"
    "655f320002000000743102000000050000006569645f3000000000070000006c"
    "6e616d655f3202000000000000000600000074375f7261770300000003000000"
    "2370300000000003000000237031010000000300000023703202000000000000"
    "0000000000010500000074375f66300103000000050000006569645f30060000"
    "006f6e756d5f31070000006c6e616d655f320603000000030000002370300500"
    "00006569645f3003000000237031060000006f6e756d5f310300000023703207"
    "0000006c6e616d655f32000600000074375f7261770102000000743703000200"
    "00007431000500000074375f663002000000743700000000";

TEST(SearchPinTest, Figure1ExplorationUnderDominancePruning) {
  Scenario scenario = Fig1Scenario();
  SearchOptions options = Fig1Options();
  options.prune_by_cost = false;
  SearchOutcome outcome = RunSearch(scenario, options);

  // n1 → n2 → n3 → n4 (first proof, all three directories), backtrack to
  // the cost-3 and cost-2 proofs, then 8 dominance prunes. Pruned children
  // share the id of the next created node.
  ExpectLog(
      outcome.exploration_log,
      {
          "n0 [root] facts=4 accesses=0 initial",
          "n1 <- n0 [expose Udirect1(eid_0, lname_2) via mt_udirect1] "
          "facts=8 accesses=1 cost=1",
          "n2 <- n1 [expose Udirect2(eid_0, lname_2) via mt_udirect2] "
          "facts=10 accesses=2 cost=2",
          "n3 <- n2 [expose Udirect3(eid_0, lname_2) via mt_udirect3] "
          "facts=12 accesses=3 cost=3",
          "n4 <- n3 [expose Profinfo(eid_0, onum_1, lname_2) via "
          "mt_profinfo] facts=15 accesses=4 SUCCESS cost=4",
          "n5 <- n2 [expose Profinfo(eid_0, onum_1, lname_2) via "
          "mt_profinfo] facts=14 accesses=3 SUCCESS cost=3",
          "n6 <- n1 [expose Udirect3(eid_0, lname_2) via mt_udirect3] "
          "facts=10 accesses=2 cost=2",
          "n7 <- n6 [expose Udirect2(eid_0, lname_2) via mt_udirect2] "
          "facts=12 accesses=3 pruned(dominated)",
          "n7 <- n6 [expose Profinfo(eid_0, onum_1, lname_2) via "
          "mt_profinfo] facts=14 accesses=3 pruned(dominated)",
          "n7 <- n1 [expose Profinfo(eid_0, onum_1, lname_2) via "
          "mt_profinfo] facts=13 accesses=2 SUCCESS cost=2",
          "n8 <- n0 [expose Udirect2(eid_0, lname_2) via mt_udirect2] "
          "facts=8 accesses=1 cost=1",
          "n9 <- n8 [expose Udirect1(eid_0, lname_2) via mt_udirect1] "
          "facts=10 accesses=2 pruned(dominated)",
          "n9 <- n8 [expose Udirect3(eid_0, lname_2) via mt_udirect3] "
          "facts=10 accesses=2 pruned(dominated)",
          "n9 <- n8 [expose Profinfo(eid_0, onum_1, lname_2) via "
          "mt_profinfo] facts=13 accesses=2 pruned(dominated)",
          "n9 <- n0 [expose Udirect3(eid_0, lname_2) via mt_udirect3] "
          "facts=8 accesses=1 cost=1",
          "n10 <- n9 [expose Udirect1(eid_0, lname_2) via mt_udirect1] "
          "facts=10 accesses=2 pruned(dominated)",
          "n10 <- n9 [expose Udirect2(eid_0, lname_2) via mt_udirect2] "
          "facts=10 accesses=2 pruned(dominated)",
          "n10 <- n9 [expose Profinfo(eid_0, onum_1, lname_2) via "
          "mt_profinfo] facts=13 accesses=2 pruned(dominated)",
      });

  SearchStats want;
  want.nodes_created = 10;
  want.nodes_expanded = 17;
  want.successes = 3;
  want.pruned_dominance = 8;
  want.root_chase_firings = 3;
  want.closure_firings = 8;
  ExpectStats(outcome.stats, want);

  ASSERT_TRUE(outcome.best.has_value());
  EXPECT_DOUBLE_EQ(outcome.best->cost, 2.0);
  Result<Plan> pinned = DecodePlan(FromHex(kFig1BestPlanHex));
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  EXPECT_TRUE(outcome.best->plan == *pinned)
      << outcome.best->plan.ToString(*scenario.schema);
  EXPECT_EQ(outcome.best->plan.ToString(*scenario.schema),
            "t1_raw <- mt_udirect1 <- {} out(#p0:0,#p1:1)\n"
            "t1_f0 := project[eid_0,lname_2](rename[#p0->eid_0,"
            "#p1->lname_2](scan(t1_raw)))\n"
            "t1 := scan(t1_f0)\n"
            "t7_raw <- mt_profinfo <- project[eid_0,lname_2](scan(t1)) "
            "out(#p0:0,#p1:1,#p2:2)\n"
            "t7_f0 := project[eid_0,onum_1,lname_2](rename[#p0->eid_0,"
            "#p1->onum_1,#p2->lname_2](scan(t7_raw)))\n"
            "t7 := (scan(t1) join scan(t7_f0))\n"
            "output: t7\n");
  ASSERT_EQ(outcome.all_plans.size(), 3u);
  EXPECT_DOUBLE_EQ(outcome.all_plans[0].cost, 4.0);
  EXPECT_DOUBLE_EQ(outcome.all_plans[1].cost, 3.0);
  EXPECT_DOUBLE_EQ(outcome.all_plans[2].cost, 2.0);
}

TEST(SearchPinTest, Figure1ExplorationUnderCostPruning) {
  Scenario scenario = Fig1Scenario();
  SearchOptions options = Fig1Options();
  options.prune_by_cost = true;
  SearchOutcome outcome = RunSearch(scenario, options);

  // Same walk as above; the incumbent bound now cuts the 8 branches first.
  ExpectLog(
      outcome.exploration_log,
      {
          "n0 [root] facts=4 accesses=0 initial",
          "n1 <- n0 [expose Udirect1(eid_0, lname_2) via mt_udirect1] "
          "facts=8 accesses=1 cost=1",
          "n2 <- n1 [expose Udirect2(eid_0, lname_2) via mt_udirect2] "
          "facts=10 accesses=2 cost=2",
          "n3 <- n2 [expose Udirect3(eid_0, lname_2) via mt_udirect3] "
          "facts=12 accesses=3 cost=3",
          "n4 <- n3 [expose Profinfo(eid_0, onum_1, lname_2) via "
          "mt_profinfo] facts=15 accesses=4 SUCCESS cost=4",
          "n5 <- n2 [expose Profinfo(eid_0, onum_1, lname_2) via "
          "mt_profinfo] facts=14 accesses=3 SUCCESS cost=3",
          "n6 <- n1 [expose Udirect3(eid_0, lname_2) via mt_udirect3] "
          "facts=10 accesses=2 cost=2",
          "n7 <- n6 [expose Udirect2(eid_0, lname_2) via mt_udirect2] "
          "facts=12 accesses=3 pruned(cost)",
          "n7 <- n6 [expose Profinfo(eid_0, onum_1, lname_2) via "
          "mt_profinfo] facts=14 accesses=3 pruned(cost)",
          "n7 <- n1 [expose Profinfo(eid_0, onum_1, lname_2) via "
          "mt_profinfo] facts=13 accesses=2 SUCCESS cost=2",
          "n8 <- n0 [expose Udirect2(eid_0, lname_2) via mt_udirect2] "
          "facts=8 accesses=1 cost=1",
          "n9 <- n8 [expose Udirect1(eid_0, lname_2) via mt_udirect1] "
          "facts=10 accesses=2 pruned(cost)",
          "n9 <- n8 [expose Udirect3(eid_0, lname_2) via mt_udirect3] "
          "facts=10 accesses=2 pruned(cost)",
          "n9 <- n8 [expose Profinfo(eid_0, onum_1, lname_2) via "
          "mt_profinfo] facts=13 accesses=2 pruned(cost)",
          "n9 <- n0 [expose Udirect3(eid_0, lname_2) via mt_udirect3] "
          "facts=8 accesses=1 cost=1",
          "n10 <- n9 [expose Udirect1(eid_0, lname_2) via mt_udirect1] "
          "facts=10 accesses=2 pruned(cost)",
          "n10 <- n9 [expose Udirect2(eid_0, lname_2) via mt_udirect2] "
          "facts=10 accesses=2 pruned(cost)",
          "n10 <- n9 [expose Profinfo(eid_0, onum_1, lname_2) via "
          "mt_profinfo] facts=13 accesses=2 pruned(cost)",
      });

  SearchStats want;
  want.nodes_created = 10;
  want.nodes_expanded = 17;
  want.successes = 3;
  want.pruned_cost = 8;
  want.root_chase_firings = 3;
  want.closure_firings = 8;
  ExpectStats(outcome.stats, want);

  ASSERT_TRUE(outcome.best.has_value());
  Result<Plan> pinned = DecodePlan(FromHex(kFig1BestPlanHex));
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  EXPECT_TRUE(outcome.best->plan == *pinned);
}

TEST(SearchPinTest, ChainScenarioStatsAndPlan) {
  Scenario scenario = MakeChainScenario(3).value();
  SearchOptions options;
  options.collect_exploration_log = true;
  SearchOutcome outcome = RunSearch(scenario, options);

  ExpectLog(outcome.exploration_log,
            {
                "n0 [root] facts=4 accesses=0 initial",
                "n1 <- n0 [expose R3(c_3, c_4) via mt_R3] facts=8 "
                "accesses=1 cost=1",
                "n2 <- n1 [expose R2(c_2, c_3) via mt_R2] facts=11 "
                "accesses=2 cost=2",
                "n3 <- n2 [expose R1(b_1, c_2) via mt_R1] facts=14 "
                "accesses=3 cost=3",
                "n4 <- n3 [expose R0(a_0, b_1) via mt_R0] facts=17 "
                "accesses=4 SUCCESS cost=4",
            });

  SearchStats want;
  want.nodes_created = 5;
  want.nodes_expanded = 4;
  want.successes = 1;
  want.root_chase_firings = 3;
  ExpectStats(outcome.stats, want);

  ASSERT_TRUE(outcome.best.has_value());
  EXPECT_DOUBLE_EQ(outcome.best->cost, 4.0);
  EXPECT_EQ(outcome.best->plan.ToString(*scenario.schema),
            "t1_raw <- mt_R3 <- {} out(#p0:0,#p1:1)\n"
            "t1_f0 := project[c_3,c_4](rename[#p0->c_3,#p1->c_4]"
            "(scan(t1_raw)))\n"
            "t1 := scan(t1_f0)\n"
            "t2_raw <- mt_R2 <- project[c_3](scan(t1)) out(#p0:0,#p1:1)\n"
            "t2_f0 := project[c_2,c_3](rename[#p0->c_2,#p1->c_3]"
            "(scan(t2_raw)))\n"
            "t2 := (scan(t1) join scan(t2_f0))\n"
            "t3_raw <- mt_R1 <- project[c_2](scan(t2)) out(#p0:0,#p1:1)\n"
            "t3_f0 := project[b_1,c_2](rename[#p0->b_1,#p1->c_2]"
            "(scan(t3_raw)))\n"
            "t3 := (scan(t2) join scan(t3_f0))\n"
            "t4_raw <- mt_R0 <- project[b_1](scan(t3)) out(#p0:0,#p1:1)\n"
            "t4_f0 := project[a_0,b_1](rename[#p0->a_0,#p1->b_1]"
            "(scan(t4_raw)))\n"
            "t4 := (scan(t3) join scan(t4_f0))\n"
            "t4_out := project[a_0](scan(t4))\n"
            "output: t4_out[a_0]\n");
}

// The counters below are the search's work, pinned as a gate: they are
// deterministic at one worker, so an algorithmic regression shows up here
// without any timing. With the exploration log off, a candidate is priced
// by its access command before its child is built, so a cost-pruned child
// runs no closure chase: the node and prune counts equal the logged run's,
// and only closure_firings drops.
TEST(SearchPinTest, Figure1CountersWithoutLog) {
  Scenario scenario = Fig1Scenario();
  SearchOptions options = Fig1Options();
  options.collect_exploration_log = false;
  options.prune_by_cost = true;
  SearchOutcome outcome = RunSearch(scenario, options);
  EXPECT_TRUE(outcome.exploration_log.empty());
  EXPECT_TRUE(outcome.exhaustion.ok()) << outcome.exhaustion;

  SearchStats want;
  want.nodes_created = 10;
  want.nodes_expanded = 17;
  want.successes = 3;
  want.pruned_cost = 8;
  want.root_chase_firings = 3;
  want.closure_firings = 3;
  ExpectStats(outcome.stats, want);

  ASSERT_TRUE(outcome.best.has_value());
  EXPECT_DOUBLE_EQ(outcome.best->cost, 2.0);
  Result<Plan> pinned = DecodePlan(FromHex(kFig1BestPlanHex));
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  EXPECT_TRUE(outcome.best->plan == *pinned);
}

TEST(SearchPinTest, TwentySourceCountersWithoutLog) {
  const double costs[20] = {6, 3, 8, 2, 7, 5, 4, 8, 1, 6,
                            3, 7, 2, 5, 8, 4, 6, 1, 7, 3};
  Scenario scenario = MakeMultiSourceScenario(20, costs, 1.0).value();
  SearchOutcome outcome = RunSearch(scenario, SearchOptions{});
  EXPECT_TRUE(outcome.exhaustion.ok()) << outcome.exhaustion;

  SearchStats want;
  want.nodes_created = 10;
  want.nodes_expanded = 120;
  want.successes = 4;
  want.pruned_cost = 111;
  want.pruned_dominance = 0;
  want.root_chase_firings = 20;
  want.closure_firings = 76;
  ExpectStats(outcome.stats, want);

  ASSERT_TRUE(outcome.best.has_value());
  EXPECT_DOUBLE_EQ(outcome.best->cost, 2.0);
}

}  // namespace
}  // namespace lcp
