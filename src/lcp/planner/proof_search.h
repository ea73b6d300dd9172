#ifndef LCP_PLANNER_PROOF_SEARCH_H_
#define LCP_PLANNER_PROOF_SEARCH_H_

#include <optional>
#include <string>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/base/budget.h"
#include "lcp/base/result.h"
#include "lcp/chase/engine.h"
#include "lcp/plan/cost.h"
#include "lcp/plan/opt/pass_manager.h"
#include "lcp/plan/plan.h"

namespace lcp {

/// Candidate-selection policy (§5, "Search order"): which candidate fact /
/// method pair to expose first at a node.
enum class CandidateOrder {
  /// Minimal derivation depth first (fact insertion order), then cheapest
  /// method. The default.
  kDerivationDepth,
  /// Input-free methods before input-requiring ones (the heuristic used in
  /// the paper's Figure 1 walkthrough, which explores all directory sources
  /// before the checking access), then derivation depth.
  kFreeAccessFirst,
};

/// Options for Algorithm 1 (§5): cost-guided depth-first exploration of
/// chase proofs, generating SPJ plans directly from the proofs.
struct SearchOptions {
  /// The threshold d: maximum number of access commands per plan.
  int max_access_commands = 6;
  /// Abort a branch whose partial plan already costs at least as much as the
  /// best complete plan (sound for monotone cost functions). A candidate is
  /// first priced by its plan prefix up to the new access command and, if
  /// that already reaches the bound, discarded before its child is built
  /// (DESIGN.md §8, "Price before build").
  bool prune_by_cost = true;
  /// Abort a node dominated by an existing node: the existing configuration
  /// has "at least as many useful facts" (a homomorphism over base +
  /// InferredAcc + accessible facts, fixing the query's free-variable
  /// constants) at no higher cost (§5, "Optimizations").
  bool prune_by_dominance = true;
  /// Stop at the first successful proof (plan existence check / Theorem 5
  /// mode) instead of exhausting the space.
  bool stop_at_first_plan = false;
  /// Record every successful plan, not just the cheapest.
  bool keep_all_plans = false;
  /// Hard cap on created search nodes. Checked when a child survives
  /// pruning and is about to be created, so candidates that pruning
  /// discards never trip it.
  int max_nodes = 100000;
  /// Access methods the search must not use: candidates over these methods
  /// are dropped at enumeration time, at every worker count, so no returned
  /// plan ever contains an excluded method. This is
  /// the planner half of source-health failover (DESIGN.md §10): the
  /// serving layer passes the quarantined-method mask here and proof search
  /// re-routes through live alternatives — the paper's many-sound-plans
  /// property is exactly what makes such detours exist. Unknown ids are
  /// ignored; excluding every method of a needed relation yields kNotFound.
  std::vector<AccessMethodId> excluded_methods;
  /// Chase control for the root closure (original constraints, §5 "Original
  /// Schema Reasoning First") and the per-node closures (inferred
  /// accessible copies, "Fire Inferred Accessible Rules Immediately").
  ChaseOptions root_chase;
  ChaseOptions closure_chase;
  /// Record one human-readable line per node (Figure 1 style dumps): the
  /// root ("initial"), every created node ("cost=", "SUCCESS cost=") and
  /// every pruned child ("pruned(cost)", "pruned(dominated)"; a pruned
  /// child shows the id the next created node will take). Requires
  /// parallelism <= 1: the log is an ordered trace of a depth-first
  /// exploration, and a parallel exploration has no canonical order — Run
  /// returns kInvalidArgument when both are requested.
  bool collect_exploration_log = false;
  CandidateOrder candidate_order = CandidateOrder::kDerivationDepth;
  /// Number of search workers. Every search runs one work-stealing
  /// depth-first driver: workers expand nodes against a shared atomic
  /// incumbent bound (prune_by_cost uses the global cheapest plan) and a
  /// sharded concurrent dominance store. 1 (the default) runs on the
  /// calling thread and is deterministic: owner-LIFO scheduling is plain
  /// depth-first order, so node numbering, stats, plans and the exploration
  /// log repeat exactly. Guarantees of values > 1 versus 1:
  ///  - Run to exhaustion (exhaustion.ok()), it finds the same optimal
  ///    cost; the identity of the returned plan may differ when several
  ///    plans tie or the exploration order changes which one is found
  ///    first.
  ///  - The anytime contract is preserved: on budget exhaustion or
  ///    cancellation every worker winds down, all threads are joined before
  ///    Run returns, and the outcome carries the best plan found so far.
  ///  - Stats are coherent (merged after the workers quiesce), but
  ///    nodes_created may overshoot max_nodes by at most `parallelism`
  ///    (each worker checks the cap before, not atomically with, its next
  ///    creation); similarly a shared Budget's node cap can be overshot by
  ///    at most one in-flight charge per worker.
  /// Values < 1 are treated as 1.
  int parallelism = 1;
  /// Optional shared execution budget (wall-clock deadline + node/firing
  /// caps). The search checks it before every expansion and threads it into
  /// the root and per-node chase closures, so one budget bounds the whole
  /// planning episode. Exhaustion makes the search *anytime*: Run returns
  /// the best plan found so far with SearchOutcome::exhaustion set instead
  /// of failing. A CancelToken attached to the budget makes the episode
  /// cancellable from another thread through the same poll points (the
  /// QueryService relies on this for Cancel and abort shutdown); exhaustion
  /// then carries the token's code, and callers that no longer want the
  /// answer should discard the best-so-far plan. Not owned; null =
  /// unlimited.
  Budget* budget = nullptr;
  /// Run the plan-IR optimizer pipeline (plan/opt/, DESIGN.md §11) over
  /// every returned plan once the search has finished: common-subplan
  /// elimination, projection/selection pushdown, dead-command elimination,
  /// and join reorder, each re-validated and
  /// guaranteed not to raise cost. `best->cost` is re-evaluated afterwards,
  /// so it can only drop. Off by default — proof-generated plans are often
  /// already minimal and differential harnesses may want the literal plan;
  /// the QueryService turns it on so cached plans are optimized once and
  /// served many times.
  bool optimize_plans = false;
  /// Pass selection and fixpoint bound when optimize_plans is set.
  plan_opt::OptimizerOptions optimizer;
};

/// Work counters of one search. At one worker every field is deterministic.
struct SearchStats {
  /// Nodes created, the root included: children that survived both
  /// prunings. This is what max_nodes and a Budget's node cap count.
  int nodes_created = 0;
  /// Candidates priced: one per fireable (node, candidate) pair the search
  /// expanded, whether its child was then pruned or created.
  int nodes_expanded = 0;
  /// Created nodes whose configuration matches InferredAccQ.
  int successes = 0;
  /// Candidates discarded because their child would cost at least the
  /// incumbent bound, by price (before the child is built) or by built
  /// cost (after).
  int pruned_cost = 0;
  /// Built children discarded as dominated by a stored node.
  int pruned_dominance = 0;
  /// Nodes whose expansion stopped at max_access_commands.
  int depth_limited = 0;
  /// Chase firings of the root closure under the original constraints.
  int root_chase_firings = 0;
  /// Chase firings of the per-child "fire inferred accessible rules
  /// immediately" closures. Only built children run one: without the
  /// exploration log, a child whose price reaches the bound is never
  /// built, so its closure is neither run, counted here, nor charged to a
  /// Budget's firing cap. With the log on, every child is built first.
  int closure_firings = 0;
};

struct FoundPlan {
  Plan plan;
  double cost = 0;
};

struct SearchOutcome {
  /// The cheapest complete plan found, if any.
  std::optional<FoundPlan> best;
  /// Every complete plan found (only if keep_all_plans).
  std::vector<FoundPlan> all_plans;
  SearchStats stats;
  std::vector<std::string> exploration_log;
  /// Optimizer report for `best` when SearchOptions::optimize_plans ran
  /// (optimized == true); default-initialized otherwise.
  bool optimized = false;
  plan_opt::OptimizeStats optimize;
  /// Why the search stopped early, if it did (the anytime contract). OK
  /// means the proof space was exhausted and `best` is optimal within the
  /// access budget; kDeadlineExceeded / kResourceExhausted mean the time or
  /// node/firing budget ran out and `best` is only the cheapest plan found
  /// *so far* (possibly absent).
  Status exhaustion;
};

/// Algorithm 1 of the paper: searches the space of eager chase proofs that
/// Q entails InferredAccQ over AcSch(S0), maintaining for every proof node
/// the SPJ plan read off the proof (§4) and its cost, and returns the
/// lowest-cost plan within the access budget.
///
/// Constants appearing in the query are treated as schema constants
/// (accessible from the start), per the paper's convention.
class ProofSearch {
 public:
  /// `accessible` and `cost` must outlive the search. The cost function must
  /// be monotone if prune_by_cost is enabled.
  ProofSearch(const AccessibleSchema* accessible, const CostFunction* cost);

  /// Runs the search for `query` (a CQ over the base schema). Const and
  /// re-entrant: all search state (term arena, chase engine, node store)
  /// lives in a per-call context, so one ProofSearch may serve concurrent
  /// Run calls from multiple threads (the QueryService worker pool relies on
  /// this), provided the accessible schema and cost function are not
  /// mutated meanwhile. A Budget passed via `options` still belongs to one
  /// call at a time.
  Result<SearchOutcome> Run(const ConjunctiveQuery& query,
                            const SearchOptions& options) const;

 private:
  const AccessibleSchema* accessible_;
  const CostFunction* cost_;
};

/// Convenience wrapper: returns a (not necessarily optimal) plan for the
/// query if one exists within the access budget — the effective content of
/// Theorem 5 — or NOT_FOUND. `parallelism` > 1 searches with that many
/// workers in first-plan mode: the first success stops the whole pool
/// promptly (every other worker exits at its next poll point).
Result<FoundPlan> FindAnyPlan(const AccessibleSchema& accessible,
                              const ConjunctiveQuery& query,
                              int max_access_commands, int parallelism = 1);

}  // namespace lcp

#endif  // LCP_PLANNER_PROOF_SEARCH_H_
