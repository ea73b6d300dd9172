#ifndef LCP_PLANNER_SEARCH_CORE_H_
#define LCP_PLANNER_SEARCH_CORE_H_

// Internal header: the node-expansion core of Algorithm 1, driven by the
// work-stealing depth-first driver (parallel_search.cc). Not part of the
// public API — include lcp/planner/proof_search.h instead.

#include <string>
#include <unordered_set>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/base/result.h"
#include "lcp/chase/engine.h"
#include "lcp/chase/matcher.h"
#include "lcp/plan/cost.h"
#include "lcp/planner/proof_search.h"

namespace lcp {
namespace search_internal {

/// A (fact, method) pair that could be exposed by firing an accessibility
/// axiom (§5, "candidate for exposure"). Facts are identified by their index
/// in the root configuration (base facts never grow after the root closure,
/// because original-schema constraints fire only there).
struct Candidate {
  int fact_index;
  AccessMethodId method;
};

/// One node of the partial proof tree: a chase configuration over the
/// accessible schema plus the SPJ plan prefix read off the proof.
///
/// Ownership under parallel search: a node is *owned* by exactly one worker
/// at a time (hand-off goes through a work-stealing deque, which
/// synchronizes); only the owner touches the mutable cursor/removed
/// expansion state. The configuration is immutable once BuildChild
/// returns, so the dominance store and thieves may read it concurrently.
struct SearchNode {
  int id = 0;
  int parent = -1;
  ChaseConfig config;
  std::unordered_set<ChaseTermId> accessible_terms;
  /// Candidate indexes removed at this node (Algorithm 1, line 10). Not
  /// inherited: children recompute candidacy from their own configuration.
  std::unordered_set<int> removed;
  size_t cursor = 0;  ///< Next candidate index to consider.
  std::vector<Command> commands;
  std::string table;  ///< Running temporary table; empty before any access.
  std::vector<std::string> attrs;  ///< Its attributes (accessible nulls).
  double cost = 0;
  int accesses = 0;
  bool success = false;
  std::string label;  ///< "expose F via mt" (for exploration logs).
};

/// One expansion of a parent on a candidate, priced but not yet built: what
/// PriceChild computed and BuildChild consumes.
struct PricedChild {
  int child_id = 0;
  Fact exposed;
  /// Base facts the access exposes: same relation as `exposed`, agreeing
  /// on the method's input positions, not yet accessed at the parent.
  std::vector<Fact> induced;
  /// The child's access command (§4), outputs in table t<child_id>_raw.
  AccessCommand access;
  /// Cost of the parent's commands followed by `access`. Under the
  /// CostFunction contract (appending a command never lowers the cost) the
  /// built child costs at least this much.
  double price = 0;
};

/// The scheduling-independent parts of Algorithm 1: root construction,
/// candidate iteration, node expansion in two steps (pricing the child's
/// access, then the configuration update, inferred-accessible closure, §4
/// proof-to-plan translation and cost), success detection, and the
/// dominance-probe pattern. Pruning *decisions* and node bookkeeping stay
/// in the driver, which owns the incumbent bound and the dominance set.
///
/// Thread model: construction and InitRoot are single-threaded; afterwards
/// every method is const and safe from concurrent workers (the arena it
/// owns is internally synchronized; each worker passes its own ChaseEngine
/// and SearchStats, and NextCandidate/PriceChild mutate only the node the
/// calling worker owns).
class SearchCore {
 public:
  SearchCore(const AccessibleSchema& acc, const CostFunction& cost,
             const ConjunctiveQuery& query, const SearchOptions& options);

  /// Builds the root node: canonical database of the query, root closure
  /// under the original constraints, schema/query constants marked
  /// accessible, the global candidate list, and the compiled InferredAccQ /
  /// inferred-constraint patterns. Call exactly once, before any workers
  /// start. Does not charge the budget — the driver owns node accounting.
  Result<SearchNode> InitRoot(ChaseEngine& engine, SearchStats& stats);

  /// Advances node.cursor past removed and non-fireable candidates; returns
  /// the next fireable candidate index, or -1 when the node is exhausted.
  int NextCandidate(SearchNode& node) const;

  bool CandidateFireable(const SearchNode& node, const Candidate& cand) const;

  bool CheckSuccess(const SearchNode& node) const;

  /// The §4 plan read off a successful node, with the free-variable
  /// projection appended, plus its cost.
  FoundPlan MakeFoundPlan(const SearchNode& node) const;

  /// First half of expanding `parent` on `cand_index`: counts one
  /// nodes_expanded, removes the sibling candidates this access also covers
  /// (Algorithm 1, line 10), collects the induced facts and builds the
  /// child's access command, which names its output after `child_id`.
  /// Returns them with the price, cost(parent.commands + access). Runs no
  /// chase and copies no configuration, so a driver can discard a child
  /// whose price already reaches the incumbent bound before paying for it.
  /// Mutates only `parent` (which the caller owns) and `stats` (the
  /// caller's); parent.commands is restored before it returns.
  PricedChild PriceChild(SearchNode& parent, int cand_index, int child_id,
                         SearchStats& stats) const;

  /// Second half: builds the child of `parent` that `priced` describes —
  /// one middleware command per induced fact and the join, the
  /// configuration update, the "fire inferred accessible rules
  /// immediately" closure (its firings go to stats.closure_firings and to
  /// the budget), and the full cost, which is >= priced.price (checked in
  /// builds without NDEBUG). Makes no pruning decision and does not touch
  /// `parent`. Errors propagate (typically a budget-exhausted chase closure;
  /// the driver translates that into the anytime contract).
  Result<SearchNode> BuildChild(const SearchNode& parent, PricedChild priced,
                                ChaseEngine& engine, SearchStats& stats) const;

  /// The dominance probe of `node` (§5, "Optimizations"): its base,
  /// InferredAcc, and accessible facts as a pattern with nulls as variables,
  /// except the query's free-variable constants, which stay fixed. A
  /// configuration that admits a homomorphism of this pattern (at no higher
  /// cost and no higher access count) dominates `node`.
  struct DominanceProbe {
    std::vector<PatternAtom> pattern;
    size_t num_vars = 0;
  };
  DominanceProbe MakeDominanceProbe(const SearchNode& node) const;

  /// Figure-1-style exploration-log line for `node`.
  std::string LogLine(const SearchNode& node, const std::string& status) const;

  const SearchOptions& options() const { return options_; }
  const Schema& schema() const { return acc_.schema(); }
  TermArena& arena() { return arena_; }

 private:
  void MarkAccessible(SearchNode& node, ChaseTermId term) const;
  /// cost_ of `commands` as a plan ending in `output_table`. The commands
  /// are moved into the plan for the call and back, not copied.
  double CostOf(std::vector<Command>& commands,
                const std::string& output_table) const;
  Fact AccessedFact(const Fact& base_fact) const {
    return Fact(acc_.AccessedOf(base_fact.relation), base_fact.terms);
  }

  const AccessibleSchema& acc_;
  const CostFunction& cost_;
  const ConjunctiveQuery& query_;
  const SearchOptions& options_;
  /// Chase options with the shared budget threaded in.
  ChaseOptions root_chase_;
  ChaseOptions closure_chase_;

  TermArena arena_;
  std::vector<CompiledTgd> compiled_inferred_;
  std::vector<Candidate> all_candidates_;
  /// InferredAccQ compiled for success checks; free variables pre-bound to
  /// their canonical nulls.
  VariableTable query_vars_;
  std::vector<PatternAtom> query_pattern_;
  std::vector<ChaseTermId> query_assignment_template_;
  std::vector<ChaseTermId> free_var_terms_;
};

/// The work-stealing driver (parallel_search.cc), with
/// max(1, options.parallelism) workers. collect_exploration_log requires a
/// single worker (the public entry point enforces it).
Result<SearchOutcome> RunWorkStealingSearch(const AccessibleSchema& accessible,
                                           const CostFunction& cost,
                                           const ConjunctiveQuery& query,
                                           const SearchOptions& options);

}  // namespace search_internal
}  // namespace lcp

#endif  // LCP_PLANNER_SEARCH_CORE_H_
