// The proof-search driver for Algorithm 1: a work-stealing depth-first
// search over SearchCore's node expansion, run with SearchOptions::
// parallelism workers. See DESIGN.md §8 for the full protocol write-up.
//
// Scheduling: each worker owns a deque of live nodes. A worker expands its
// current node one candidate at a time; a viable (non-pruned, non-success)
// child makes the worker push the *parent* back onto its own deque bottom
// and descend into the child, which leaves the parent (the larger remaining
// subtree) exposed for thieves, the classic work-first principle. With one
// worker, RunWorkers spawns no thread and owner-LIFO pops make the deque an
// explicit DFS stack: exploration order, node numbering, stats and the
// exploration log are deterministic.
//
// Shared state and why the races are benign:
//  - Incumbent bound: best_cost_ is an atomic read with relaxed order on the
//    pruning fast path. A stale read is always >= the true bound, and with a
//    monotone cost function pruning only against a *larger* bound can only
//    keep nodes it could have pruned — never the reverse. Plan publication
//    (rare) goes through best_mutex_, which also moves best_cost_ downward.
//  - Dominance: the sharded store only ever *loses* prunes under races (see
//    dominance_store.h); it never wrongly prunes.
//  - Node ownership: exactly one worker owns a node at a time; the deque
//    mutex synchronizes hand-off. Configurations are immutable after
//    BuildChild; ChaseConfig's lazy index catch-up is safe under the
//    concurrent reads of the dominance store and thieves.
//  - Termination: in_flight_ counts live nodes (in some deque or held by a
//    worker). It is incremented before a push makes a node stealable and
//    decremented only when a node's candidates are exhausted, so it reaches
//    zero exactly when the proof space is exhausted. Early stop (budget,
//    node cap, first plan, error) goes through stop_, which every worker
//    polls each iteration.

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lcp/base/strings.h"
#include "lcp/base/work_steal.h"
#include "lcp/planner/dominance_store.h"
#include "lcp/planner/search_core.h"

namespace lcp {
namespace search_internal {

namespace {

class WorkStealingDriver {
 public:
  WorkStealingDriver(const AccessibleSchema& acc, const CostFunction& cost,
                     const ConjunctiveQuery& query,
                     const SearchOptions& options)
      : core_(acc, cost, query, options),
        options_(options),
        num_workers_(options.parallelism < 1 ? 1 : options.parallelism),
        deques_(num_workers_),
        workers_(num_workers_),
        // ~4 shards per worker keeps insert contention low without making
        // the all-shard scan in IsDominated noticeable.
        store_(num_workers_ * 4 > 64 ? 64 : num_workers_ * 4) {}

  Result<SearchOutcome> Run() {
    Budget* budget = options_.budget;
    ChaseEngine root_engine(&core_.schema(), &core_.arena());
    Result<SearchNode> root = core_.InitRoot(root_engine, outcome_.stats);
    if (!root.ok()) {
      // Anytime contract: a budget that dies during the root closure yields
      // an empty best-effort outcome, not an error.
      if (budget != nullptr && budget->exhausted()) {
        outcome_.exhaustion = budget->exhaustion();
        return std::move(outcome_);
      }
      return root.status();
    }
    auto root_sp = std::make_shared<SearchNode>(std::move(*root));
    nodes_created_.store(1, std::memory_order_relaxed);
    // The root counts against the node budget like any other node.
    if (budget != nullptr) (void)budget->ChargeNode();
    Log(*root_sp, "initial");
    if (options_.prune_by_dominance) {
      store_.Insert(ConfigFingerprint(root_sp->config), root_sp->cost,
                    root_sp->accesses,
                    std::shared_ptr<const ChaseConfig>(root_sp,
                                                       &root_sp->config));
    }
    in_flight_.store(1, std::memory_order_relaxed);
    deques_[0].PushBottom(std::move(root_sp));

    RunWorkers(num_workers_, [this](int wid) { WorkerLoop(wid); });

    // All workers are joined: the shared state has quiesced.
    outcome_.stats.nodes_created =
        nodes_created_.load(std::memory_order_relaxed);
    for (const WorkerState& w : workers_) {
      outcome_.stats.nodes_expanded += w.stats.nodes_expanded;
      outcome_.stats.successes += w.stats.successes;
      outcome_.stats.pruned_cost += w.stats.pruned_cost;
      outcome_.stats.pruned_dominance += w.stats.pruned_dominance;
      outcome_.stats.depth_limited += w.stats.depth_limited;
      outcome_.stats.closure_firings += w.stats.closure_firings;
    }
    if (!fatal_.ok()) return fatal_;
    outcome_.exhaustion = exhaustion_;
    outcome_.best = std::move(best_);
    outcome_.all_plans = std::move(all_plans_);
    return std::move(outcome_);
  }

 private:
  struct alignas(64) WorkerState {
    SearchStats stats;
  };

  void WorkerLoop(int wid) {
    ChaseEngine engine(&core_.schema(), &core_.arena());
    SearchStats& stats = workers_[wid].stats;
    Budget* budget = options_.budget;
    std::shared_ptr<SearchNode> cur;
    while (true) {
      if (stop_.load(std::memory_order_acquire)) break;
      if (cur == nullptr) {
        cur = ObtainWork(wid);
        if (cur == nullptr) {
          if (done_.load(std::memory_order_acquire) ||
              stop_.load(std::memory_order_acquire)) {
            break;
          }
          gate_.Park(std::chrono::microseconds(200));
          continue;
        }
      }
      if (budget != nullptr) {
        Status budget_status = budget->Check();
        if (!budget_status.ok()) {
          LatchExhaustion(std::move(budget_status));
          RequestStop();
          break;
        }
      }
      int cand_index = core_.NextCandidate(*cur);
      if (cand_index < 0) {
        FinishNode();
        cur.reset();
        continue;
      }
      if (cur->accesses >= options_.max_access_commands) {
        ++stats.depth_limited;
        FinishNode();
        cur.reset();
        continue;
      }
      // The created-node count names the child, so a pruned child shares
      // its id with the next created node. Ids rise strictly along every
      // root-to-leaf path (a parent is counted before any child of it is
      // priced), and a plan's table names only need to be unique along its
      // path.
      const int child_id = nodes_created_.load(std::memory_order_relaxed);
      PricedChild priced = core_.PriceChild(*cur, cand_index, child_id, stats);
      // Price before build: the child costs at least its price, so a price
      // at the bound prunes it without the configuration copy, closure
      // chase and plan translation. With the log on, the child is built
      // first so its pruned(cost) line can show the closed configuration.
      if (options_.prune_by_cost && !options_.collect_exploration_log &&
          priced.price >= best_cost_.load(std::memory_order_relaxed)) {
        ++stats.pruned_cost;
        continue;
      }
      Result<SearchNode> built =
          core_.BuildChild(*cur, std::move(priced), engine, stats);
      if (!built.ok()) {
        // A chase closure interrupted by the shared budget stops the search
        // gracefully with whatever was found; genuine chase errors
        // propagate.
        if (budget != nullptr && budget->exhausted()) {
          LatchExhaustion(budget->exhaustion());
        } else {
          LatchFatal(built.status());
        }
        RequestStop();
        break;
      }
      SearchNode child = std::move(*built);
      // The only cost check with the log on; without it, a second one,
      // because another worker may have lowered the bound meanwhile.
      if (options_.prune_by_cost &&
          child.cost >= best_cost_.load(std::memory_order_relaxed)) {
        ++stats.pruned_cost;
        Log(child, "pruned(cost)");
        continue;
      }
      if (options_.prune_by_dominance) {
        SearchCore::DominanceProbe probe = core_.MakeDominanceProbe(child);
        if (store_.IsDominated(probe.pattern, probe.num_vars, child.cost,
                               child.accesses)) {
          ++stats.pruned_dominance;
          Log(child, "pruned(dominated)");
          continue;
        }
      }
      // The node cap counts created nodes, so it is checked only once the
      // child survived pruning. Each worker checks before, not atomically
      // with, its creation, so the global total can overshoot the cap by at
      // most `parallelism` nodes (documented in proof_search.h).
      if (nodes_created_.load(std::memory_order_relaxed) >=
          options_.max_nodes) {
        LatchExhaustion(ResourceExhaustedError(StrCat(
            "search node cap of ", options_.max_nodes, " reached")));
        RequestStop();
        break;
      }
      child.success = core_.CheckSuccess(child);
      auto sp = std::make_shared<SearchNode>(std::move(child));
      nodes_created_.fetch_add(1, std::memory_order_relaxed);
      // Charge the node; every worker's Check() notices an exceeded cap
      // before its next expansion.
      if (budget != nullptr) (void)budget->ChargeNode();
      if (options_.prune_by_dominance) {
        // Successful nodes are dominators too.
        store_.Insert(ConfigFingerprint(sp->config), sp->cost, sp->accesses,
                      std::shared_ptr<const ChaseConfig>(sp, &sp->config));
      }
      if (options_.collect_exploration_log) {
        Log(*sp, StrCat(sp->success ? "SUCCESS cost=" : "cost=", sp->cost));
      }
      if (sp->success) {
        ++stats.successes;
        PublishPlan(core_.MakeFoundPlan(*sp));
        if (options_.stop_at_first_plan) {
          RequestStop();
          break;
        }
        continue;  // Keep expanding the current node's other candidates.
      }
      // Descend into the child; expose the parent (the larger remaining
      // subtree) for stealing. The increment must precede the push so no
      // idle worker can observe empty deques with in_flight_ == 0 while the
      // parent is in transit.
      in_flight_.fetch_add(1, std::memory_order_relaxed);
      deques_[wid].PushBottom(std::move(cur));
      if (gate_.HasIdlers()) gate_.NotifyOne();
      cur = std::move(sp);
    }
  }

  std::shared_ptr<SearchNode> ObtainWork(int wid) {
    if (std::optional<std::shared_ptr<SearchNode>> own =
            deques_[wid].TryPopBottom()) {
      return std::move(*own);
    }
    for (int i = 1; i < num_workers_; ++i) {
      if (std::optional<std::shared_ptr<SearchNode>> stolen =
              deques_[(wid + i) % num_workers_].TrySteal()) {
        return std::move(*stolen);
      }
    }
    return nullptr;
  }

  /// Called when a node's candidates are exhausted: it leaves the live set.
  void FinishNode() {
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_.store(true, std::memory_order_release);
      gate_.NotifyAll();
    }
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    gate_.NotifyAll();
  }

  void PublishPlan(FoundPlan found) {
    std::lock_guard<std::mutex> lock(best_mutex_);
    if (options_.keep_all_plans) all_plans_.push_back(found);
    if (!best_.has_value() || found.cost < best_->cost) {
      best_cost_.store(found.cost, std::memory_order_relaxed);
      best_ = std::move(found);
    }
  }

  /// Appends an exploration-log line. The log is only collected at one
  /// worker (ProofSearch::Run rejects it otherwise), so no lock is needed.
  void Log(const SearchNode& node, std::string_view status) {
    if (!options_.collect_exploration_log) return;
    outcome_.exploration_log.push_back(
        core_.LogLine(node, std::string(status)));
  }

  void LatchExhaustion(Status status) {
    std::lock_guard<std::mutex> lock(status_mutex_);
    if (exhaustion_.ok()) exhaustion_ = std::move(status);
  }

  void LatchFatal(Status status) {
    std::lock_guard<std::mutex> lock(status_mutex_);
    if (fatal_.ok()) fatal_ = std::move(status);
  }

  SearchCore core_;
  const SearchOptions& options_;
  const int num_workers_;

  std::vector<WorkStealingDeque<std::shared_ptr<SearchNode>>> deques_;
  std::vector<WorkerState> workers_;
  IdleGate gate_;
  ConcurrentDominanceStore store_;

  /// Live nodes: in some deque or held by a worker.
  std::atomic<int> in_flight_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  /// Created nodes; also the id of the next child to be built.
  std::atomic<int> nodes_created_{0};

  /// The incumbent bound, read lock-free on the pruning fast path. Only
  /// ever decreases; writes go through best_mutex_.
  std::atomic<double> best_cost_{std::numeric_limits<double>::infinity()};
  std::mutex best_mutex_;
  std::optional<FoundPlan> best_;
  std::vector<FoundPlan> all_plans_;

  std::mutex status_mutex_;
  Status exhaustion_;
  Status fatal_;

  SearchOutcome outcome_;
};

}  // namespace

Result<SearchOutcome> RunWorkStealingSearch(
    const AccessibleSchema& accessible, const CostFunction& cost,
    const ConjunctiveQuery& query, const SearchOptions& options) {
  WorkStealingDriver driver(accessible, cost, query, options);
  return driver.Run();
}

}  // namespace search_internal
}  // namespace lcp
