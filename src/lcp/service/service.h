#ifndef LCP_SERVICE_SERVICE_H_
#define LCP_SERVICE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/base/budget.h"
#include "lcp/base/clock.h"
#include "lcp/base/result.h"
#include "lcp/logic/conjunctive_query.h"
#include "lcp/plan/cost.h"
#include "lcp/planner/proof_search.h"
#include "lcp/runtime/executor.h"
#include "lcp/runtime/health.h"
#include "lcp/service/coalesce.h"
#include "lcp/service/plan_cache.h"

namespace lcp {

/// What Submit does when the queue is at max_queue_depth.
enum class ShedPolicy {
  /// Fast-fail the *new* request with kResourceExhausted, without queueing.
  /// The default: admission latency stays microseconds under overload.
  kRejectNew,
  /// Admit the new request and evict the *oldest* queued one, resolving its
  /// future with kResourceExhausted. Prefers fresh work when stale queued
  /// requests have likely outlived their callers.
  kDropOldest,
};

/// How Shutdown treats work that has not completed yet.
enum class ShutdownMode {
  /// Stop admitting, serve everything already queued, then join. The
  /// default, and the destructor's behavior.
  kDrain,
  /// Stop admitting, fail every queued request with kUnavailable, trip the
  /// cancel token of every in-flight request (planning and execution wind
  /// down at their next budget/access poll), then join. The join is bounded
  /// by cooperative cancellation: no new source access starts once the
  /// token is tripped.
  kAbort,
};

/// Construction-time knobs of a QueryService.
struct ServiceOptions {
  /// Fixed worker pool size; at least 1.
  int num_workers = 4;
  PlanCache::Options cache;
  /// Set false to plan every request from scratch (benchmark baseline).
  bool cache_enabled = true;
  /// Template for every planning episode. Its `budget` pointer is ignored:
  /// budgets are per-request (see planning_budget_micros).
  /// `search.parallelism` sets the proof-search workers per planning
  /// episode; the total planning thread count is num_workers *
  /// search.parallelism — keep the product near the core count. Values < 1
  /// are treated as 1. When > 1, the exploration log is disabled on the
  /// template (unsupported under parallel search).
  SearchOptions search;
  /// Execution workers per request (ExecutionOptions::exec_parallelism);
  /// overrides `execution.exec_parallelism`. The total execution thread
  /// count is num_workers * exec_parallelism — keep the product near the
  /// core count. Values < 1 are treated as 1 (the historic single-threaded
  /// engine, byte-identical results either way; see DESIGN.md §13).
  int exec_parallelism = 1;
  /// Template for every execution. Its `clock` is overridden by `clock`
  /// below when null. `execution.engine` selects the execution engine for
  /// all requests: kVectorized (columnar batches, the default) or
  /// kRowOracle (tuple-at-a-time differential oracle) — both are
  /// bit-identical in results and statuses, so the knob only trades speed.
  ExecutionOptions execution;
  /// Per-request planning budget on `clock`; -1 = unlimited. A request that
  /// exhausts it still returns the best plan found so far (anytime), or
  /// kDeadlineExceeded if none was found. An end-to-end request deadline
  /// (QueryRequest::deadline_micros) tightens this further: the effective
  /// planning budget is the smaller of this and the time remaining at
  /// dequeue.
  int64_t planning_budget_micros = -1;
  /// Admission control: maximum number of *queued* (not yet dequeued)
  /// requests; 0 = unbounded (the historic default). When the bound is hit,
  /// `shed_policy` decides who pays.
  size_t max_queue_depth = 0;
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;
  /// Clock for latency accounting, budgets, and execution backoff;
  /// null = process SystemClock.
  Clock* clock = nullptr;
  /// Source-health tracking and alternate-plan failover (DESIGN.md §10).
  /// When true (and the service executes — a source factory was given), the
  /// service maintains a SourceHealthRegistry fed by executor outcomes,
  /// plans around quarantined access methods, re-plans once in-request when
  /// an execution fails with kUnavailable, and replays recovery probes when
  /// quarantine windows expire. False = the historic behavior: failures
  /// surface directly and every request plans over the full method set.
  bool failover_enabled = true;
  /// Knobs of the health registry (EWMA smoothing, quarantine thresholds and
  /// windows). `health.clock` defaults to the service clock when null.
  HealthOptions health;
  /// Run the plan-IR optimizer pipeline (plan/opt/, DESIGN.md §11) on every
  /// freshly planned query before cache admission, so warm hits serve
  /// pre-optimized plans and the admission decision sees the optimized cost.
  /// On by default: optimization is validated per pass, can only lower cost,
  /// and its one-time latency is amortized over every hit. Overrides
  /// `search.optimize_plans`.
  bool optimize_plans = true;
  /// Pass selection and fixpoint bound when optimize_plans is set
  /// (overrides `search.optimizer`).
  plan_opt::OptimizerOptions optimizer;
  /// Crash-safe warm restarts (DESIGN.md §12): when non-empty (and the cache
  /// is enabled), the service loads a plan-cache snapshot from this path at
  /// construction — every loaded plan is CRC-checked, defensively decoded,
  /// and re-validated against the live schema; a corrupt, truncated, or
  /// schema-stale file degrades to a cold start, never an error — and writes
  /// one atomically on Shutdown(kDrain). Empty = no persistence.
  std::string snapshot_path;
  /// When > 0 (and snapshot_path is set), additionally writes a snapshot in
  /// the background roughly every this many clock micros, piggybacked on
  /// request completion (an idle service writes nothing — nothing changed).
  /// 0 = shutdown-only snapshots.
  int64_t snapshot_interval_micros = 0;
  /// Single-flight request coalescing (DESIGN.md §12): concurrent cache
  /// misses on the same canonical fingerprint share one proof search — one
  /// leader plans, followers wait for the published plan and then execute
  /// their own instances under their own deadlines and cancel tokens. Off =
  /// the historic behavior (every miss searches). skip_cache requests always
  /// bypass coalescing: they explicitly demand a fresh search.
  bool coalescing_enabled = true;
};

/// One query-answering request.
struct QueryRequest {
  ConjunctiveQuery query;
  /// False = plan-only (no source access); the response carries the plan.
  bool execute = true;
  /// Overrides ServiceOptions::planning_budget_micros when >= 0.
  int64_t planning_budget_micros = -1;
  /// End-to-end deadline for the whole request, as a budget in clock micros
  /// measured from Submit; -1 = none. Queue wait is *not* free: a request
  /// whose deadline expires while queued is shed as kDeadlineExceeded
  /// without running proof search, and one dequeued with little time left
  /// gets only the remaining time as its planning budget and execution plan
  /// deadline.
  int64_t deadline_micros = -1;
  /// Bypass the plan cache for this request (always re-plan; the result is
  /// still offered to the cache).
  bool skip_cache = false;
};

/// The answer to one request.
struct QueryResponse {
  /// OK when a plan was found (and, if requested, executed). kNotFound when
  /// no plan exists within the access budget; kDeadlineExceeded when the
  /// planning budget or end-to-end deadline expired first; kCancelled when
  /// the request was cancelled; kResourceExhausted when admission control
  /// shed it; kInvalidArgument when the query failed boundary validation;
  /// execution errors propagate as-is.
  Status status;
  /// The plan that was served (null if status is not OK). Shared with the
  /// cache: immutable, safe to hold indefinitely.
  std::shared_ptr<const CachedPlan> plan;
  bool cache_hit = false;
  /// Valid iff `executed`.
  ExecutionResult execution;
  bool executed = false;
  /// Schema epoch the request was served under.
  uint64_t epoch = 0;
  /// True when the served plan is a failover detour: it was planned with one
  /// or more quarantined access methods excluded, so a cheaper primary plan
  /// may exist once the outage heals. The answer itself is exact — degraded
  /// refers to plan cost, not result completeness.
  bool degraded = false;
  /// True when this request's first execution failed with kUnavailable and
  /// the service re-planned around the newly quarantined methods in-request.
  bool failed_over = false;
  /// Per-phase latencies on the service clock.
  int64_t queue_micros = 0;
  int64_t plan_micros = 0;
  int64_t exec_micros = 0;
  /// The planning budget actually granted when a proof search ran
  /// (micros; -1 = unlimited). With an end-to-end deadline this is at most
  /// the time remaining after queue wait — observable proof that queue wait
  /// was charged against the request.
  int64_t planning_budget_micros = -1;
};

/// Lock-free snapshot of service-level counters (cumulative; relaxed reads,
/// monotone but not cross-counter consistent). Cache-level counters live in
/// PlanCacheStats.
///
/// Lifecycle conservation: every submitted request resolves in exactly one
/// of four ways, so after quiescence
///   submitted == completed + rejected + shed + cancelled.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;      ///< Served by a worker (OK or failed).
  uint64_t failed = 0;         ///< Completed with a non-OK status.
  uint64_t rejected = 0;       ///< Fast-failed at the Submit edge (validation,
                               ///< full queue under kRejectNew, shutdown).
  uint64_t shed = 0;           ///< Evicted after queueing (drop-oldest,
                               ///< deadline expired in queue, abort shutdown).
  uint64_t cancelled = 0;      ///< Cancelled while queued (in-flight cancels
                               ///< complete with kCancelled instead).
  uint64_t cache_hits = 0;
  uint64_t searches = 0;       ///< Proof searches actually run.
  uint64_t executions = 0;
  /// Plan-IR optimizer totals over freshly planned queries (zero when
  /// ServiceOptions::optimize_plans is off).
  uint64_t plans_optimized = 0;             ///< Optimizer runs that changed the plan.
  uint64_t optimizer_commands_removed = 0;  ///< Commands eliminated in total.
  uint64_t optimizer_access_commands_removed = 0;
  /// Total cost removed by the optimizer, in 1/1000 cost units (counters are
  /// integers; the shipped cost models are sums of method costs, so
  /// milli-units lose nothing in practice).
  uint64_t optimizer_cost_saved_milli = 0;
  /// Batched-dispatch totals across executions (vectorized and row engines
  /// both dispatch accesses in batches): TryAccessBatch calls issued and
  /// bindings carried by them.
  uint64_t access_batches = 0;
  uint64_t access_bindings = 0;
  /// Morsel-parallel execution totals (DESIGN.md §13): cache-sized morsels
  /// launched and hash-build partitions filled across executions. Zero
  /// under exec_parallelism=1.
  uint64_t exec_morsels = 0;
  uint64_t exec_build_partitions = 0;
  /// Execution workers per request (the configured exec_parallelism).
  uint64_t exec_workers = 0;
  uint64_t epoch_bumps = 0;
  uint64_t queue_depth_high_water = 0;  ///< Deepest queue ever observed.
  /// Source-health and failover counters (zero when failover is disabled).
  uint64_t failovers = 0;           ///< In-request re-plans after kUnavailable.
  uint64_t degraded_responses = 0;  ///< OK responses served by detour plans.
  uint64_t quarantines = 0;         ///< Methods entering quarantine (cumulative).
  uint64_t probes_sent = 0;         ///< Recovery probes replayed against sources.
  uint64_t probes_failed = 0;       ///< Probes that re-armed the quarantine.
  uint64_t recoveries = 0;          ///< Probes that re-admitted a method.
  uint64_t methods_quarantined = 0;  ///< Currently excluded methods (gauge).
  uint64_t availability_epoch = 0;   ///< Current availability epoch (gauge).
  /// Plan-cache persistence counters (all zero when snapshots are disabled).
  uint64_t snapshots_written = 0;
  uint64_t snapshot_write_failures = 0;     ///< I/O failures (non-fatal).
  uint64_t snapshot_entries_persisted = 0;  ///< Entries across all writes.
  uint64_t snapshots_loaded = 0;      ///< Files accepted (header valid).
  uint64_t snapshots_rejected = 0;    ///< Files found but rejected whole
                                      ///< (bad magic/version/schema).
  uint64_t snapshot_entries_loaded = 0;
  uint64_t snapshot_entries_rejected_corrupt = 0;  ///< CRC/frame/decode.
  uint64_t snapshot_entries_rejected_stale = 0;    ///< Failed ValidatePlan.
  /// Single-flight coalescing counters (zero when coalescing is disabled).
  /// Coalition leaders that paid a proof search on behalf of their flight
  /// (a leader whose post-join cache re-check hits is a cache hit instead).
  uint64_t coalesced_leaders = 0;
  /// Requests served by another request's search outcome — a shared plan or
  /// a definite status — with no search of their own. Counted at delivery,
  /// so every completed request lands in exactly one of cache_hits,
  /// searches, or coalesced_followers.
  uint64_t coalesced_followers = 0;
  uint64_t coalition_handoffs = 0;   ///< Followers promoted after the leader
                                     ///< abandoned (cancel/deadline).
  uint64_t coalesced_waiting = 0;    ///< Gauge: followers parked on an
                                     ///< in-flight coalition right now.
  /// Totals for deriving means; on the service clock.
  int64_t queue_micros = 0;
  int64_t plan_micros = 0;
  int64_t exec_micros = 0;
  PlanCacheStats cache;

  double CacheHitRate() const {
    uint64_t lookups = cache.hits + cache.misses;
    return lookups == 0 ? 0.0 : static_cast<double>(cache.hits) / lookups;
  }
};

/// What Submit hands back: the future plus a ticket for Cancel. Tickets are
/// unique for the lifetime of the service and never reused; ticket 0 means
/// the request was rejected at the edge and never entered the queue (its
/// future is already resolved).
struct SubmitHandle {
  uint64_t ticket = 0;
  std::future<QueryResponse> future;
};

/// A concurrent query-answering service: a fixed worker pool that serves
/// plan-then-execute requests end-to-end, amortizing proof search through
/// the canonicalizing PlanCache. This is the serving regime the paper's
/// cost-guided proof search is built for — the expensive reasoning happens
/// once per query *shape* per schema epoch; every α-equivalent request
/// afterwards pays one fingerprint and one cache probe.
///
/// Thread model: Submit is safe from any thread and never blocks on
/// planning; workers pull from a FIFO queue. Each worker owns a private
/// AccessSource built by the factory (sources are stateful and not
/// thread-safe), while the AccessibleSchema, CostFunction, and ProofSearch
/// are shared read-only (ProofSearch::Run is const and re-entrant).
///
/// Request lifecycle (see DESIGN.md §7): a request is *rejected* at the
/// Submit edge (malformed query, full queue under kRejectNew, shutdown),
/// *shed* after queueing (drop-oldest eviction, deadline expired in queue,
/// abort shutdown), *cancelled* while queued, or *completed* by a worker —
/// and its future resolves exactly once with a definite Status in every
/// case, including destruction mid-flight.
///
/// Schema epochs: the service fingerprints the base schema at construction.
/// After mutating the schema or its constraints (which callers must do only
/// while no planning is in flight — the schema itself is not guarded),
/// call RefreshSchema(); if the fingerprint changed, the epoch advances and
/// all cached plans become unreachable (and are eagerly evicted).
class QueryService {
 public:
  /// A factory producing one private AccessSource per worker thread. May be
  /// null when every request is plan-only (execute = false).
  using SourceFactory = std::function<std::unique_ptr<AccessSource>()>;

  /// `accessible` and `cost` must outlive the service.
  QueryService(const AccessibleSchema* accessible, const CostFunction* cost,
               SourceFactory source_factory, ServiceOptions options);

  /// Drains in-flight work and joins the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Validates and enqueues a request; the future resolves when a worker has
  /// served it (or admission control / Cancel / Shutdown resolved it
  /// earlier). Malformed queries (unknown relations, arity mismatches,
  /// unsafe head variables) fast-fail with kInvalidArgument; a full queue
  /// fast-fails with kResourceExhausted under kRejectNew; after Shutdown,
  /// resolves immediately with kFailedPrecondition.
  SubmitHandle Submit(QueryRequest request);

  /// Convenience: Submit + wait.
  QueryResponse Call(QueryRequest request);

  /// Cancels the request behind `ticket`. A still-queued request resolves
  /// immediately with kCancelled (and never reaches a worker); an in-flight
  /// request has its budget's cancel token tripped, so planning and
  /// execution wind down at their next poll point and the future resolves
  /// with kCancelled shortly after. Returns true if the ticket was live
  /// (queued or in flight), false if it is unknown or already resolved.
  bool Cancel(uint64_t ticket);

  /// Re-fingerprints the base schema; if it changed, advances the epoch and
  /// evicts all stale plans. Returns the current epoch. Safe to call
  /// concurrently with Submit, but the *schema mutation itself* must have
  /// happened with planning quiesced (see class comment).
  uint64_t RefreshSchema();

  /// Test/ops hook: unconditionally advances the epoch (as if the schema
  /// changed), invalidating every cached plan. Returns the new epoch.
  uint64_t BumpEpoch();

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  uint64_t schema_fingerprint() const {
    return schema_fingerprint_.load(std::memory_order_acquire);
  }

  /// Lock-free stats snapshot (service counters + cache counters).
  ServiceStats SnapshotStats() const;

  /// Writes a plan-cache snapshot to ServiceOptions::snapshot_path now
  /// (atomically: temp file + fsync + rename). Returns true on success,
  /// false when persistence is disabled or the write failed (counted in
  /// snapshot_write_failures). Safe from any thread; concurrent writers
  /// serialize. Also called automatically on the snapshot interval and on
  /// Shutdown(kDrain).
  bool WriteSnapshot();

  /// Current number of queued (not yet dequeued) requests. Takes the queue
  /// lock; intended for ops probes and tests, not hot paths.
  size_t QueueDepth() const;

  const PlanCache& cache() const { return cache_; }

  /// The source-health registry, or null when failover is disabled or the
  /// service is plan-only. Exposed for tests and ops probes; the registry is
  /// thread-safe.
  const SourceHealthRegistry* health() const { return health_.get(); }

  /// Stops accepting requests and joins the workers. kDrain (default)
  /// serves everything already queued first; kAbort fails queued requests
  /// with kUnavailable and cancels in-flight ones. Idempotent and safe to
  /// call from several threads concurrently: exactly one caller joins, the
  /// others block until the join completes.
  void Shutdown(ShutdownMode mode = ShutdownMode::kDrain);

 private:
  struct Job {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    std::shared_ptr<CancelToken> cancel;
    uint64_t ticket = 0;
    int64_t enqueue_micros = 0;
    /// Absolute end-to-end deadline on the service clock; -1 = none.
    int64_t deadline_at = -1;
    /// Guards against double resolution; ~Job resolves a still-pending
    /// promise with kInternal as a last-resort backstop, so no early-return
    /// path can ever leave a caller blocked on a broken promise.
    bool resolved = false;

    Job() = default;
    Job(Job&&) = default;
    Job& operator=(Job&&) = default;
    ~Job();
  };

  /// Resolves `job`'s promise exactly once (later calls are no-ops).
  static void ResolveJob(Job& job, QueryResponse response);

  /// Boundary validation: a malformed query is a client error reported as
  /// kInvalidArgument at the edge, never an LCP_CHECK crash in the planner.
  Status ValidateRequest(const QueryRequest& request) const;

  void WorkerLoop();
  QueryResponse Serve(const Job& job, AccessSource* source);

  /// The epoch cached plans are keyed under: schema epoch in the high 32
  /// bits, source-availability epoch in the low 32 (DESIGN.md §10). A schema
  /// change or a quarantine/recovery transition each make prior entries
  /// unreachable; the combined value stays monotone, so EvictBelowEpoch
  /// semantics are preserved.
  uint64_t ServingEpoch(uint64_t schema_epoch) const;

  /// Replays due recovery probes (quarantine windows that expired on the
  /// service clock) against this worker's source and reports the outcomes
  /// back to the registry. Called at the top of Serve so the current request
  /// already plans against the post-probe availability mask.
  void RunDueProbes(AccessSource& source);

  /// One planning episode for `fingerprint`: applies the current exclusion
  /// mask, runs proof search under the request's remaining budget, and
  /// offers the plan to the cache under `serving_epoch`. When the exclusion
  /// mask is non-empty and no detour plan exists, falls back to an
  /// unrestricted search iff `allow_primary_fallback` — the resulting
  /// primary plan fails honestly with kUnavailable at execution rather than
  /// reporting a misleading kNotFound. Returns null with `response.status`
  /// set on failure.
  std::shared_ptr<const CachedPlan> PlanAndCache(
      const Job& job, const QueryFingerprint& fingerprint,
      uint64_t serving_epoch, bool allow_primary_fallback,
      QueryResponse& response);

  /// PlanAndCache behind the single-flight coalescer (DESIGN.md §12): joins
  /// or leads the coalition for (fingerprint, serving_epoch). Leaders search
  /// and publish; followers wait, detaching on their own cancel/deadline and
  /// taking over (promotion) when the leader abandons. `serving_epoch` is
  /// a reference because an epoch bump mid-flight re-resolves it. Falls
  /// through to plain PlanAndCache when coalescing is off or the request
  /// skips the cache.
  std::shared_ptr<const CachedPlan> PlanCoalesced(
      const Job& job, const QueryFingerprint& fingerprint,
      uint64_t& serving_epoch, QueryResponse& response);

  /// Loads the snapshot at construction (counters record the outcome; any
  /// corruption degrades to a cold start).
  void LoadSnapshotAtStartup();

  /// Piggybacked on request completion: writes a snapshot when the interval
  /// has elapsed. Exactly one worker wins the due-time CAS; the rest return
  /// immediately.
  void MaybeWriteSnapshot();

  const AccessibleSchema* accessible_;
  const CostFunction* cost_;
  SourceFactory source_factory_;
  ServiceOptions options_;
  Clock* clock_;
  ProofSearch search_;
  PlanCache cache_;
  /// Null when failover is disabled or no source factory was given (plan-only
  /// services have no executor feedback to learn from).
  std::unique_ptr<SourceHealthRegistry> health_;
  RequestCoalescer coalescer_;

  std::atomic<uint64_t> epoch_;
  std::atomic<uint64_t> schema_fingerprint_;
  /// Serializes RefreshSchema/BumpEpoch (epoch reads stay lock-free).
  std::mutex epoch_mutex_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  /// Cancel tokens of dequeued-but-unfinished requests, by ticket; guarded
  /// by queue_mutex_. Cancel and abort shutdown trip tokens through here.
  std::unordered_map<uint64_t, std::shared_ptr<CancelToken>> inflight_;
  uint64_t next_ticket_ = 1;
  bool shutting_down_ = false;
  /// Serializes the join in Shutdown: exactly one caller joins the workers;
  /// concurrent callers block here until it is done (fixes the historic
  /// double-join race).
  std::mutex join_mutex_;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> searches_{0};
  std::atomic<uint64_t> executions_{0};
  std::atomic<uint64_t> access_batches_{0};
  std::atomic<uint64_t> access_bindings_{0};
  std::atomic<uint64_t> exec_morsels_{0};
  std::atomic<uint64_t> exec_build_partitions_{0};
  std::atomic<uint64_t> epoch_bumps_{0};
  std::atomic<uint64_t> plans_optimized_{0};
  std::atomic<uint64_t> optimizer_commands_removed_{0};
  std::atomic<uint64_t> optimizer_access_commands_removed_{0};
  std::atomic<uint64_t> optimizer_cost_saved_milli_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> degraded_responses_{0};
  std::atomic<uint64_t> queue_depth_high_water_{0};
  std::atomic<int64_t> queue_micros_{0};
  std::atomic<int64_t> plan_micros_{0};
  std::atomic<int64_t> exec_micros_{0};

  std::atomic<uint64_t> snapshots_written_{0};
  std::atomic<uint64_t> snapshot_write_failures_{0};
  std::atomic<uint64_t> snapshot_entries_persisted_{0};
  std::atomic<uint64_t> snapshots_loaded_{0};
  std::atomic<uint64_t> snapshots_rejected_{0};
  std::atomic<uint64_t> snapshot_entries_loaded_{0};
  std::atomic<uint64_t> snapshot_entries_rejected_corrupt_{0};
  std::atomic<uint64_t> snapshot_entries_rejected_stale_{0};
  std::atomic<uint64_t> coalesced_leaders_{0};
  std::atomic<uint64_t> coalesced_followers_{0};
  std::atomic<uint64_t> coalition_handoffs_{0};
  /// Next interval snapshot's due time on the service clock; workers race on
  /// a CAS so exactly one pays the write.
  std::atomic<int64_t> next_snapshot_at_{-1};
  /// Serializes snapshot writes (interval + explicit + shutdown).
  std::mutex snapshot_mutex_;
  /// Set once the drain-shutdown snapshot has been written (guarded by
  /// join_mutex_, like the join it rides on).
  bool final_snapshot_written_ = false;
};

}  // namespace lcp

#endif  // LCP_SERVICE_SERVICE_H_
