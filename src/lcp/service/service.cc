#include "lcp/service/service.h"

#include <algorithm>
#include <utility>

#include "lcp/base/strings.h"
#include "lcp/service/canonical.h"
#include "lcp/service/snapshot.h"

namespace lcp {

namespace {

/// Cache entries are keyed by a combined epoch: schema epoch in the high
/// bits, source-availability epoch in the low bits (DESIGN.md §10). The
/// schema epoch advances a handful of times per process lifetime and the
/// availability epoch once per quarantine/recovery transition, so 32 bits
/// each is comfortable headroom.
constexpr int kAvailabilityEpochBits = 32;
constexpr uint64_t kAvailabilityEpochMask =
    (uint64_t{1} << kAvailabilityEpochBits) - 1;

}  // namespace

QueryService::Job::~Job() {
  if (resolved) return;
  // Backstop for the lifecycle invariant "every submitted future resolves
  // exactly once": if some path ever drops a pending job, the caller gets a
  // definite kInternal response instead of a std::future_error. A moved-from
  // or already-satisfied promise throws std::future_error here; both mean
  // there is nothing left to resolve.
  QueryResponse response;
  response.status =
      InternalError("request dropped without a response (service bug)");
  try {
    promise.set_value(std::move(response));
  } catch (const std::future_error&) {
  }
}

void QueryService::ResolveJob(Job& job, QueryResponse response) {
  if (job.resolved) return;
  job.resolved = true;
  job.promise.set_value(std::move(response));
}

QueryService::QueryService(const AccessibleSchema* accessible,
                           const CostFunction* cost,
                           SourceFactory source_factory,
                           ServiceOptions options)
    : accessible_(accessible),
      cost_(cost),
      source_factory_(std::move(source_factory)),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : SystemClock::Instance()),
      search_(accessible, cost),
      cache_(options_.cache),
      epoch_(1),
      schema_fingerprint_(SchemaFingerprint(accessible->base())) {
  // Per-request budgets are armed in Serve; a caller-supplied budget in the
  // template would be shared across threads, which Budget forbids.
  options_.search.budget = nullptr;
  if (options_.search.parallelism < 1) options_.search.parallelism = 1;
  options_.execution.exec_parallelism =
      options_.exec_parallelism < 1 ? 1 : options_.exec_parallelism;
  if (options_.search.parallelism > 1) {
    // Unsupported under parallel search; dropping it here beats failing
    // every request with kInvalidArgument.
    options_.search.collect_exploration_log = false;
  }
  // The service-level optimizer knobs are authoritative: cached plans are
  // optimized once at planning time and served on every later hit.
  options_.search.optimize_plans = options_.optimize_plans;
  options_.search.optimizer = options_.optimizer;
  if (options_.failover_enabled && source_factory_ != nullptr) {
    // Plan-only services get no registry: with no executor feedback there is
    // nothing to learn and no probe to send.
    if (options_.health.clock == nullptr) options_.health.clock = clock_;
    health_ = std::make_unique<SourceHealthRegistry>(&accessible_->base(),
                                                     options_.health);
  }
  // Warm restart: rehydrate the cache before any worker can serve, so the
  // very first request already probes a warmed cache. Corruption of any kind
  // degrades to a cold start (counters record what was rejected).
  LoadSnapshotAtStartup();
  if (!options_.snapshot_path.empty() && options_.cache_enabled &&
      options_.snapshot_interval_micros > 0) {
    next_snapshot_at_.store(
        clock_->NowMicros() + options_.snapshot_interval_micros,
        std::memory_order_relaxed);
  }
  int workers = options_.num_workers < 1 ? 1 : options_.num_workers;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

Status QueryService::ValidateRequest(const QueryRequest& request) const {
  // Schema::ValidateQuery covers unknown relations and arity mismatches;
  // ConjunctiveQuery::Validate (called by it) covers empty bodies and
  // unsafe/repeated head variables. All of it is a client error at this
  // boundary, so the edge reports one canonical code.
  Status status = accessible_->base().ValidateQuery(request.query);
  if (!status.ok()) {
    return InvalidArgumentError(StrCat("invalid query ", request.query.name,
                                       ": ", status.message()));
  }
  return Status::Ok();
}

SubmitHandle QueryService::Submit(QueryRequest request) {
  Job job;
  job.request = std::move(request);
  job.enqueue_micros = clock_->NowMicros();
  job.cancel = std::make_shared<CancelToken>();
  SubmitHandle handle;
  handle.future = job.promise.get_future();
  submitted_.fetch_add(1, std::memory_order_relaxed);

  Status valid = ValidateRequest(job.request);
  if (!valid.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    QueryResponse response;
    response.status = std::move(valid);
    ResolveJob(job, std::move(response));
    return handle;
  }
  if (job.request.deadline_micros >= 0) {
    job.deadline_at = job.enqueue_micros + job.request.deadline_micros;
  }

  Job dropped;
  bool have_dropped = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (shutting_down_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      QueryResponse response;
      response.status =
          FailedPreconditionError("QueryService is shutting down");
      ResolveJob(job, std::move(response));
      return handle;
    }
    if (options_.max_queue_depth > 0 &&
        queue_.size() >= options_.max_queue_depth) {
      if (options_.shed_policy == ShedPolicy::kRejectNew) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        QueryResponse response;
        response.status = ResourceExhaustedError(
            StrCat("queue full (max_queue_depth=", options_.max_queue_depth,
                   "); request rejected"));
        ResolveJob(job, std::move(response));
        return handle;
      }
      dropped = std::move(queue_.front());
      queue_.pop_front();
      have_dropped = true;
    }
    job.ticket = next_ticket_++;
    handle.ticket = job.ticket;
    queue_.push_back(std::move(job));
    const uint64_t depth = queue_.size();
    if (depth > queue_depth_high_water_.load(std::memory_order_relaxed)) {
      queue_depth_high_water_.store(depth, std::memory_order_relaxed);
    }
  }
  if (have_dropped) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    QueryResponse response;
    response.status = ResourceExhaustedError(
        "shed by drop-oldest admission (queue full)");
    response.queue_micros = clock_->NowMicros() - dropped.enqueue_micros;
    ResolveJob(dropped, std::move(response));
  }
  queue_cv_.notify_one();
  return handle;
}

QueryResponse QueryService::Call(QueryRequest request) {
  return Submit(std::move(request)).future.get();
}

bool QueryService::Cancel(uint64_t ticket) {
  if (ticket == 0) return false;
  Job victim;
  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->ticket == ticket) {
        victim = std::move(*it);
        queue_.erase(it);
        queued = true;
        break;
      }
    }
    if (!queued) {
      auto it = inflight_.find(ticket);
      if (it == inflight_.end()) return false;
      // In flight: trip the token; the worker winds down at its next budget
      // or access poll and resolves the future itself (counted as a
      // completed-with-kCancelled request, not as `cancelled`).
      it->second->Cancel(StatusCode::kCancelled);
      return true;
    }
  }
  cancelled_.fetch_add(1, std::memory_order_relaxed);
  QueryResponse response;
  response.status = CancelledError("request cancelled while queued");
  response.queue_micros = clock_->NowMicros() - victim.enqueue_micros;
  ResolveJob(victim, std::move(response));
  return true;
}

uint64_t QueryService::RefreshSchema() {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  uint64_t fingerprint = SchemaFingerprint(accessible_->base());
  if (fingerprint != schema_fingerprint_.load(std::memory_order_relaxed)) {
    schema_fingerprint_.store(fingerprint, std::memory_order_release);
    uint64_t next = epoch_.load(std::memory_order_relaxed) + 1;
    epoch_.store(next, std::memory_order_release);
    epoch_bumps_.fetch_add(1, std::memory_order_relaxed);
    // Entries are keyed by the combined serving epoch, whose high bits are
    // the schema epoch: everything below the new schema epoch's band is
    // stale regardless of availability epoch.
    cache_.EvictBelowEpoch(next << kAvailabilityEpochBits);
    // In-flight coalitions were searching for a dead epoch's plan: wake
    // their followers so each re-plans under the new epoch.
    coalescer_.InvalidateBelow(next << kAvailabilityEpochBits);
  }
  return epoch_.load(std::memory_order_relaxed);
}

uint64_t QueryService::BumpEpoch() {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  uint64_t next = epoch_.load(std::memory_order_relaxed) + 1;
  epoch_.store(next, std::memory_order_release);
  epoch_bumps_.fetch_add(1, std::memory_order_relaxed);
  cache_.EvictBelowEpoch(next << kAvailabilityEpochBits);
  coalescer_.InvalidateBelow(next << kAvailabilityEpochBits);
  return next;
}

uint64_t QueryService::ServingEpoch(uint64_t schema_epoch) const {
  const uint64_t avail =
      health_ != nullptr ? health_->availability_epoch() : 0;
  return (schema_epoch << kAvailabilityEpochBits) |
         (avail & kAvailabilityEpochMask);
}

ServiceStats QueryService::SnapshotStats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.searches = searches_.load(std::memory_order_relaxed);
  s.executions = executions_.load(std::memory_order_relaxed);
  s.access_batches = access_batches_.load(std::memory_order_relaxed);
  s.access_bindings = access_bindings_.load(std::memory_order_relaxed);
  s.exec_morsels = exec_morsels_.load(std::memory_order_relaxed);
  s.exec_build_partitions =
      exec_build_partitions_.load(std::memory_order_relaxed);
  s.exec_workers =
      static_cast<uint64_t>(options_.execution.exec_parallelism);
  s.epoch_bumps = epoch_bumps_.load(std::memory_order_relaxed);
  s.plans_optimized = plans_optimized_.load(std::memory_order_relaxed);
  s.optimizer_commands_removed =
      optimizer_commands_removed_.load(std::memory_order_relaxed);
  s.optimizer_access_commands_removed =
      optimizer_access_commands_removed_.load(std::memory_order_relaxed);
  s.optimizer_cost_saved_milli =
      optimizer_cost_saved_milli_.load(std::memory_order_relaxed);
  s.queue_depth_high_water =
      queue_depth_high_water_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.degraded_responses = degraded_responses_.load(std::memory_order_relaxed);
  if (health_ != nullptr) {
    const HealthStats health = health_->stats();
    s.quarantines = health.quarantines;
    s.probes_sent = health.probes_sent;
    s.probes_failed = health.probes_failed;
    s.recoveries = health.recoveries;
    s.methods_quarantined = health_->NumQuarantined();
    s.availability_epoch = health_->availability_epoch();
  }
  s.snapshots_written = snapshots_written_.load(std::memory_order_relaxed);
  s.snapshot_write_failures =
      snapshot_write_failures_.load(std::memory_order_relaxed);
  s.snapshot_entries_persisted =
      snapshot_entries_persisted_.load(std::memory_order_relaxed);
  s.snapshots_loaded = snapshots_loaded_.load(std::memory_order_relaxed);
  s.snapshots_rejected = snapshots_rejected_.load(std::memory_order_relaxed);
  s.snapshot_entries_loaded =
      snapshot_entries_loaded_.load(std::memory_order_relaxed);
  s.snapshot_entries_rejected_corrupt =
      snapshot_entries_rejected_corrupt_.load(std::memory_order_relaxed);
  s.snapshot_entries_rejected_stale =
      snapshot_entries_rejected_stale_.load(std::memory_order_relaxed);
  s.coalesced_leaders = coalesced_leaders_.load(std::memory_order_relaxed);
  s.coalesced_followers = coalesced_followers_.load(std::memory_order_relaxed);
  s.coalition_handoffs = coalition_handoffs_.load(std::memory_order_relaxed);
  s.coalesced_waiting = coalescer_.waiting();
  s.queue_micros = queue_micros_.load(std::memory_order_relaxed);
  s.plan_micros = plan_micros_.load(std::memory_order_relaxed);
  s.exec_micros = exec_micros_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  return s;
}

void QueryService::LoadSnapshotAtStartup() {
  if (options_.snapshot_path.empty() || !options_.cache_enabled) return;
  const SnapshotLoadStats loaded = LoadSnapshotFile(
      options_.snapshot_path, schema_fingerprint_.load(std::memory_order_relaxed),
      accessible_->base(), ServingEpoch(epoch_.load(std::memory_order_relaxed)),
      cache_);
  if (!loaded.found) return;  // Cold start: no file yet (or unreadable).
  if (!loaded.header_ok) {
    // Wrong magic/version or a different schema: the whole file is useless,
    // but that is a normal cold start, not an error.
    snapshots_rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  snapshots_loaded_.fetch_add(1, std::memory_order_relaxed);
  snapshot_entries_loaded_.fetch_add(loaded.entries_loaded,
                                     std::memory_order_relaxed);
  snapshot_entries_rejected_corrupt_.fetch_add(loaded.entries_rejected_corrupt,
                                               std::memory_order_relaxed);
  snapshot_entries_rejected_stale_.fetch_add(loaded.entries_rejected_stale,
                                             std::memory_order_relaxed);
}

bool QueryService::WriteSnapshot() {
  if (options_.snapshot_path.empty() || !options_.cache_enabled) return false;
  // One writer at a time; the rename at the end is atomic, so a reader (a
  // restarting process) always sees a complete file.
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  SnapshotWriteStats stats;
  const Status status = WriteSnapshotFile(
      options_.snapshot_path, cache_.Entries(),
      ServingEpoch(epoch_.load(std::memory_order_acquire)),
      schema_fingerprint_.load(std::memory_order_acquire), &stats);
  if (!status.ok()) {
    snapshot_write_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  snapshots_written_.fetch_add(1, std::memory_order_relaxed);
  snapshot_entries_persisted_.fetch_add(stats.entries_persisted,
                                        std::memory_order_relaxed);
  return true;
}

void QueryService::MaybeWriteSnapshot() {
  int64_t due = next_snapshot_at_.load(std::memory_order_relaxed);
  if (due < 0) return;  // Interval snapshots disabled.
  const int64_t now = clock_->NowMicros();
  if (now < due) return;
  // The CAS elects exactly one writer per interval; losers see a future due
  // time and return without touching the snapshot mutex.
  if (!next_snapshot_at_.compare_exchange_strong(
          due, now + options_.snapshot_interval_micros,
          std::memory_order_relaxed)) {
    return;
  }
  WriteSnapshot();
}

size_t QueryService::QueueDepth() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

void QueryService::Shutdown(ShutdownMode mode) {
  std::vector<Job> aborted;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    shutting_down_ = true;
    if (mode == ShutdownMode::kAbort) {
      while (!queue_.empty()) {
        aborted.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      // In-flight requests wind down cooperatively: their budgets and the
      // executor's access loop poll the token, so no new source access
      // starts after this point — that is what bounds the join below.
      for (auto& entry : inflight_) {
        entry.second->Cancel(StatusCode::kUnavailable);
      }
    }
  }
  for (Job& job : aborted) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    QueryResponse response;
    response.status =
        UnavailableError("service shut down before the request was served");
    response.queue_micros = clock_->NowMicros() - job.enqueue_micros;
    ResolveJob(job, std::move(response));
  }
  queue_cv_.notify_all();
  // Exactly one caller joins the workers; concurrent callers block here
  // until the join completes (a second joiner racing the first on the same
  // std::thread objects is undefined behavior).
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Drain shutdown persists the final cache state exactly once, after the
  // workers are quiescent — the snapshot sees everything the last request
  // planned. Abort shutdown skips it: an abort is for getting out fast, and
  // the previous interval/drain snapshot is still on disk and still valid.
  // The flag also settles the decision for the destructor's implicit drain,
  // so an explicit abort is never overruled by a later Shutdown() call.
  if (!final_snapshot_written_) {
    final_snapshot_written_ = true;
    if (mode == ShutdownMode::kDrain && !options_.snapshot_path.empty() &&
        options_.cache_enabled) {
      WriteSnapshot();
    }
  }
}

void QueryService::WorkerLoop() {
  // Each worker owns a private source: AccessSource implementations keep
  // per-connection state (lazy indexes, accounting) and are not thread-safe.
  std::unique_ptr<AccessSource> source;
  if (source_factory_ != nullptr) source = source_factory_();
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Shutting down and drained (or aborted).
      job = std::move(queue_.front());
      queue_.pop_front();
      // Registered under the same lock as the dequeue, so Cancel and abort
      // shutdown always find a live request either queued or in flight —
      // never in between.
      inflight_[job.ticket] = job.cancel;
    }
    const int64_t now = clock_->NowMicros();
    QueryResponse response;
    if (job.deadline_at >= 0 && now >= job.deadline_at) {
      // Expired while queued: shed without planning. The `searches` counter
      // must not move for these — queue wait is never free, and overload
      // must not buy proof searches nobody is waiting for.
      shed_.fetch_add(1, std::memory_order_relaxed);
      response.status = DeadlineExceededError(
          StrCat("deadline expired after ", now - job.enqueue_micros,
                 "us in queue; shed without planning"));
      response.epoch = epoch_.load(std::memory_order_acquire);
      response.queue_micros = now - job.enqueue_micros;
    } else {
      response = Serve(job, source.get());
    }
    // Interval snapshots piggyback on request completion: an idle service
    // writes nothing (its cache is not changing), and no dedicated thread is
    // needed. The due check is one relaxed load on the common path.
    MaybeWriteSnapshot();
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      inflight_.erase(job.ticket);
    }
    // Resolve last: once a caller's future is ready, every effect of its
    // request (stats, the snapshot its completion made due, leaving the
    // in-flight set) is already visible.
    ResolveJob(job, std::move(response));
  }
}

void QueryService::RunDueProbes(AccessSource& source) {
  for (const SourceHealthRegistry::Probe& probe : health_->TakeDueProbes()) {
    // Replay the last binding that actually failed on the method (half-open
    // semantics: the registry admits one probe per expired window). Success
    // re-admits the method and bumps the availability epoch; failure re-arms
    // the quarantine with a backed-off window.
    Result<AccessOutcome> outcome =
        source.TryAccess(probe.method, probe.binding);
    if (outcome.ok()) {
      health_->RecordSuccess(probe.method);
    } else {
      health_->RecordFailure(probe.method, probe.binding);
    }
  }
}

std::shared_ptr<const CachedPlan> QueryService::PlanAndCache(
    const Job& job, const QueryFingerprint& fingerprint,
    uint64_t serving_epoch, bool allow_primary_fallback,
    QueryResponse& response) {
  const QueryRequest& request = job.request;
  std::vector<AccessMethodId> excluded;
  if (health_ != nullptr) excluded = health_->ExcludedMethods();
  bool detour = !excluded.empty();
  for (;;) {
    searches_.fetch_add(1, std::memory_order_relaxed);
    SearchOptions search_options = options_.search;
    if (detour) search_options.excluded_methods = excluded;
    Budget budget;
    budget.set_cancel_token(job.cancel.get());
    // The planning budget is the smaller of the configured per-request
    // budget and the time remaining under the end-to-end deadline: queue
    // wait (and, on a failover re-plan, the failed execution) has already
    // been charged against the request.
    int64_t budget_micros = request.planning_budget_micros >= 0
                                ? request.planning_budget_micros
                                : options_.planning_budget_micros;
    if (job.deadline_at >= 0) {
      const int64_t remaining =
          std::max<int64_t>(job.deadline_at - clock_->NowMicros(), 0);
      budget_micros = budget_micros < 0 ? remaining
                                        : std::min(budget_micros, remaining);
    }
    if (budget_micros >= 0) budget.SetDeadline(clock_, budget_micros);
    response.planning_budget_micros = budget_micros;
    search_options.budget = &budget;
    Result<SearchOutcome> outcome = search_.Run(request.query, search_options);
    if (job.cancel != nullptr && job.cancel->cancelled()) {
      // Cancelled mid-planning: discard any best-so-far plan — the caller
      // no longer wants it, and a truncated search must not poison the
      // cache.
      response.status =
          Status(job.cancel->code(), "request cancelled during planning");
      return nullptr;
    }
    if (!outcome.ok()) {
      response.status = outcome.status();
      return nullptr;
    }
    if (!outcome->best.has_value()) {
      if (detour && allow_primary_fallback && outcome->exhaustion.ok()) {
        // Provably no plan avoids the quarantined methods. Re-plan over the
        // full method set: the primary plan fails with an honest
        // kUnavailable at execution instead of a misleading kNotFound, and
        // keeps failing fast from the cache until a probe heals the outage.
        detour = false;
        continue;
      }
      // Distinguish "provably no plan" from "budget ran out first".
      response.status = outcome->exhaustion.ok()
                            ? NotFoundError(StrCat(
                                  "no plan with at most ",
                                  search_options.max_access_commands,
                                  " access commands answers ",
                                  request.query.name))
                            : outcome->exhaustion;
      return nullptr;
    }
    if (outcome->optimized && outcome->optimize.changed) {
      plans_optimized_.fetch_add(1, std::memory_order_relaxed);
      optimizer_commands_removed_.fetch_add(
          static_cast<uint64_t>(outcome->optimize.commands_before -
                                outcome->optimize.commands_after),
          std::memory_order_relaxed);
      optimizer_access_commands_removed_.fetch_add(
          static_cast<uint64_t>(outcome->optimize.access_commands_before -
                                outcome->optimize.access_commands_after),
          std::memory_order_relaxed);
      const double saved =
          outcome->optimize.cost_before - outcome->optimize.cost_after;
      if (saved > 0) {
        optimizer_cost_saved_milli_.fetch_add(
            static_cast<uint64_t>(saved * 1000.0 + 0.5),
            std::memory_order_relaxed);
      }
    }
    if (options_.cache_enabled) {
      // Offered even for skip_cache requests: a freshly planned result can
      // still serve future hits. Cost-aware admission keeps the cheapest.
      return cache_.Insert(fingerprint, serving_epoch,
                           std::move(outcome->best->plan),
                           outcome->best->cost, detour);
    }
    return std::make_shared<const CachedPlan>(
        CachedPlan{fingerprint, serving_epoch, std::move(outcome->best->plan),
                   outcome->best->cost, detour});
  }
}

std::shared_ptr<const CachedPlan> QueryService::PlanCoalesced(
    const Job& job, const QueryFingerprint& fingerprint,
    uint64_t& serving_epoch, QueryResponse& response) {
  if (!options_.coalescing_enabled || job.request.skip_cache) {
    return PlanAndCache(job, fingerprint, serving_epoch,
                        /*allow_primary_fallback=*/true, response);
  }
  // Outer loop: one iteration per coalition joined. Re-entered only when an
  // epoch bump invalidated the previous coalition mid-wait; the bound is a
  // backstop against pathological epoch churn, after which the request
  // plans solo rather than spinning.
  for (int round = 0; round < 16; ++round) {
    RequestCoalescer::Ticket ticket =
        coalescer_.JoinOrLead(fingerprint.key, serving_epoch);
    bool act_as_leader = ticket.leader;
    bool invalidated = false;
    while (!act_as_leader) {
      RequestCoalescer::WaitResult wait =
          coalescer_.Wait(ticket.flight, [&]() {
            if (job.cancel != nullptr && job.cancel->cancelled()) return true;
            return job.deadline_at >= 0 &&
                   clock_->NowMicros() >= job.deadline_at;
          });
      switch (wait.outcome) {
        case RequestCoalescer::Outcome::kPlan:
          // The leader's search fed this request; the follower now executes
          // its own instance of the shared plan under its own deadline.
          coalesced_followers_.fetch_add(1, std::memory_order_relaxed);
          return wait.plan;
        case RequestCoalescer::Outcome::kStatus:
          // A definite property of the query (e.g. no plan exists), not of
          // the leader's request: honest to propagate without re-searching.
          coalesced_followers_.fetch_add(1, std::memory_order_relaxed);
          response.status = wait.status;
          return nullptr;
        case RequestCoalescer::Outcome::kDetached:
          response.status =
              (job.cancel != nullptr && job.cancel->cancelled())
                  ? Status(job.cancel->code(),
                           "request cancelled while waiting for coalesced "
                           "plan")
                  : DeadlineExceededError(
                        "deadline expired while waiting for coalesced plan");
          return nullptr;
        case RequestCoalescer::Outcome::kInvalidated:
          invalidated = true;
          break;
        case RequestCoalescer::Outcome::kPromoted:
          coalition_handoffs_.fetch_add(1, std::memory_order_relaxed);
          // Promotion hands this follower the leader obligations — but its
          // own cancel/deadline may be why it woke. A dead promotee hands
          // off again immediately instead of searching for nobody.
          if (job.cancel != nullptr && job.cancel->cancelled()) {
            coalescer_.Abandon(ticket.flight);
            response.status = Status(job.cancel->code(),
                                     "request cancelled while coalesced");
            return nullptr;
          }
          if (job.deadline_at >= 0 &&
              clock_->NowMicros() >= job.deadline_at) {
            coalescer_.Abandon(ticket.flight);
            response.status = DeadlineExceededError(
                "deadline expired while waiting for coalesced plan");
            return nullptr;
          }
          act_as_leader = true;
          break;
      }
      if (invalidated) break;
    }
    if (invalidated) {
      // The serving epoch moved while we waited; whatever the old leader
      // finds can no longer serve. Re-resolve and re-join under the new
      // epoch (the cache re-check below covers a plan already landed there).
      response.epoch = epoch_.load(std::memory_order_acquire);
      serving_epoch = ServingEpoch(response.epoch);
      continue;
    }
    // Leader path. Between this request's cache miss and its join, a
    // previous coalition may have resolved and dissolved — re-check the
    // cache before paying a search, and feed any hit to our followers.
    if (options_.cache_enabled) {
      std::shared_ptr<const CachedPlan> cached =
          cache_.Lookup(fingerprint, serving_epoch, /*count_stats=*/false);
      if (cached != nullptr) {
        response.cache_hit = true;
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        coalescer_.PublishPlan(ticket.flight, cached);
        return cached;
      }
    }
    coalesced_leaders_.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<const CachedPlan> plan =
        PlanAndCache(job, fingerprint, serving_epoch,
                     /*allow_primary_fallback=*/true, response);
    if (plan != nullptr) {
      coalescer_.PublishPlan(ticket.flight, plan);
      return plan;
    }
    // Leader-specific aborts (this request's cancel or budget/deadline) say
    // nothing about the query — hand the search to a follower. Everything
    // else (kNotFound, kInvalidArgument, internal errors) is a definite
    // outcome every follower should share.
    const StatusCode code = response.status.code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kDeadlineExceeded) {
      coalescer_.Abandon(ticket.flight);
    } else {
      coalescer_.PublishStatus(ticket.flight, response.status);
    }
    return nullptr;
  }
  return PlanAndCache(job, fingerprint, serving_epoch,
                      /*allow_primary_fallback=*/true, response);
}

QueryResponse QueryService::Serve(const Job& job, AccessSource* source) {
  const QueryRequest& request = job.request;
  QueryResponse response;
  const int64_t start = clock_->NowMicros();
  response.queue_micros = start - job.enqueue_micros;
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  response.epoch = epoch;

  // A cancellation (or abort shutdown) that raced the dequeue: resolve
  // without planning.
  if (job.cancel != nullptr && job.cancel->cancelled()) {
    response.status =
        Status(job.cancel->code(), "request abandoned before planning began");
  }

  // Recovery probes run before the epoch-keyed cache lookup, so this very
  // request already plans against the post-probe availability mask (a healed
  // method's cheap plan wins immediately). The lock-free gauge keeps the
  // healthy path at one relaxed load.
  if (response.status.ok() && health_ != nullptr && source != nullptr &&
      health_->NumQuarantined() > 0) {
    RunDueProbes(*source);
  }
  uint64_t serving_epoch = ServingEpoch(epoch);

  std::shared_ptr<const CachedPlan> plan;
  QueryFingerprint fingerprint;
  const bool lookup_cache = options_.cache_enabled && !request.skip_cache;
  if (response.status.ok()) {
    fingerprint = CanonicalizeQuery(request.query);
    if (lookup_cache) plan = cache_.Lookup(fingerprint, serving_epoch);
    if (plan != nullptr) {
      response.cache_hit = true;
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      plan = PlanCoalesced(job, fingerprint, serving_epoch, response);
    }
  }
  const int64_t planned = clock_->NowMicros();
  response.plan_micros = planned - start;

  if (response.status.ok() && plan != nullptr) {
    response.plan = plan;
    if (request.execute) {
      if (source == nullptr) {
        response.status = FailedPreconditionError(
            "execute requested but the service has no source factory");
      } else {
        for (int attempt = 0;; ++attempt) {
          ExecutionOptions exec_options = options_.execution;
          if (exec_options.clock == nullptr) exec_options.clock = clock_;
          exec_options.cancel = job.cancel.get();
          if (health_ != nullptr) exec_options.health = health_.get();
          if (job.deadline_at >= 0) {
            // Execution gets only what the end-to-end deadline has left.
            const int64_t remaining =
                std::max<int64_t>(job.deadline_at - clock_->NowMicros(), 0);
            int64_t& plan_deadline = exec_options.retry.plan_deadline_micros;
            plan_deadline = plan_deadline < 0
                                ? remaining
                                : std::min(plan_deadline, remaining);
          }
          Result<ExecutionResult> run =
              ExecutePlan(plan->plan, *source, exec_options);
          if (job.cancel != nullptr && job.cancel->cancelled()) {
            // Cancelled mid-execution: even if the plan happened to finish,
            // the caller no longer wants the answer — report the token's
            // status so cancellation is observable deterministically.
            response.status = Status(job.cancel->code(),
                                     "request cancelled during execution");
            break;
          }
          if (run.ok()) {
            response.execution = std::move(run).value();
            response.executed = true;
            executions_.fetch_add(1, std::memory_order_relaxed);
            access_batches_.fetch_add(response.execution.exec.access_batches,
                                      std::memory_order_relaxed);
            access_bindings_.fetch_add(response.execution.exec.access_bindings,
                                       std::memory_order_relaxed);
            exec_morsels_.fetch_add(response.execution.exec.morsels,
                                    std::memory_order_relaxed);
            exec_build_partitions_.fetch_add(
                response.execution.exec.parallel_build_partitions,
                std::memory_order_relaxed);
            break;
          }
          // Failover (DESIGN.md §10): at most one in-request re-plan, only
          // for kUnavailable, and only when the failed execution actually
          // changed the availability mask (the executor's health feedback
          // quarantined something) — under an unchanged mask a re-plan would
          // rebuild the same plan.
          if (attempt > 0 || health_ == nullptr ||
              run.status().code() != StatusCode::kUnavailable ||
              ServingEpoch(epoch) == serving_epoch) {
            response.status = run.status();
            break;
          }
          const Status primary_failure = run.status();
          serving_epoch = ServingEpoch(epoch);
          failovers_.fetch_add(1, std::memory_order_relaxed);
          response.failed_over = true;
          std::shared_ptr<const CachedPlan> fallback;
          if (lookup_cache) fallback = cache_.Lookup(fingerprint, serving_epoch);
          if (fallback == nullptr) {
            fallback = PlanAndCache(job, fingerprint, serving_epoch,
                                    /*allow_primary_fallback=*/false, response);
          }
          if (fallback == nullptr) {
            // No detour exists: the original execution failure is the honest
            // answer (a re-plan kNotFound would read as "the query has no
            // plan"). Cancellation and budget expiry keep their own codes.
            if (response.status.code() == StatusCode::kNotFound) {
              response.status = primary_failure;
            }
            break;
          }
          plan = fallback;
          response.plan = plan;
        }
      }
      response.exec_micros = clock_->NowMicros() - planned;
    }
  }

  // A detour plan answers exactly, just possibly at higher cost than the
  // quarantined primary — mark the response so callers and stats can see it.
  if (response.status.ok() && response.plan != nullptr &&
      response.plan->detour) {
    response.degraded = true;
    degraded_responses_.fetch_add(1, std::memory_order_relaxed);
  }

  completed_.fetch_add(1, std::memory_order_relaxed);
  if (!response.status.ok()) failed_.fetch_add(1, std::memory_order_relaxed);
  queue_micros_.fetch_add(response.queue_micros, std::memory_order_relaxed);
  plan_micros_.fetch_add(response.plan_micros, std::memory_order_relaxed);
  exec_micros_.fetch_add(response.exec_micros, std::memory_order_relaxed);
  return response;
}

}  // namespace lcp
