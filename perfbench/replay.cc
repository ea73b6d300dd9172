#include "replay.h"

#include <chrono>
#include <fstream>
#include <memory>

#include "lcp/plan/opt/pass_manager.h"
#include "lcp/runtime/executor.h"
#include "lcp/runtime/source.h"
#include "lcp/service/canonical.h"
#include "lcp/service/plan_cache.h"

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Records spans into memory; a disabled tracer records nothing, so the
/// untraced replay runs the same code without the bookkeeping.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request_;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(span);
    open_.push_back(index);
    spans_.back().start_ns = NowNs();
    return index;
  }

  void End(int index) {
    if (index < 0) return;
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  void set_request(int request) { request_ = request; }
  std::vector<Span> TakeSpans() { return std::move(spans_); }

 private:
  bool enabled_;
  int request_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Times every source call as a "source" span, a child of the executor's
/// span, and forwards it unchanged.
class TimedSource : public lcp::AccessSource {
 public:
  TimedSource(lcp::AccessSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  lcp::Result<lcp::AccessOutcome> TryAccess(lcp::AccessMethodId method,
                                            const lcp::Tuple& inputs) override {
    ScopedSpan span(tracer_, "source");
    return inner_.TryAccess(method, inputs);
  }

  void TryAccessBatch(lcp::AccessMethodId method,
                      const std::vector<lcp::Tuple>& bindings,
                      std::vector<lcp::BatchEntryOutcome>& outcomes) override {
    ScopedSpan span(tracer_, "source");
    inner_.TryAccessBatch(method, bindings, outcomes);
  }

  const lcp::Schema& schema() const override { return inner_.schema(); }

 private:
  lcp::AccessSource& inner_;
  Tracer& tracer_;
};

void Add(lcp::SearchStats& total, const lcp::SearchStats& s) {
  total.nodes_created += s.nodes_created;
  total.nodes_expanded += s.nodes_expanded;
  total.pruned_cost += s.pruned_cost;
  total.pruned_dominance += s.pruned_dominance;
  total.root_chase_firings += s.root_chase_firings;
  total.closure_firings += s.closure_firings;
}

void Add(lcp::ExecStats& total, const lcp::ExecStats& s) {
  total.rows_in += s.rows_in;
  total.rows_out += s.rows_out;
  total.probe_hits += s.probe_hits;
  total.dedup_drops += s.dedup_drops;
  total.access_batches += s.access_batches;
  total.access_bindings += s.access_bindings;
}

}  // namespace

ReplayResult Replay(const Workload& workload,
                    const std::vector<Request>& sample,
                    const std::vector<size_t>& oracle_rows, bool traced) {
  ReplayResult result;
  ReplayCounts& counts = result.counts;
  Tracer tracer(traced);
  lcp::PlanCache cache(lcp::PlanCache::Options{});
  const lcp::ProofSearch search(workload.accessible.get(), workload.cost.get());
  const lcp::SearchOptions search_options;  // Optimizer off: timed apart.
  const lcp::plan_opt::PassManager optimizer;
  std::unique_ptr<lcp::SimulatedSource> simulated;
  std::unique_ptr<TimedSource> timed;
  lcp::AccessSource* source = nullptr;
  if (workload.execute) {
    simulated = std::make_unique<lcp::SimulatedSource>(
        workload.schema.get(), workload.instance.get());
    timed = std::make_unique<TimedSource>(*simulated, tracer);
    source = traced ? static_cast<lcp::AccessSource*>(timed.get())
                    : simulated.get();
  }
  const lcp::ExecutionOptions exec_options;

  const int64_t start = NowNs();
  for (size_t i = 0; i < sample.size(); ++i) {
    const Request& request = sample[i];
    tracer.set_request(static_cast<int>(i));
    ScopedSpan root(tracer, "request");
    ++counts.requests;
    lcp::QueryFingerprint fingerprint;
    {
      ScopedSpan span(tracer, "canonicalize");
      fingerprint = lcp::CanonicalizeQuery(request.query);
    }
    std::shared_ptr<const lcp::CachedPlan> plan;
    {
      ScopedSpan span(tracer, "cache_lookup");
      plan = cache.Lookup(fingerprint, 0);
    }
    if (plan == nullptr) {
      lcp::Result<lcp::SearchOutcome> outcome = lcp::InternalError("unset");
      {
        ScopedSpan span(tracer, "search");
        outcome = search.Run(request.query, search_options);
      }
      if (!outcome.ok() || !outcome->best.has_value()) {
        ++result.wrong;
        continue;
      }
      ++counts.searches;
      Add(counts.search, outcome->stats);
      lcp::Plan best = std::move(outcome->best->plan);
      double cost = 0;
      {
        ScopedSpan span(tracer, "optimize");
        lcp::plan_opt::OptimizeStats stats;
        lcp::Result<lcp::Plan> optimized = optimizer.Optimize(
            best, workload.accessible->base(), *workload.cost, &stats);
        if (optimized.ok()) {
          best = std::move(optimized).value();
          ++counts.plans_optimized;
          counts.commands_removed +=
              stats.commands_before - stats.commands_after;
        }
        cost = workload.cost->Cost(best);
      }
      {
        ScopedSpan span(tracer, "cache_insert");
        plan = cache.Insert(fingerprint, 0, std::move(best), cost);
      }
      result.plan_costs.emplace(fingerprint.key,
                                std::make_pair(plan->cost, request.query));
    }
    if (!workload.execute) continue;
    lcp::Result<lcp::ExecutionResult> run = lcp::InternalError("unset");
    {
      ScopedSpan span(tracer, "execute");
      run = lcp::ExecutePlan(plan->plan, *source, exec_options);
    }
    if (!run.ok() || run->output.size() != oracle_rows[request.shape]) {
      ++result.wrong;
      continue;
    }
    ++counts.executions;
    Add(counts.exec, run->exec);
    counts.source_calls += run->source_calls;
    counts.output_rows += run->output.size();
  }
  result.total_ns = NowNs() - start;
  result.spans = tracer.TakeSpans();
  return result;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"request\":" << s.request << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns - origin
        << ",\"end_ns\":" << s.end_ns - origin << ",\"parent\":" << s.parent
        << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
