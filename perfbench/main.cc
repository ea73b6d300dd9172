// End-to-end QueryService benchmark: the perfbench binary.
//
//   perfbench --workload <warm_small|cold_search|warm_large> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-dir <dir>]
//
// One run: set the workload up several times (median = setup_s), verify
// every distinct shape's served answer against an oracle that does not use
// the plan executor, then drive the service for --seconds with 4
// closed-loop clients. --trace 1 additionally replays a seeded sample
// serially through the layers' entry points (replay.h) and reports the
// per-layer metrics instead of the end-to-end ones. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit code 0 = every answer verified; 1 = a wrong answer; 2 = bad usage
// or a non-optimized build.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lcp/service/service.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kClients = 4;
constexpr size_t kMinSetupRepeats = 7;
constexpr size_t kMaxSetupRepeats = 25;
constexpr double kSetupBudgetS = 3.0;
constexpr int64_t kMinSelectedRequests = 1000;
/// The timed phase is split into one-second windows, or into this many
/// longer ones.
constexpr int kMaxWindows = 60;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir = ".";
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Host counters read at a window boundary of the timed phase.
struct HostSample {
  /// All CPUs' jiffies since boot, and the share of them the hypervisor
  /// spent running other guests (steal), from /proc/stat; 0 if unreadable.
  double total_jiffies = 0;
  double steal_jiffies = 0;
  /// This process's user + system CPU time.
  double cpu_us = 0;
};

HostSample SampleHost() {
  HostSample sample;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double field = 0;
  for (int i = 0; i < 8 && in >> field; ++i) {
    sample.total_jiffies += field;
    if (i == 7) sample.steal_jiffies = field;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  sample.cpu_us = (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e6 +
                  usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
  return sample;
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double one = 0, five = 0, fifteen = 0;
  in >> one >> five >> fifteen;
  std::ostringstream out;
  out << "[" << one << ", " << five << ", " << fifteen << "]";
  return out.str();
}

/// Log-linear histogram of nanosecond values: exact below 256 ns, then 128
/// buckets per power of two. A percentile interpolates linearly inside its
/// bucket, so it is within 0.8% of the exact sample and still varies
/// continuously from run to run. Its memory is constant: the benchmark's
/// own footprint (part of peak_rss_mb) must not grow with throughput.
class Histogram {
 public:
  void Add(int64_t ns) {
    ++buckets_[Index(ns < 0 ? 0 : static_cast<uint64_t>(ns))];
    ++count_;
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// Nearest-rank percentile q in (0, 1], in microseconds.
  double PercentileUs(double q) const {
    if (count_ == 0) return 0;
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
    uint64_t seen = 0;
    size_t i = 0;
    while (seen + buckets_[i] < rank) seen += buckets_[i++];
    const double within = (rank - seen - 0.5) / buckets_[i];
    const int shift = i < 2 * kSub ? 0 : static_cast<int>(i / kSub) - 1;
    const double low = static_cast<double>((i - shift * kSub) << shift);
    return (low + within * static_cast<double>(uint64_t{1} << shift)) / 1000;
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;

  static size_t Index(uint64_t v) {
    if (v < 2 * kSub) return static_cast<size_t>(v);
    const int shift = 63 - __builtin_clzll(v) - kSubBits;
    return static_cast<size_t>(shift) * kSub + (v >> shift);
  }

  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(64 * kSub, 0);
  uint64_t count_ = 0;
};

/// One window of the timed phase: the requests that completed in it.
struct Window {
  int64_t completed = 0;
  int64_t ok = 0;
  Histogram latency;
};

/// What the clients observed: client-side Call() latency and the response's
/// own per-phase micros, plus the overhead neither phase accounts for.
struct LoadResult {
  Histogram queue;
  Histogram plan;
  Histogram overhead;
  std::vector<Window> windows;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  std::string first_failure;
};

/// When a load phase stops: at `deadline_ns` (if >= 0) or after
/// `max_requests` per client (if >= 0). A timed phase also splits
/// [origin_ns, deadline_ns) into `windows` equal windows.
struct Phase {
  int64_t origin_ns = 0;
  int64_t deadline_ns = -1;
  int64_t max_requests = -1;
  int windows = 0;

  int64_t window_ns() const {
    return windows > 0 ? (deadline_ns - origin_ns) / windows : 1;
  }
};

/// A closed-loop client: sends its next request only after the previous one
/// returned. Checks status and, when `expected_rows` is given, the answer's
/// row count; plan-only requests are checked against the optimal plan cost.
LoadResult RunClient(lcp::QueryService& service, const Workload& workload,
                     uint64_t stream_seed, const Phase& phase,
                     const std::vector<size_t>* expected_rows) {
  LoadResult result;
  result.windows.resize(phase.windows);
  RequestStream stream(workload, stream_seed);
  while ((phase.max_requests < 0 || result.attempted < phase.max_requests) &&
         (phase.deadline_ns < 0 || NowNs() < phase.deadline_ns)) {
    Request request = stream.Next();
    lcp::QueryRequest call;
    call.query = std::move(request.query);
    call.execute = workload.execute;
    const int64_t start = NowNs();
    lcp::QueryResponse response = service.Call(std::move(call));
    const int64_t end = NowNs();
    ++result.attempted;
    const int64_t phases_ns = 1000 * (response.queue_micros +
                                      response.plan_micros +
                                      response.exec_micros);
    result.queue.Add(1000 * response.queue_micros);
    result.plan.Add(1000 * response.plan_micros);
    result.overhead.Add(end - start - phases_ns);
    const int64_t window = (end - phase.origin_ns) / phase.window_ns();
    if (window < phase.windows) {
      ++result.windows[window].completed;
      result.windows[window].ok += response.status.ok() ? 1 : 0;
      result.windows[window].latency.Add(end - start);
    }
    if (!response.status.ok()) {
      if (result.failed++ == 0) {
        result.first_failure = response.status.ToString();
      }
      continue;
    }
    const bool right =
        workload.execute
            ? expected_rows == nullptr ||
                  response.execution.output.size() ==
                      (*expected_rows)[request.shape]
            : response.plan->cost == workload.expected_cost;
    if (!right) ++result.wrong;
  }
  return result;
}

/// kClients closed-loop clients on their own threads, merged.
LoadResult RunLoad(lcp::QueryService& service, const Workload& workload,
                   uint64_t salt, const Phase& phase,
                   const std::vector<size_t>* expected_rows) {
  std::vector<LoadResult> results(kClients);
  {
    // jthreads join on scope exit, before `results` is read.
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        results[c] = RunClient(service, workload,
                               DeriveSeed(workload.seed, salt * 64 + c), phase,
                               expected_rows);
      });
    }
  }
  LoadResult merged;
  merged.windows.resize(phase.windows);
  for (const LoadResult& r : results) {
    merged.queue.Merge(r.queue);
    merged.plan.Merge(r.plan);
    merged.overhead.Merge(r.overhead);
    for (int i = 0; i < phase.windows; ++i) {
      merged.windows[i].completed += r.windows[i].completed;
      merged.windows[i].ok += r.windows[i].ok;
      merged.windows[i].latency.Merge(r.windows[i].latency);
    }
    merged.attempted += r.attempted;
    merged.failed += r.failed;
    merged.wrong += r.wrong;
    if (merged.first_failure.empty()) merged.first_failure = r.first_failure;
  }
  return merged;
}

/// A workload with its service, warmed up: every distinct shape served
/// once (first searches), then one concurrent round from every client
/// (per-worker source indexes; for cold_search, a full plan cache).
struct Served {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<lcp::QueryService> service;
  /// The warm-up response of each shape, in shape order.
  std::vector<lcp::QueryResponse> shape_responses;
  /// Wrong answers in the concurrent warm-up round.
  int64_t warmup_wrong = 0;
};

std::unique_ptr<Served> SetUp(const Options& options, int repeat) {
  auto served = std::make_unique<Served>();
  served->workload = MakeWorkload(options.workload, options.seed);
  const Workload& w = *served->workload;
  lcp::QueryService::SourceFactory factory;
  if (w.execute) {
    const lcp::Schema* schema = w.schema.get();
    const lcp::Instance* instance = w.instance.get();
    factory = [schema, instance] {
      return std::make_unique<lcp::SimulatedSource>(schema, instance);
    };
  }
  served->service = std::make_unique<lcp::QueryService>(
      w.accessible.get(), w.cost.get(), std::move(factory),
      lcp::ServiceOptions{});
  for (const lcp::ConjunctiveQuery& shape : w.shapes) {
    lcp::QueryRequest call;
    call.query = shape;
    call.execute = w.execute;
    served->shape_responses.push_back(served->service->Call(std::move(call)));
  }
  Phase warmup;
  warmup.max_requests = w.warmup_requests_per_client;
  served->warmup_wrong =
      RunLoad(*served->service, w, 100 + repeat, warmup, nullptr).wrong;
  return served;
}

/// Checks every shape's served warm-up answer against the oracle; fills
/// `expected_rows` for the timed phase's row-count checks. Returns the
/// number of wrong shapes.
int VerifyShapes(const Served& served, std::vector<size_t>& expected_rows) {
  const Workload& w = *served.workload;
  int wrong = 0;
  for (size_t s = 0; s < w.shapes.size(); ++s) {
    const lcp::QueryResponse& response = served.shape_responses[s];
    bool right = response.status.ok();
    if (w.execute) {
      const std::vector<lcp::Tuple> oracle =
          OracleAnswer(w, static_cast<int>(s));
      expected_rows.push_back(oracle.size());
      right = right && SortedRows(response.execution.output) == oracle;
    } else if (right) {
      right = response.plan->cost == w.expected_cost;
    }
    if (!right) {
      std::fprintf(stderr, "perfbench: shape %zu of %s answered wrongly (%s)\n",
                   s, w.name.c_str(), response.status.ToString().c_str());
      ++wrong;
    }
  }
  return wrong;
}

/// The timed phase: the clients' view plus, per window, the host's steal
/// and this process's CPU time, sampled at the window boundaries.
struct Timed {
  Phase phase;
  LoadResult load;
  lcp::ServiceStats before;
  lcp::ServiceStats after;
  std::vector<double> steal_pct;
  std::vector<double> cpu_us;
};

Timed RunTimed(lcp::QueryService& service, const Workload& workload,
               double seconds, const std::vector<size_t>& expected_rows) {
  Timed timed;
  Phase& phase = timed.phase;
  phase.windows = std::clamp(static_cast<int>(seconds), 1, kMaxWindows);
  timed.before = service.SnapshotStats();
  phase.origin_ns = NowNs();
  phase.deadline_ns = phase.origin_ns + static_cast<int64_t>(seconds * 1e9);
  std::vector<HostSample> host;
  std::jthread monitor([&] {
    host.push_back(SampleHost());
    for (int i = 1; i <= phase.windows; ++i) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::nanoseconds(phase.origin_ns +
                                       i * phase.window_ns()))));
      host.push_back(SampleHost());
    }
  });
  timed.load = RunLoad(service, workload, 1, phase, &expected_rows);
  monitor.join();
  timed.after = service.SnapshotStats();
  for (int i = 0; i < phase.windows; ++i) {
    timed.steal_pct.push_back(
        100 * Ratio(host[i + 1].steal_jiffies - host[i].steal_jiffies,
                    host[i + 1].total_jiffies - host[i].total_jiffies));
    timed.cpu_us.push_back(host[i + 1].cpu_us - host[i].cpu_us);
  }
  return timed;
}

/// The end-to-end view of the timed phase's fastest windows: those that
/// completed the most OK requests, taken in that order until they cover a
/// third of the run and hold at least kMinSelectedRequests requests (so
/// p99 has 10 samples beyond it). On a shared host, other guests' load
/// comes and goes within a run, as stolen time or as a slower vCPU, and
/// moves throughput and latency by tens of percent; the fastest windows
/// measure the program, not its neighbours. A change to the program moves
/// every window, the fastest ones too.
struct Fastest {
  std::vector<int> windows;
  double seconds = 0;
  int64_t completed = 0;
  int64_t ok = 0;
  double cpu_us = 0;
  Histogram latency;
};

Fastest SelectFastest(const Timed& timed) {
  const int n = timed.phase.windows;
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return timed.load.windows[a].ok > timed.load.windows[b].ok;
  });
  Fastest fastest;
  for (int i : order) {
    if (3 * static_cast<int>(fastest.windows.size()) >= n &&
        fastest.completed >= kMinSelectedRequests) {
      break;
    }
    const Window& window = timed.load.windows[i];
    fastest.windows.push_back(i);
    fastest.seconds += timed.phase.window_ns() / 1e9;
    fastest.completed += window.completed;
    fastest.ok += window.ok;
    fastest.cpu_us += timed.cpu_us[i];
    fastest.latency.Merge(window.latency);
  }
  std::sort(fastest.windows.begin(), fastest.windows.end());
  return fastest;
}

/// Per-request means of the deterministic replay counters, exactly
/// reproducible for a given seed.
std::map<std::string, double> ExactCounts(const ReplayCounts& c) {
  const double searches = c.searches;
  const double execs = c.executions;
  const double created = c.search.nodes_created;
  return {
      {"planner.nodes_created", Ratio(created, searches)},
      {"planner.nodes_expanded", Ratio(c.search.nodes_expanded, searches)},
      {"planner.pruned_dominance", Ratio(c.search.pruned_dominance, searches)},
      {"planner.pruned_cost", Ratio(c.search.pruned_cost, searches)},
      {"planner.prune_ratio",
       Ratio(c.search.pruned_dominance + c.search.pruned_cost, created)},
      {"chase.root_firings", Ratio(c.search.root_chase_firings, searches)},
      {"chase.closure_firings", Ratio(c.search.closure_firings, searches)},
      {"chase.firings_per_node",
       Ratio(c.search.root_chase_firings + c.search.closure_firings, created)},
      {"plan.commands_removed", Ratio(c.commands_removed, c.plans_optimized)},
      {"runtime.access_batches", Ratio(c.exec.access_batches, execs)},
      {"runtime.access_bindings", Ratio(c.exec.access_bindings, execs)},
      {"runtime.source_calls", Ratio(c.source_calls, execs)},
      {"ra.rows_in", Ratio(c.exec.rows_in, execs)},
      {"ra.rows_out", Ratio(c.exec.rows_out, execs)},
      {"ra.probe_hits", Ratio(c.exec.probe_hits, execs)},
      {"ra.dedup_drops", Ratio(c.exec.dedup_drops, execs)},
      {"ra.output_rows", Ratio(c.output_rows, execs)},
  };
}

/// Span durations (and self times: duration minus direct children) by
/// span name, in microseconds.
struct SpanTimes {
  std::map<std::string, std::vector<double>> total_us;
  std::map<std::string, std::vector<double>> self_us;
};

SpanTimes AggregateSpans(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  SpanTimes times;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t ns = spans[i].end_ns - spans[i].start_ns;
    times.total_us[spans[i].name].push_back(ns / 1000.0);
    times.self_us[spans[i].name].push_back((ns - child_ns[i]) / 1000.0);
  }
  return times;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

template <typename T>
std::string JsonList(const std::vector<T>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(static_cast<double>(values[i]));
  }
  return out + "]";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics,
                const std::map<std::string, std::string>& notes) {
  std::printf("# %s\n", title);
  for (const Metric& m : metrics) {
    auto note = notes.find(m.name);
    std::printf("  %-31s %16.4f %-13s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(),
                note == notes.end() ? "" : note->second.c_str());
  }
}

/// The per-layer report of a traced run.
struct LayerReport {
  std::vector<Metric> metrics;
  /// Sample counts behind each metric, for the printed table.
  std::map<std::string, std::string> notes;
  double request_p50_us = 0;
  std::string spans_file;
  int64_t wrong = 0;
};

/// Replays a seeded sample of the workload serially, untraced and traced,
/// checks it against the service and the oracle, writes the spans, and
/// combines them with the untraced timed phase's per-request micros and
/// counter deltas into the per-layer metrics.
LayerReport TraceLayers(const Options& options, const Workload& w,
                        lcp::QueryService& service, const Timed& timed,
                        const std::vector<size_t>& expected_rows) {
  LayerReport report;
  std::vector<Request> sample;
  RequestStream stream(w, DeriveSeed(options.seed, 0x7ace));
  for (int i = 0; i < w.replay_requests; ++i) sample.push_back(stream.Next());
  // A discarded first pass warms the allocator and caches, so the
  // untraced/traced ratio measures the spans, not the order of the runs.
  Replay(w, sample, expected_rows, false);
  const ReplayResult untraced = Replay(w, sample, expected_rows, false);
  const ReplayResult traced = Replay(w, sample, expected_rows, true);
  report.wrong += untraced.wrong + traced.wrong;
  const std::map<std::string, double> counts = ExactCounts(traced.counts);
  if (counts != ExactCounts(untraced.counts)) {
    std::fprintf(stderr, "perfbench: replay counters are not repeatable\n");
    ++report.wrong;
  }
  // The replayed plan must cost what the service's plan for the same shape
  // costs.
  for (const auto& [key, entry] : traced.plan_costs) {
    lcp::QueryRequest call;
    call.query = entry.second;
    call.execute = false;
    const lcp::QueryResponse response = service.Call(std::move(call));
    if (!response.status.ok() || response.plan->cost != entry.first) {
      std::fprintf(stderr, "perfbench: replay plan cost %g != served %g\n",
                   entry.first,
                   response.status.ok() ? response.plan->cost : -1.0);
      ++report.wrong;
    }
  }
  report.spans_file = options.spans_dir + "/spans-" + w.name + "-" +
                      std::to_string(options.seed) + ".jsonl";
  if (!WriteSpans(traced.spans, report.spans_file)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 report.spans_file.c_str());
    report.spans_file.clear();
  }

  SpanTimes spans = AggregateSpans(traced.spans);
  std::vector<Metric>& m = report.metrics;
  const auto span = [&](const char* metric, const char* name, double q,
                        bool self = false) {
    std::vector<double>& values = (self ? spans.self_us : spans.total_us)[name];
    report.notes[metric] = "n=" + std::to_string(values.size()) + " spans";
    m.push_back({metric, Percentile(values, q), "us"});
  };
  const auto served = [&](const char* metric, const Histogram& h, double q) {
    report.notes[metric] = "n=" + std::to_string(h.count()) + " responses";
    m.push_back({metric, h.PercentileUs(q), "us"});
  };
  const auto exact = [&](const char* metric, const char* unit) {
    report.notes[metric] =
        std::to_string(traced.counts.searches) + " searches, " +
        std::to_string(traced.counts.executions) + " executions";
    m.push_back({metric, counts.at(metric), unit});
  };
  const lcp::PlanCacheStats& before = timed.before.cache;
  const lcp::PlanCacheStats& after = timed.after.cache;
  const double requests = static_cast<double>(timed.load.attempted);
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups =
      hits + static_cast<double>(after.misses - before.misses);

  served("service.queue_wait_us.p50", timed.load.queue, 0.50);
  served("service.queue_wait_us.p99", timed.load.queue, 0.99);
  served("service.overhead_us.p50", timed.load.overhead, 0.50);
  span("service.canonicalize_us.p50", "canonicalize", 0.50);
  span("service.cache_lookup_us.p50", "cache_lookup", 0.50);
  span("service.cache_insert_us.p50", "cache_insert", 0.50);
  m.push_back({"service.cache_evictions_per_req",
               Ratio(static_cast<double>(after.evictions - before.evictions),
                     requests),
               "count/req"});
  m.push_back({"service.searches_per_req",
               Ratio(static_cast<double>(timed.after.searches -
                                         timed.before.searches),
                     requests),
               "count/req"});
  m.push_back({"service.cache_hit_rate", Ratio(hits, lookups), "ratio"});
  span("planner.search_us.p50", "search", 0.50);
  span("planner.search_us.p99", "search", 0.99);
  exact("planner.nodes_created", "exact/search");
  exact("planner.nodes_expanded", "exact/search");
  exact("planner.pruned_dominance", "exact/search");
  exact("planner.pruned_cost", "exact/search");
  exact("planner.prune_ratio", "exact_ratio");
  served("planner.plan_us.p50", timed.load.plan, 0.50);
  exact("chase.root_firings", "exact/search");
  exact("chase.closure_firings", "exact/search");
  exact("chase.firings_per_node", "exact/node");
  span("plan.optimize_us.p50", "optimize", 0.50);
  exact("plan.commands_removed", "exact/plan");
  span("runtime.exec_us.p50", "execute", 0.50);
  span("runtime.exec_us.p99", "execute", 0.99);
  span("runtime.source_us.p50", "source", 0.50);
  exact("runtime.access_batches", "exact/req");
  exact("runtime.access_bindings", "exact/req");
  exact("runtime.source_calls", "exact/req");
  span("ra.self_us.p50", "execute", 0.50, /*self=*/true);
  exact("ra.rows_in", "exact/req");
  exact("ra.rows_out", "exact/req");
  exact("ra.probe_hits", "exact/req");
  exact("ra.dedup_drops", "exact/req");
  exact("ra.output_rows", "exact/req");
  span("trace.request_us.p50", "request", 0.50);
  report.request_p50_us = m.back().value;
  m.push_back({"trace.overhead_ratio",
               Ratio(static_cast<double>(traced.total_ns), untraced.total_ns),
               "ratio"});
  report.notes["trace.overhead_ratio"] =
      std::to_string(traced.total_ns / 1e6) + " ms traced / " +
      std::to_string(untraced.total_ns / 1e6) + " ms untraced";
  return report;
}

bool ParseArgs(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--spans-dir") {
      options.spans_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0 &&
         options.seconds <= 3600;
}

bool OptimizedBuild(const std::string& build_type) {
  return build_type == "Release" || build_type == "RelWithDebInfo" ||
         build_type == "MinSizeRel";
}

int Run(const Options& options) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (!OptimizedBuild(build_type)) {
    const char* allow = std::getenv("LCP_ALLOW_DEBUG_BENCH");
    if (allow == nullptr || std::strcmp(allow, "1") != 0) {
      std::fprintf(stderr,
                   "perfbench: not an optimized build (CMAKE_BUILD_TYPE='%s');"
                   " rebuild with -DCMAKE_BUILD_TYPE=Release or set "
                   "LCP_ALLOW_DEBUG_BENCH=1 to run anyway\n",
                   build_type.c_str());
      return 2;
    }
    std::fprintf(stderr, "perfbench: warning: non-optimized build '%s'\n",
                 build_type.c_str());
  }
  const std::string load_before = LoadAverage();

  // Set-up, repeated: the median is setup_s. At least kMinSetupRepeats
  // times, and more while the repeats stay cheap, so a set-up of a few
  // milliseconds still yields a steady median. Tearing a service down
  // (which joins its workers) is not set-up time.
  std::vector<double> setup_s;
  std::unique_ptr<Served> served;
  double setup_total_s = 0;
  while (setup_s.size() < kMinSetupRepeats ||
         (setup_total_s < kSetupBudgetS && setup_s.size() < kMaxSetupRepeats)) {
    served.reset();
    const int64_t start = NowNs();
    served = SetUp(options, static_cast<int>(setup_s.size()));
    setup_s.push_back((NowNs() - start) / 1e9);
    setup_total_s += setup_s.back();
  }
  const Workload& w = *served->workload;
  lcp::QueryService& service = *served->service;

  // Oracle verification, outside set-up and timing.
  std::vector<size_t> expected_rows;
  int64_t wrong = VerifyShapes(*served, expected_rows) + served->warmup_wrong;

  const Timed timed = RunTimed(service, w, options.seconds, expected_rows);
  const LoadResult& load = timed.load;
  wrong += load.wrong;
  if (load.failed > 0) {
    std::fprintf(stderr, "perfbench: %lld failed requests, first: %s\n",
                 static_cast<long long>(load.failed),
                 load.first_failure.c_str());
  }
  const Fastest fastest = SelectFastest(timed);
  const double attempted = static_cast<double>(load.attempted);
  const uint64_t n = fastest.latency.count();
  const uint64_t beyond_p99 =
      n - static_cast<uint64_t>(std::ceil(0.99 * static_cast<double>(n)));
  std::vector<double> setup_sorted = setup_s;
  std::vector<Metric> end_to_end = {
      {"throughput_rps", Ratio(fastest.ok, fastest.seconds), "1/s"},
      {"latency_p50_us", fastest.latency.PercentileUs(0.50), "us"},
      {"cpu_us_per_req", Ratio(fastest.cpu_us, fastest.completed), "us"},
      {"setup_s", Percentile(setup_sorted, 0.5), "s"},
  };
  std::printf("# perfbench workload=%s seed=%llu clients=%d seconds=%g "
              "trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(options.seed),
              kClients, options.seconds, options.trace ? 1 : 0);
  const std::string fastest_note =
      "fastest " + std::to_string(fastest.windows.size()) + " of " +
      std::to_string(timed.phase.windows) + " windows";
  std::map<std::string, std::string> notes = {
      {"throughput_rps", fastest_note + "; " + std::to_string(fastest.ok) +
                             " OK responses in " +
                             std::to_string(fastest.seconds) + " s"},
      {"latency_p50_us", fastest_note + "; n=" + std::to_string(n)},
      {"latency_p99_us", fastest_note + "; n=" + std::to_string(n) + ", " +
                             std::to_string(beyond_p99) + " beyond p99"},
      {"failed_fraction", "whole run; " + std::to_string(load.failed) +
                              " of " + std::to_string(load.attempted) +
                              " attempted"},
      {"cpu_us_per_req", fastest_note + "; process user+sys CPU / requests"},
      {"setup_s", "median of " + std::to_string(setup_s.size())},
  };
  if (beyond_p99 < 10) {
    std::fprintf(stderr,
                 "perfbench: warning: only %llu samples beyond p99; run "
                 "longer\n",
                 static_cast<unsigned long long>(beyond_p99));
  }
  LayerReport layers;
  if (options.trace) {
    layers = TraceLayers(options, w, service, timed, expected_rows);
    wrong += layers.wrong;
    std::printf("# traced replay vs untraced run: traced request p50 %.2f us, "
                "untraced-run client p50 %.2f us\n",
                layers.request_p50_us, end_to_end[1].value);
  }

  rusage usage_final{};
  getrusage(RUSAGE_SELF, &usage_final);
  const double peak_rss_mb = usage_final.ru_maxrss / 1024.0;
  end_to_end.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  // The table also shows two metrics the JSON result leaves out:
  // failed_fraction, which is 0 whenever the service is healthy, and p99,
  // whose run-to-run spread on a shared host is wider than any bound the
  // benchmark may set (README.md).
  std::vector<Metric> table = end_to_end;
  table.insert(table.begin() + 2,
               {{"latency_p99_us", fastest.latency.PercentileUs(0.99), "us"},
                {"failed_fraction", Ratio(load.failed, attempted), "1"}});
  PrintTable("end-to-end (untraced run)", table, notes);
  if (options.trace) {
    PrintTable("per-layer (traced replay)", layers.metrics, layers.notes);
  }

  std::vector<int64_t> window_ok;
  for (const Window& window : load.windows) window_ok.push_back(window.ok);
  std::ostringstream meta;
  meta << "{\"meta\": {\"workload\": \"" << w.name << "\", \"seed\": "
       << options.seed << ", \"clients\": " << kClients
       << ", \"host_cores\": " << std::thread::hardware_concurrency()
       << ", \"build_type\": \"" << build_type << "\", \"seconds\": "
       << options.seconds << ", \"load_avg_before\": " << load_before
       << ", \"load_avg_after\": " << LoadAverage()
       << ", \"window_steal_pct\": " << JsonList(timed.steal_pct)
       << ", \"window_ok\": " << JsonList(window_ok)
       << ", \"fastest_windows\": " << JsonList(fastest.windows)
       << ", \"samples\": {\"latency\": " << n
       << ", \"latency_beyond_p99\": " << beyond_p99
       << "}, \"setup_s\": " << JsonList(setup_s)
       << ", \"wrong\": " << wrong << ", \"spans_file\": \""
       << layers.spans_file
       << "\"}}";
  std::printf("%s\n", meta.str().c_str());

  const bool correct = wrong == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(load.attempted),
              static_cast<long long>(load.failed),
              MetricsJson(options.trace ? layers.metrics : end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  const std::vector<std::string>& names = perfbench::WorkloadNames();
  if (!perfbench::ParseArgs(argc, argv, options) ||
      std::find(names.begin(), names.end(), options.workload) == names.end()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <warm_small|cold_search|"
                 "warm_large> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-dir <dir>]\n");
    return 2;
  }
  return perfbench::Run(options);
}
