// The traced run: a serial replay of a seeded request sample through the
// layers' public entry points, with spans recorded around each call from
// the benchmark's side. No span comes from inside the library.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lcp/planner/proof_search.h"
#include "lcp/ra/vector_eval.h"
#include "workloads.h"

namespace perfbench {

/// One recorded span. `parent` indexes the span list (-1 = a request's
/// root span); spans of one request share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int request = 0;
};

/// Work counters summed over the replay, each taken from the library's
/// public result structs.
struct ReplayCounts {
  int requests = 0;
  int searches = 0;
  lcp::SearchStats search;
  int plans_optimized = 0;
  int commands_removed = 0;
  int executions = 0;
  lcp::ExecStats exec;
  size_t source_calls = 0;
  size_t output_rows = 0;
};

struct ReplayResult {
  /// Empty unless the replay was traced.
  std::vector<Span> spans;
  ReplayCounts counts;
  /// Wall time of the whole replay.
  int64_t total_ns = 0;
  /// Optimized plan cost per canonical fingerprint key, with one query of
  /// that fingerprint, for comparison with the plan the service serves.
  std::map<std::string, std::pair<double, lcp::ConjunctiveQuery>> plan_costs;
  /// Requests whose answer row count differed from the oracle's, or whose
  /// search found no plan.
  int wrong = 0;
};

/// Replays `sample` serially: CanonicalizeQuery, Lookup on a fresh
/// replay-owned PlanCache, and on a miss ProofSearch::Run (optimizer off),
/// PassManager::Optimize and Insert; then ExecutePlan against a
/// SimulatedSource (behind a timing decorator when traced). `oracle_rows`
/// gives the expected row count per shape (ignored for plan-only
/// workloads).
ReplayResult Replay(const Workload& workload,
                    const std::vector<Request>& sample,
                    const std::vector<size_t>& oracle_rows, bool traced);

/// Writes `spans` as JSON lines to `path`; returns false on an I/O error.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
