// The benchmark's three workloads: schema, data, cost model, the seeded
// request streams the clients send, and the oracles that check answers.
// See README.md for why each workload exists.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/data/instance.h"
#include "lcp/logic/conjunctive_query.h"
#include "lcp/plan/cost.h"
#include "lcp/ra/table.h"
#include "lcp/schema/schema.h"

namespace perfbench {

/// One request as a client sends it. `shape` indexes Workload::shapes; the
/// expected answer (or plan cost) of a request is that of its shape.
struct Request {
  lcp::ConjunctiveQuery query;
  int shape = 0;
};

/// Everything one workload serves. Built from the seed alone; the service
/// sees only the generated schema, instance and queries.
struct Workload {
  std::string name;
  std::unique_ptr<lcp::Schema> schema;
  /// Null for plan-only workloads.
  std::unique_ptr<lcp::Instance> instance;
  std::unique_ptr<lcp::AccessibleSchema> accessible;
  std::unique_ptr<lcp::SimpleCostFunction> cost;
  /// False = every request is plan-only (execute = false).
  bool execute = true;
  /// True = every request carries a fingerprint never sent before, so
  /// every request misses the plan cache.
  bool fresh_fingerprints = false;
  /// One representative query per distinct shape.
  std::vector<lcp::ConjunctiveQuery> shapes;
  /// Plan-only workloads: the optimal plan cost of every shape, derived
  /// from the schema's method costs rather than from the planner.
  double expected_cost = 0;
  /// Requests each client sends in the concurrent warm-up round.
  int warmup_requests_per_client = 0;
  /// Requests in the serial traced replay.
  int replay_requests = 0;
  uint64_t seed = 0;
};

/// An independent seed for one request stream or sample of a run.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// Builds the named workload ("warm_small", "cold_search", "warm_large"),
/// or returns null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// The names MakeWorkload accepts, in report order.
const std::vector<std::string>& WorkloadNames();

/// A deterministic request stream: the same (workload, seed) yields the
/// same requests. Warm workloads send a uniformly chosen shape under a
/// fresh α-renaming (new variable names, shuffled atoms), so every request
/// goes through the canonicalizer; fresh-fingerprint workloads also mint a
/// new constant and 0-2 extra atoms per request.
class RequestStream {
 public:
  RequestStream(const Workload& workload, uint64_t seed);
  Request Next();

 private:
  const Workload* workload_;
  std::mt19937_64 prng_;
  uint64_t stream_tag_;
  uint64_t counter_ = 0;
};

/// The distinct answer tuples of shape `shape`, sorted, computed without
/// the plan executor (EvaluateQuery, or a hash join where that is too slow).
std::vector<lcp::Tuple> OracleAnswer(const Workload& workload, int shape);

/// The rows of `table`, sorted, for comparison against OracleAnswer.
std::vector<lcp::Tuple> SortedRows(const lcp::Table& table);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
