// Parallel proof search: wall-clock scaling of the work-stealing driver
// from 1 worker (the deterministic default every QueryService request
// uses) to 2/4/8 workers on a deliberately hard workload.
//
// The workload is a chain query R0(x0,x1) ∧ ... ∧ R{k-1}(x_{k-1},x_k) where
// every relation carries `m` alternative free-access methods with slightly
// different costs. Any access order answers the query, so the proof space
// is the full (subset × method) lattice: the dominance store collapses
// same-subset permutations and the incumbent bound prunes expensive method
// choices — both shared structures are on the hot path, which is exactly
// what the work-stealing driver has to get right. Node expansions are
// dominated by config copies, chase closures, and homomorphism checks
// (µs–ms each), the granularity the work-stealing deque is designed for.
//
// Numbers to watch (also summarized by bench/run_benches.sh):
//  - BM_ParallelSearch/workers:1 vs workers:2/4/8 — the speedup curve.
//    Meaningful only on a host with that many cores; the summary prints the
//    host core count next to the results.
//  - nodes_expanded per row. Workers that publish a cheap incumbent earlier
//    than the depth-first order would expand fewer nodes, so a speedup is
//    only a scaling result when the rows' expansion counts agree.

#include <benchmark/benchmark.h>

#include <iomanip>
#include <iostream>
#include <thread>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/planner/proof_search.h"
#include "lcp/schema/parser.h"
#include "lcp/schema/schema.h"

namespace {

using namespace lcp;

/// Chain of `chain_len` binary relations, `methods_per_relation` free-access
/// methods each with distinct costs, boolean chain query over all of them.
struct Workload {
  std::unique_ptr<Schema> schema;
  ConjunctiveQuery query;
};

Workload BuildChainWorkload(int chain_len, int methods_per_relation) {
  Workload w;
  w.schema = std::make_unique<Schema>();
  std::string body;
  for (int i = 0; i < chain_len; ++i) {
    RelationId rel =
        w.schema->AddRelation("R" + std::to_string(i), 2).value();
    for (int m = 0; m < methods_per_relation; ++m) {
      // Distinct costs so the optimum is unique and the incumbent bound has
      // something to cut; kept close so cost pruning alone cannot collapse
      // the space early.
      double cost = 1.0 + 0.1 * m + 0.01 * i;
      w.schema
          ->AddAccessMethod("mt_r" + std::to_string(i) + "_" +
                                std::to_string(m),
                            rel, {}, cost)
          .value();
    }
    if (i > 0) body += ", ";
    body += "R" + std::to_string(i) + "(x" + std::to_string(i) + ", x" +
            std::to_string(i + 1) + ")";
  }
  w.query = ParseQuery(*w.schema, "Q() :- " + body).value();
  return w;
}

SearchOutcome RunWorkload(const Workload& w, int parallelism) {
  AccessibleSchema accessible =
      AccessibleSchema::Build(*w.schema, AccessibleVariant::kStandard)
          .value();
  SimpleCostFunction cost(w.schema.get());
  ProofSearch search(&accessible, &cost);
  SearchOptions options;
  options.max_access_commands = w.schema->num_relations();
  options.max_nodes = 2000000;
  options.parallelism = parallelism;
  return search.Run(w.query, options).value();
}

constexpr int kChainLen = 10;
constexpr int kMethods = 3;

void BM_ParallelSearch(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  Workload w = BuildChainWorkload(kChainLen, kMethods);
  SearchOutcome outcome;
  for (auto _ : state) {
    outcome = RunWorkload(w, workers);
    benchmark::DoNotOptimize(outcome.best);
  }
  state.counters["parallelism"] = workers;
  state.counters["host_cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
  state.counters["nodes_expanded"] =
      static_cast<double>(outcome.stats.nodes_expanded);
  state.counters["nodes_created"] =
      static_cast<double>(outcome.stats.nodes_created);
  state.counters["best_cost"] = outcome.best ? outcome.best->cost : -1.0;
}
BENCHMARK(BM_ParallelSearch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"workers"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void PrintReproduction() {
  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "\n=== parallel proof search: speedup on the chain workload "
               "(k=" << kChainLen << ", m=" << kMethods << ") ===\n";
  std::cout << "host cores: " << cores
            << " (speedups beyond the core count measure contention, not "
               "parallelism)\n";
  Workload w = BuildChainWorkload(kChainLen, kMethods);
  double base_ms = 0;
  std::cout << "workers | wall ms | speedup | expanded | created | best\n";
  for (int workers : {1, 2, 4, 8}) {
    auto start = std::chrono::steady_clock::now();
    SearchOutcome outcome = RunWorkload(w, workers);
    auto elapsed = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (workers == 1) base_ms = elapsed;
    std::cout << "  " << std::setw(5) << workers << " | " << std::setw(7)
              << std::fixed << std::setprecision(1) << elapsed << " | "
              << std::setw(6) << std::setprecision(2)
              << (elapsed > 0 ? base_ms / elapsed : 0.0) << "x | "
              << std::setw(8) << outcome.stats.nodes_expanded << " | "
              << std::setw(7) << outcome.stats.nodes_created << " | "
              << std::setprecision(2) << (outcome.best ? outcome.best->cost
                                                       : -1.0)
              << "\n";
  }
  std::cout << "(every worker count finds the same optimal cost)\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintReproduction();
  return 0;
}
