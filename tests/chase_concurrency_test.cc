// Regression tests for ChaseConfig's thread-safety contract: const probes
// (FactsWith / TermsAt), which lazily catch up the positional index, must be
// safe from many threads on a shared configuration — the QueryService worker
// pool runs concurrent read-only proof searches over shared chase state.
// Run under TSan in CI to catch index-build races.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "lcp/chase/config.h"

namespace lcp {
namespace {

constexpr int kThreads = 8;
constexpr int kChainLength = 64;

/// A chain i -> i+1 over relation 0 plus a unary marker per term: enough
/// facts that every probe exercises both indexes with known answers.
ChaseConfig MakeChainConfig() {
  ChaseConfig config;
  for (int i = 1; i <= kChainLength; ++i) {
    config.Add(Fact(0, {i, i + 1}));
    config.Add(Fact(1, {i}));
  }
  return config;
}

/// Probes the shared config from one thread and counts mismatches (EXPECTs
/// are not thread-safe enough to fail from workers; the main thread
/// asserts).
int ProbeChain(const ChaseConfig& config, int rounds) {
  int errors = 0;
  for (int round = 0; round < rounds; ++round) {
    for (int i = 1; i <= kChainLength; ++i) {
      // Fact(0, {i, i+1}) sits at index 2*(i-1); Fact(1, {i}) right after.
      const std::vector<int>& heads = config.FactsWith(0, 0, i);
      if (heads.size() != 1 || heads[0] != 2 * (i - 1)) ++errors;
      const std::vector<int>& markers = config.FactsWith(1, 0, i);
      if (markers.size() != 1 || markers[0] != 2 * (i - 1) + 1) ++errors;
    }
    if (config.TermsAt(0, 0).size() != kChainLength) ++errors;
    if (config.TermsAt(1, 0).size() != kChainLength) ++errors;
    if (!config.FactsWith(0, 0, kChainLength + 5).empty()) ++errors;
  }
  return errors;
}

TEST(ChaseConcurrencyTest, ColdIndexBuiltUnderConcurrentProbes) {
  // The first probes race straight into the lazy index build: all threads
  // start on an unindexed config and must agree on the result.
  for (int repeat = 0; repeat < 10; ++repeat) {
    ChaseConfig config = MakeChainConfig();
    std::atomic<int> total_errors{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&config, &total_errors] {
        total_errors.fetch_add(ProbeChain(config, /*rounds=*/3),
                               std::memory_order_relaxed);
      });
    }
    for (std::thread& thread : threads) thread.join();
    ASSERT_EQ(total_errors.load(), 0) << "repeat " << repeat;
  }
}

TEST(ChaseConcurrencyTest, CopiesProbeIndependentlyAcrossThreads) {
  // Copying drops the positional index (it rebuilds lazily); each thread
  // owns a private copy and additionally probes the shared original —
  // concurrent builds of distinct configs plus a shared one.
  ChaseConfig original = MakeChainConfig();
  std::atomic<int> total_errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&original, &total_errors, t] {
      ChaseConfig copy = original;  // value-type branch, as in node expansion
      copy.Add(Fact(2, {100 + t}));
      int errors = ProbeChain(copy, /*rounds=*/2);
      errors += ProbeChain(original, /*rounds=*/2);
      const std::vector<int>& mine = copy.FactsWith(2, 0, 100 + t);
      if (mine.size() != 1) ++errors;
      if (!original.FactsWith(2, 0, 100 + t).empty()) ++errors;
      total_errors.fetch_add(errors, std::memory_order_relaxed);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(total_errors.load(), 0);
}

TEST(ChaseConcurrencyTest, ProbesInterleaveWithExclusiveAddPhases) {
  // Alternate exclusive mutation phases with concurrent read phases: the
  // watermark must catch up exactly once per phase and never expose a
  // partially built index.
  ChaseConfig config;
  int next = 1;
  for (int phase = 0; phase < 4; ++phase) {
    for (int i = 0; i < 16; ++i) {
      config.Add(Fact(0, {next, next + 1}));
      ++next;
    }
    const int high_water = next - 1;
    std::atomic<int> total_errors{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&config, &total_errors, high_water] {
        int errors = 0;
        for (int i = 1; i <= high_water; ++i) {
          if (config.FactsWith(0, 0, i).size() != 1) ++errors;
        }
        if (static_cast<int>(config.TermsAt(0, 0).size()) != high_water) {
          ++errors;
        }
        total_errors.fetch_add(errors, std::memory_order_relaxed);
      });
    }
    for (std::thread& thread : threads) thread.join();
    ASSERT_EQ(total_errors.load(), 0) << "phase " << phase;
  }
}

}  // namespace
}  // namespace lcp
