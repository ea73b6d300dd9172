#ifndef LCP_PLANNER_DOMINANCE_STORE_H_
#define LCP_PLANNER_DOMINANCE_STORE_H_

// Internal header: the sharded concurrent dominance store used by the
// proof-search driver. Not part of the public API.

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "lcp/chase/config.h"
#include "lcp/chase/matcher.h"

namespace lcp {
namespace search_internal {

/// Order-invariant fingerprint of a configuration's fact set (a commutative
/// combine of per-fact hashes). Used ONLY to route insertions across shards
/// so concurrent writers rarely contend on the same mutex — never as an
/// equality test: two configurations may collide, and pruning on fingerprint
/// equality would wrongly discard nodes.
uint64_t ConfigFingerprint(const ChaseConfig& config);

/// Reader-mostly concurrent set of "dominator candidates": the
/// configurations (plus their cost and access count) of every non-pruned
/// node created so far, across all workers. prune_by_dominance asks, for a
/// fresh child, whether any stored configuration with no higher cost and no
/// higher access count admits a homomorphism of the child's dominance probe
/// (§5, "Optimizations").
///
/// Concurrency contract:
///  - Insert takes one shard's exclusive lock; IsDominated takes each
///    shard's shared lock only long enough to copy the qualifying entries
///    out, then runs the (potentially slow) homomorphism checks lock-free
///    against the copied shared_ptrs, so writers are never blocked behind a
///    homomorphism check.
///  - Stored configurations must be immutable once inserted. Their lazy
///    positional index is caught up on first probe, under ChaseConfig's
///    double-checked lock, so concurrent checks may share one.
///  - Races are benign by construction: a check that misses a concurrently
///    inserted dominator only *loses a prune* (the child is explored
///    redundantly); it can never wrongly prune, because every entry it does
///    see was fully published. This is exactly the soundness direction the
///    search needs.
class ConcurrentDominanceStore {
 public:
  /// `shard_count` is rounded up to a power of two.
  explicit ConcurrentDominanceStore(int shard_count);

  ConcurrentDominanceStore(const ConcurrentDominanceStore&) = delete;
  ConcurrentDominanceStore& operator=(const ConcurrentDominanceStore&) = delete;

  /// Publishes a node's configuration as a dominator candidate.
  void Insert(uint64_t fingerprint, double cost, int accesses,
              std::shared_ptr<const ChaseConfig> config);

  /// True if some stored entry with cost <= `cost` and accesses <=
  /// `accesses` admits a homomorphism of `pattern` (with `num_vars`
  /// pattern variables).
  bool IsDominated(const std::vector<PatternAtom>& pattern, size_t num_vars,
                   double cost, int accesses) const;

  size_t size() const;

 private:
  struct Entry {
    uint64_t fingerprint = 0;
    double cost = 0;
    int accesses = 0;
    std::shared_ptr<const ChaseConfig> config;
  };
  struct Shard {
    mutable std::shared_mutex mutex;
    std::vector<Entry> entries;
  };

  size_t ShardOf(uint64_t fingerprint) const {
    return fingerprint & (shards_.size() - 1);
  }

  std::vector<Shard> shards_;
};

}  // namespace search_internal
}  // namespace lcp

#endif  // LCP_PLANNER_DOMINANCE_STORE_H_
