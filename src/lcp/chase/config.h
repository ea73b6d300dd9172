#ifndef LCP_CHASE_CONFIG_H_
#define LCP_CHASE_CONFIG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lcp/chase/fact.h"
#include "lcp/chase/term_arena.h"
#include "lcp/logic/ids.h"

namespace lcp {

/// A chase configuration (§4): a duplicate-free set of facts, with
/// insertion order preserved (facts are a proof log) and per-relation plus
/// positional indexes for homomorphism search. Configurations are value
/// types: search nodes copy them when branching.
///
/// Thread-safety contract: mutation (Add, copy/move assignment *onto* this
/// object) requires exclusive access, like any value type. Const reads —
/// including the lazily index-building probes FactsWith / TermsAt — are safe
/// from any number of threads concurrently: the catch-up is guarded by a
/// double-checked lock (an acquire/release watermark plus a build mutex), so
/// a fully-indexed configuration costs one atomic load per probe and a
/// shared configuration can serve concurrent read-only planners.
class ChaseConfig {
 public:
  ChaseConfig() = default;
  /// Copies transfer the facts but not the positional index: it is lazily
  /// rebuilt (incrementally) on first probe, so branching a search node
  /// stays as cheap as the fact set itself.
  ChaseConfig(const ChaseConfig& other)
      : facts_(other.facts_),
        index_(other.index_),
        by_relation_(other.by_relation_) {}
  ChaseConfig& operator=(const ChaseConfig& other) {
    if (this != &other) {
      facts_ = other.facts_;
      index_ = other.index_;
      by_relation_ = other.by_relation_;
      by_position_.clear();
      terms_at_.clear();
      indexed_up_to_.store(0, std::memory_order_relaxed);
    }
    return *this;
  }
  ChaseConfig(ChaseConfig&& other) noexcept
      : facts_(std::move(other.facts_)),
        index_(std::move(other.index_)),
        by_relation_(std::move(other.by_relation_)),
        by_position_(std::move(other.by_position_)),
        terms_at_(std::move(other.terms_at_)),
        indexed_up_to_(other.indexed_up_to_.load(std::memory_order_relaxed)) {
    other.indexed_up_to_.store(0, std::memory_order_relaxed);
  }
  ChaseConfig& operator=(ChaseConfig&& other) noexcept {
    if (this != &other) {
      facts_ = std::move(other.facts_);
      index_ = std::move(other.index_);
      by_relation_ = std::move(other.by_relation_);
      by_position_ = std::move(other.by_position_);
      terms_at_ = std::move(other.terms_at_);
      indexed_up_to_.store(
          other.indexed_up_to_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      other.indexed_up_to_.store(0, std::memory_order_relaxed);
    }
    return *this;
  }

  /// Adds a fact; returns true if it was new.
  bool Add(const Fact& fact);
  bool Contains(const Fact& fact) const {
    return index_.find(fact) != index_.end();
  }

  size_t size() const { return facts_.size(); }
  const std::vector<Fact>& facts() const { return facts_; }

  /// Indexes into facts() of the facts over `relation`, ascending.
  const std::vector<int>& FactsOf(RelationId relation) const;

  /// Indexes into facts() of the facts over `relation` whose term at
  /// `position` equals `term`, ascending. A single hash probe into the
  /// positional index (catching it up with recent Adds first); the matcher
  /// seeds unification from the smallest such candidate list.
  const std::vector<int>& FactsWith(RelationId relation, int position,
                                    ChaseTermId term) const;

  /// All distinct terms occurring in facts over `relation` at `position`,
  /// in first-occurrence order. An index read; O(1) plus the result size.
  const std::vector<ChaseTermId>& TermsAt(RelationId relation,
                                          int position) const;

  /// Extensions smaller than this are cheaper to scan than to index-probe;
  /// the matcher (and other index users) fall back to FactsOf below it.
  static constexpr size_t kIndexProbeThreshold = 8;

  /// Multi-line dump for debugging/exploration logs.
  std::string ToString(const Schema& schema, const TermArena& arena) const;

 private:
  /// Key of the positional index: one bucket per (relation, position, term)
  /// triple that occurs in the configuration.
  struct PosTermKey {
    RelationId relation;
    int32_t position;
    ChaseTermId term;
    friend bool operator==(const PosTermKey& a, const PosTermKey& b) {
      return a.relation == b.relation && a.position == b.position &&
             a.term == b.term;
    }
  };
  struct PosTermKeyHash {
    size_t operator()(const PosTermKey& k) const {
      uint64_t h = static_cast<uint32_t>(k.relation) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(k.position)) +
           0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(k.term)) +
           0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  /// Key of the distinct-terms index: one entry per (relation, position).
  struct PosKey {
    RelationId relation;
    int32_t position;
    friend bool operator==(const PosKey& a, const PosKey& b) {
      return a.relation == b.relation && a.position == b.position;
    }
  };
  struct PosKeyHash {
    size_t operator()(const PosKey& k) const {
      uint64_t h = static_cast<uint32_t>(k.relation) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(k.position)) +
           0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  /// Fast-path check + slow-path catch-up: returns once the positional index
  /// covers every fact. One acquire load when already indexed; otherwise
  /// takes index_mutex_, re-checks, and appends facts
  /// [indexed_up_to_, facts_.size()).
  void EnsureIndexed() const;
  /// The catch-up body; must be called with index_mutex_ held.
  void CatchUpPositionalIndexLocked() const;

  std::vector<Fact> facts_;
  std::unordered_set<Fact, FactHash> index_;
  std::unordered_map<RelationId, std::vector<int>> by_relation_;
  /// Positional index, built lazily: facts_[0, indexed_up_to_) are indexed.
  /// Mutable so that const probes can catch up after Adds and copies.
  /// Concurrency: readers that observe indexed_up_to_ == facts_.size() with
  /// acquire order see every map write the builder published with its
  /// release store; writers only mutate under index_mutex_ (and mutation of
  /// facts_ itself is exclusive by the value-type contract above).
  mutable std::unordered_map<PosTermKey, std::vector<int>, PosTermKeyHash>
      by_position_;
  mutable std::unordered_map<PosKey, std::vector<ChaseTermId>, PosKeyHash>
      terms_at_;
  mutable std::atomic<size_t> indexed_up_to_{0};
  mutable std::mutex index_mutex_;
};

}  // namespace lcp

#endif  // LCP_CHASE_CONFIG_H_
