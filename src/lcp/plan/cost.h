#ifndef LCP_PLAN_COST_H_
#define LCP_PLAN_COST_H_

#include <unordered_map>

#include "lcp/plan/plan.h"
#include "lcp/schema/schema.h"

namespace lcp {

/// A "black box" plan cost function (§2, "Cost"). Implementations must be
/// monotone: appending any command, access or middleware query, never
/// decreases the cost. The cost-bound pruning in Algorithm 1 relies on this,
/// and proof search prices a child by its plan prefix up to and including
/// the new access command, before it appends the child's middleware
/// commands. A cost function that charges only access commands (every one
/// in this file and plan/cardinality_cost.h) satisfies it.
class CostFunction {
 public:
  virtual ~CostFunction() = default;
  virtual double Cost(const Plan& plan) const = 0;
};

/// The paper's simple cost function: each access method mt has a positive
/// cost c_mt and a plan costs the sum over its access commands of the
/// invoked method's cost (repeated methods charged per command).
class SimpleCostFunction : public CostFunction {
 public:
  explicit SimpleCostFunction(const Schema* schema) : schema_(schema) {}

  double Cost(const Plan& plan) const override;

  /// Cost of a single access command using `method`.
  double MethodCost(AccessMethodId method) const {
    return schema_->access_method(method).cost;
  }

 private:
  const Schema* schema_;
};

/// A refinement used in the benchmarks: like SimpleCostFunction but each
/// method's charge is weighted by an estimated number of per-tuple source
/// calls (caller-provided estimated input cardinality per relation).
/// Still monotone.
class WeightedAccessCostFunction : public CostFunction {
 public:
  WeightedAccessCostFunction(const Schema* schema,
                             std::unordered_map<RelationId, double>
                                 estimated_calls_per_access)
      : schema_(schema),
        estimated_calls_(std::move(estimated_calls_per_access)) {}

  double Cost(const Plan& plan) const override;

 private:
  const Schema* schema_;
  std::unordered_map<RelationId, double> estimated_calls_;
};

}  // namespace lcp

#endif  // LCP_PLAN_COST_H_
