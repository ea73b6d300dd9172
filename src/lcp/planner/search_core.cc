#include "lcp/planner/search_core.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "lcp/base/strings.h"
#include "lcp/chase/matcher.h"

namespace lcp {
namespace search_internal {

SearchCore::SearchCore(const AccessibleSchema& acc, const CostFunction& cost,
                       const ConjunctiveQuery& query,
                       const SearchOptions& options)
    : acc_(acc),
      cost_(cost),
      query_(query),
      options_(options),
      root_chase_(options.root_chase),
      closure_chase_(options.closure_chase) {
  // One budget bounds the whole episode: the search loop and every chase
  // closure it runs charge against the same pool.
  if (options.budget != nullptr) {
    if (root_chase_.budget == nullptr) root_chase_.budget = options.budget;
    if (closure_chase_.budget == nullptr) {
      closure_chase_.budget = options.budget;
    }
  }
}

Result<SearchNode> SearchCore::InitRoot(ChaseEngine& engine,
                                        SearchStats& stats) {
  // Canonical database of Q, then the root closure with the original
  // integrity constraints ("Original Schema Reasoning First").
  CanonicalDatabase canonical = BuildCanonicalDatabase(query_, arena_);
  SearchNode root;
  root.id = 0;
  root.config = std::move(canonical.config);
  LCP_ASSIGN_OR_RETURN(
      ChaseStats root_stats,
      engine.Run(acc_.original_constraints(), root_chase_, root.config));
  stats.root_chase_firings = root_stats.firings;

  // Schema constants (and by our convention, the query's constants) are
  // accessible from the start.
  for (const Value& c : acc_.base().constants()) {
    MarkAccessible(root, arena_.InternConstant(c));
  }
  for (const Atom& atom : query_.atoms) {
    for (const Term& t : atom.terms) {
      if (t.is_constant()) {
        MarkAccessible(root, arena_.InternConstant(t.constant()));
      }
    }
  }

  // Global candidate list: every (base fact, method-on-its-relation) pair,
  // ordered by derivation depth (fact insertion index) then method cost.
  // Methods on the exclusion mask (quarantined by the source-health
  // registry) never become candidates, so every plan read off a proof is
  // guaranteed to route around them, at every worker count.
  std::vector<char> excluded(
      static_cast<size_t>(acc_.base().num_access_methods()), 0);
  for (AccessMethodId m : options_.excluded_methods) {
    if (m >= 0 && static_cast<size_t>(m) < excluded.size()) excluded[m] = 1;
  }
  for (int i = 0; i < static_cast<int>(root.config.facts().size()); ++i) {
    const Fact& fact = root.config.facts()[i];
    if (acc_.KindOf(fact.relation) != AccessibleRelationKind::kBase) continue;
    for (AccessMethodId m : acc_.base().MethodsOnRelation(fact.relation)) {
      if (excluded[m]) continue;
      all_candidates_.push_back(Candidate{i, m});
    }
  }
  std::stable_sort(
      all_candidates_.begin(), all_candidates_.end(),
      [&](const Candidate& a, const Candidate& b) {
        const AccessMethod& ma = acc_.base().access_method(a.method);
        const AccessMethod& mb = acc_.base().access_method(b.method);
        if (options_.candidate_order == CandidateOrder::kFreeAccessFirst) {
          bool fa = ma.is_free_access();
          bool fb = mb.is_free_access();
          if (fa != fb) return fa;
        }
        if (a.fact_index != b.fact_index) return a.fact_index < b.fact_index;
        if (ma.cost != mb.cost) return ma.cost < mb.cost;
        return a.method < b.method;
      });

  // Compile InferredAccQ for success detection.
  ConjunctiveQuery inferred_q = acc_.InferredAccQuery(query_);
  query_pattern_ = CompileAtoms(inferred_q.atoms, query_vars_, arena_);
  query_assignment_template_.assign(query_vars_.size(), kUnboundTerm);
  for (const std::string& v : query_.free_variables) {
    ChaseTermId term = canonical.var_to_term.at(v);
    query_assignment_template_[query_vars_.IndexOf(v)] = term;
    free_var_terms_.push_back(term);
  }

  // Compile the inferred-accessible copies of the constraints once.
  for (const Tgd& tgd : acc_.inferred_constraints()) {
    compiled_inferred_.push_back(CompileTgd(tgd, arena_));
  }

  root.label = "root";
  return root;
}

void SearchCore::MarkAccessible(SearchNode& node, ChaseTermId term) const {
  if (!node.accessible_terms.insert(term).second) return;
  node.config.Add(Fact(acc_.accessible_relation(), {term}));
}

int SearchCore::NextCandidate(SearchNode& node) const {
  while (node.cursor < all_candidates_.size()) {
    int i = static_cast<int>(node.cursor);
    ++node.cursor;
    if (node.removed.count(i) > 0) continue;
    if (CandidateFireable(node, all_candidates_[i])) return i;
  }
  return -1;
}

bool SearchCore::CandidateFireable(const SearchNode& node,
                                   const Candidate& cand) const {
  // Callers filter node.removed; here we check the semantic conditions.
  const Fact& fact = node.config.facts()[cand.fact_index];
  if (node.config.Contains(AccessedFact(fact))) return false;
  const AccessMethod& method = acc_.base().access_method(cand.method);
  for (int pos : method.input_positions) {
    if (node.accessible_terms.count(fact.terms[pos]) == 0) return false;
  }
  return true;
}

bool SearchCore::CheckSuccess(const SearchNode& node) const {
  std::vector<ChaseTermId> assignment = query_assignment_template_;
  return HasHomomorphism(query_pattern_, node.config, std::move(assignment));
}

// GCC 12's middle end, at some inlining depths, reports false-positive
// -Wrestrict / -Wmaybe-uninitialized warnings for std::variant<Command>
// relocations inside the commands.push_back calls in MakeFoundPlan and
// BuildChild (all AccessCommand members have default initializers; nothing
// here reads uninitialized state). Suppress narrowly around these functions
// to keep the build warning-clean.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

FoundPlan SearchCore::MakeFoundPlan(const SearchNode& node) const {
  Plan plan;
  plan.commands = node.commands;
  if (!query_.free_variables.empty()) {
    std::vector<std::string> out_attrs;
    for (ChaseTermId term : free_var_terms_) {
      out_attrs.push_back(arena_.DisplayName(term));
    }
    std::string out_table = StrCat("t", node.id, "_out");
    plan.commands.push_back(QueryCommand{
        out_table, RaExpr::Project(RaExpr::TempScan(node.table), out_attrs)});
    plan.output_table = out_table;
    plan.output_attrs = out_attrs;
  } else {
    plan.output_table = node.table;
  }
  return FoundPlan{std::move(plan), node.cost};
}

double SearchCore::CostOf(std::vector<Command>& commands,
                          const std::string& output_table) const {
  Plan plan;
  plan.commands = std::move(commands);
  plan.output_table = output_table;
  const double cost = cost_.Cost(plan);
  commands = std::move(plan.commands);
  return cost;
}

PricedChild SearchCore::PriceChild(SearchNode& parent, int cand_index,
                                   int child_id, SearchStats& stats) const {
  ++stats.nodes_expanded;
  PricedChild priced;
  priced.child_id = child_id;
  const Candidate& cand = all_candidates_[cand_index];
  // A copy, so the priced child points into no container of the parent.
  priced.exposed = parent.config.facts()[cand.fact_index];
  const Fact& exposed = priced.exposed;
  const AccessMethod& method = acc_.base().access_method(cand.method);

  // Facts induced by firing: all base facts over the same relation agreeing
  // with the exposed fact on the method's input positions, not yet accessed.
  // Seed the scan from the most selective positional-index bucket over the
  // method's input positions instead of the full relation extension.
  const std::vector<int>* candidates = &parent.config.FactsOf(exposed.relation);
  if (candidates->size() > ChaseConfig::kIndexProbeThreshold) {
    for (int pos : method.input_positions) {
      const std::vector<int>& bucket =
          parent.config.FactsWith(exposed.relation, pos, exposed.terms[pos]);
      if (bucket.size() < candidates->size()) candidates = &bucket;
    }
  }
  for (int idx : *candidates) {
    const Fact& d = parent.config.facts()[idx];
    bool agrees = true;
    for (int pos : method.input_positions) {
      if (d.terms[pos] != exposed.terms[pos]) {
        agrees = false;
        break;
      }
    }
    if (agrees && !parent.config.Contains(AccessedFact(d))) {
      priced.induced.push_back(d);
    }
  }
  LCP_CHECK(!priced.induced.empty());

  // Algorithm 1, line 10: the parent will not re-fire this same access for
  // any of the induced facts.
  for (int i = 0; i < static_cast<int>(all_candidates_.size()); ++i) {
    if (all_candidates_[i].method != cand.method) continue;
    const Fact& d = parent.config.facts()[all_candidates_[i].fact_index];
    if (d.relation != exposed.relation) continue;
    bool agrees = true;
    for (int pos : method.input_positions) {
      if (d.terms[pos] != exposed.terms[pos]) {
        agrees = false;
        break;
      }
    }
    if (agrees) parent.removed.insert(i);
  }

  // --- the child's access command (§4 proof-to-plan translation) ----------
  AccessCommand& access = priced.access;
  access.method = cand.method;
  const std::string raw = StrCat("t", child_id, "_raw");
  access.output_table = raw;
  const Relation& rel = acc_.base().relation(exposed.relation);
  for (int i = 0; i < rel.arity; ++i) {
    access.output_columns.emplace_back(StrCat("#p", i), i);
  }
  std::vector<std::string> input_attrs;
  for (int pos : method.input_positions) {
    ChaseTermId t = exposed.terms[pos];
    if (TermArena::IsConstant(t)) {
      access.constant_inputs.emplace_back(pos, arena_.ConstantOf(t));
    } else {
      std::string attr = arena_.DisplayName(t);
      access.input_binding.emplace_back(attr, pos);
      if (std::find(input_attrs.begin(), input_attrs.end(), attr) ==
          input_attrs.end()) {
        input_attrs.push_back(attr);
      }
    }
  }
  if (!input_attrs.empty()) {
    LCP_CHECK(!parent.table.empty())
        << "accessible null inputs require a previous table";
    access.input =
        RaExpr::Project(RaExpr::TempScan(parent.table), input_attrs);
  }

  // --- price: the parent's plan followed by this access ---------------------
  // Appended to the parent's own command list for the call, then taken
  // back, so pricing copies no command.
  parent.commands.push_back(std::move(access));
  priced.price = CostOf(parent.commands, raw);
  access = std::get<AccessCommand>(std::move(parent.commands.back()));
  parent.commands.pop_back();
  return priced;
}

Result<SearchNode> SearchCore::BuildChild(const SearchNode& parent,
                                          PricedChild priced,
                                          ChaseEngine& engine,
                                          SearchStats& stats) const {
  const Fact& exposed = priced.exposed;
  const AccessMethod& method = acc_.base().access_method(priced.access.method);

  SearchNode child;
  child.id = priced.child_id;
  child.parent = parent.id;
  child.config = parent.config;
  child.accessible_terms = parent.accessible_terms;
  child.commands = parent.commands;
  child.table = parent.table;
  child.attrs = parent.attrs;
  child.accesses = parent.accesses + 1;
  child.label =
      StrCat("expose ", FactToString(exposed, acc_.schema(), arena_), " via ",
             method.name);

  // --- configuration update ----------------------------------------------
  for (const Fact& d : priced.induced) {
    child.config.Add(AccessedFact(d));
    child.config.Add(Fact(acc_.InferredOf(d.relation), d.terms));
    for (ChaseTermId t : d.terms) MarkAccessible(child, t);
  }
  // "Fire Inferred Accessible Rules Immediately": close under the
  // InferredAcc copies of the integrity constraints.
  LCP_ASSIGN_OR_RETURN(
      ChaseStats closure_stats,
      engine.Run(compiled_inferred_, closure_chase_, child.config));
  stats.closure_firings += closure_stats.firings;

  // --- plan update (§4 proof-to-plan translation) --------------------------
  const std::string parent_table = child.table;
  const std::string raw = priced.access.output_table;
  child.commands.push_back(std::move(priced.access));

  // One derived table per induced fact, then one join command.
  const Relation& rel = acc_.base().relation(exposed.relation);
  std::vector<std::string> fact_tables;
  for (size_t fi = 0; fi < priced.induced.size(); ++fi) {
    const Fact& d = priced.induced[fi];
    RaExprPtr expr = RaExpr::TempScan(raw);
    std::vector<RaExpr::Condition> conds;
    std::unordered_map<ChaseTermId, int> first_pos;
    std::vector<std::pair<std::string, std::string>> renames;
    std::vector<std::string> proj;
    for (int i = 0; i < rel.arity; ++i) {
      ChaseTermId t = d.terms[i];
      std::string col = StrCat("#p", i);
      if (TermArena::IsConstant(t)) {
        conds.push_back(
            RaExpr::Condition::AttrEqConst(col, arena_.ConstantOf(t)));
        continue;
      }
      auto it = first_pos.find(t);
      if (it != first_pos.end()) {
        conds.push_back(
            RaExpr::Condition::AttrEqAttr(col, StrCat("#p", it->second)));
      } else {
        first_pos.emplace(t, i);
        std::string attr = arena_.DisplayName(t);
        renames.emplace_back(col, attr);
        proj.push_back(attr);
        if (std::find(child.attrs.begin(), child.attrs.end(), attr) ==
            child.attrs.end()) {
          child.attrs.push_back(attr);
        }
      }
    }
    if (!conds.empty()) expr = RaExpr::Select(std::move(expr), std::move(conds));
    if (!renames.empty()) {
      expr = RaExpr::Rename(std::move(expr), std::move(renames));
    }
    expr = RaExpr::Project(std::move(expr), std::move(proj));
    std::string table = StrCat("t", child.id, "_f", fi);
    child.commands.push_back(QueryCommand{table, std::move(expr)});
    fact_tables.push_back(std::move(table));
  }
  RaExprPtr joined =
      parent_table.empty() ? nullptr : RaExpr::TempScan(parent_table);
  for (const std::string& table : fact_tables) {
    RaExprPtr scan = RaExpr::TempScan(table);
    joined = joined ? RaExpr::Join(std::move(joined), std::move(scan))
                    : std::move(scan);
  }
  child.table = StrCat("t", child.id);
  child.commands.push_back(QueryCommand{child.table, std::move(joined)});

  // --- cost ----------------------------------------------------------------
  child.cost = CostOf(child.commands, child.table);
  LCP_DCHECK(child.cost >= priced.price)
      << "cost function not monotone: appending commands lowered "
      << priced.price << " to " << child.cost;
  return child;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

SearchCore::DominanceProbe SearchCore::MakeDominanceProbe(
    const SearchNode& node) const {
  // Build the pattern: the node's base, InferredAcc, and accessible facts,
  // with nulls as variables except the query's free-variable constants,
  // which any dominating configuration must also realize identically.
  std::unordered_set<ChaseTermId> fixed(free_var_terms_.begin(),
                                        free_var_terms_.end());
  std::unordered_map<ChaseTermId, int> var_of;
  DominanceProbe probe;
  for (const Fact& fact : node.config.facts()) {
    AccessibleRelationKind kind = acc_.KindOf(fact.relation);
    if (kind == AccessibleRelationKind::kAccessed) continue;
    PatternAtom atom;
    atom.relation = fact.relation;
    for (ChaseTermId t : fact.terms) {
      PatternAtom::Slot slot;
      if (TermArena::IsConstant(t) || fixed.count(t) > 0) {
        slot.is_variable = false;
        slot.term = t;
      } else {
        slot.is_variable = true;
        auto [it, inserted] =
            var_of.emplace(t, static_cast<int>(var_of.size()));
        slot.var_index = it->second;
      }
      atom.slots.push_back(slot);
    }
    probe.pattern.push_back(std::move(atom));
  }
  probe.num_vars = var_of.size();
  return probe;
}

std::string SearchCore::LogLine(const SearchNode& node,
                                const std::string& status) const {
  return StrCat("n", node.id,
                (node.parent >= 0 ? StrCat(" <- n", node.parent)
                                  : std::string("")),
                " [", node.label, "] facts=", node.config.size(),
                " accesses=", node.accesses, " ", status);
}

}  // namespace search_internal
}  // namespace lcp
