#include "workloads.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "lcp/base/check.h"
#include "lcp/data/query_eval.h"
#include "lcp/schema/parser.h"
#include "lcp/workload/scenarios.h"

namespace perfbench {

namespace {

using lcp::Atom;
using lcp::ConjunctiveQuery;
using lcp::Term;
using lcp::Tuple;
using lcp::Value;

constexpr int kMultiSources = 20;
constexpr int kLargeRFacts = 16384;
constexpr uint64_t kColdCostSeed = 1;

/// splitmix64: derives independent stream seeds from one run seed.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename T>
T Unwrap(lcp::Result<T> result) {
  LCP_CHECK(result.ok());
  return std::move(result).value();
}

void Finish(Workload& w) {
  w.accessible = std::make_unique<lcp::AccessibleSchema>(
      Unwrap(lcp::AccessibleSchema::Build(*w.schema,
                                          lcp::AccessibleVariant::kStandard)));
  w.cost = std::make_unique<lcp::SimpleCostFunction>(w.schema.get());
}

/// Examples 1/4: Profinfo(eid, onum, lname) behind an eid-input method,
/// Udirect(eid, lname) free, Profinfo -> Udirect. About 32 facts per
/// relation, so one execution touches a handful of bindings.
void BuildWarmSmall(Workload& w) {
  auto scenario = Unwrap(lcp::MakeProfinfoScenario(false));
  w.schema = std::move(scenario.schema);
  w.instance = std::make_unique<lcp::Instance>(w.schema.get());
  std::mt19937_64 prng(Mix(w.seed));
  const char* names[] = {"smith", "jones", "lee",   "patel",
                         "garcia", "kim",  "brown", "wong"};
  std::vector<int64_t> eids(256);
  std::iota(eids.begin(), eids.end(), 0);
  std::shuffle(eids.begin(), eids.end(), prng);
  // Names are dealt round-robin, so every seed has the same answer sizes
  // (four "smith" rows, say) and only which eids carry them varies.
  for (int i = 0; i < 32; ++i) {
    const Value eid = Value::Int(eids[i]);
    const Value lname = Value::Str(names[i % 8]);
    w.instance->AddFact(0, Tuple{eid, Value::Int(prng() % 32), lname});
    w.instance->AddFact(1, Tuple{eid, lname});
  }
  // Directory entries with no Profinfo row: accessed, never joined.
  for (int i = 32; i < 40; ++i) {
    w.instance->AddFact(1,
                        Tuple{Value::Int(eids[i]), Value::Str(names[i % 8])});
  }
  LCP_CHECK(lcp::SatisfiesConstraints(*w.instance));
  for (const char* text : {
           "Q(eid) :- Profinfo(eid, onum, \"smith\")",
           "Q() :- Profinfo(eid, onum, lname)",
           "Q(eid, lname) :- Profinfo(eid, onum, lname)",
           "Q(onum, lname) :- Profinfo(eid, onum, lname), Udirect(eid, lname)",
           "Q(lname) :- Udirect(eid, lname)",
       }) {
    w.shapes.push_back(Unwrap(lcp::ParseQuery(*w.schema, text)));
  }
  w.warmup_requests_per_client = 50;
  w.replay_requests = 5000;
}

/// Example 5 / Figure 1 with seeded directory costs in 1..8. Plan-only;
/// every request is a new fingerprint, so every request searches.
void BuildColdSearch(Workload& w) {
  // The costs come from a fixed seed, not the run seed: the search's work
  // depends on where the cheap directories sit in its candidate order
  // (nodes expanded per search ranged 107-160 over five run seeds), and a
  // run seed must not change how much work a request is. The run seed
  // varies the fresh constants and the extra atoms.
  std::mt19937_64 prng(Mix(kColdCostSeed));
  std::vector<double> costs(kMultiSources);
  for (double& c : costs) c = static_cast<double>(1 + prng() % 8);
  auto scenario =
      Unwrap(lcp::MakeMultiSourceScenario(kMultiSources, costs.data(), 1.0));
  w.schema = std::move(scenario.schema);
  w.execute = false;
  w.fresh_fingerprints = true;
  // The cheapest plan reads the cheapest directory, then Profinfo once;
  // the extra directory atoms follow from Profinfo -> Udirect_j.
  w.expected_cost = *std::min_element(costs.begin(), costs.end()) + 1.0;
  // Shape k = a query with k extra directory atoms.
  w.shapes.resize(3);
  // Enough warm-up inserts to fill the 1024-entry cache, so the timed
  // phase runs with LRU evictions in steady state.
  w.warmup_requests_per_client = 300;
  w.replay_requests = 200;
}

/// The R/S/T join chain of bench_runtime.cc: R free, S and T keyed, each
/// join doubling the rows, so one request answers 4 * |R| rows.
void BuildWarmLarge(Workload& w) {
  w.schema = std::make_unique<lcp::Schema>();
  const auto r = Unwrap(w.schema->AddRelation("R", 2));
  const auto s = Unwrap(w.schema->AddRelation("S", 2));
  const auto t = Unwrap(w.schema->AddRelation("T", 2));
  Unwrap(w.schema->AddAccessMethod("mt_r_free", r, {}, 2.0));
  Unwrap(w.schema->AddAccessMethod("mt_s_by0", s, {0}, 5.0));
  Unwrap(w.schema->AddAccessMethod("mt_t_by0", t, {0}, 5.0));
  w.instance = std::make_unique<lcp::Instance>(w.schema.get());
  std::mt19937_64 prng(Mix(w.seed));
  const int keys = kLargeRFacts / 4;
  for (int i = 0; i < kLargeRFacts; ++i) {
    w.instance->AddFact(r, Tuple{Value::Int(i), Value::Int(prng() % keys)});
  }
  for (int64_t b = 0; b < keys; ++b) {
    for (int64_t j = 0; j < 2; ++j) {
      const int64_t c = b * 2 + j;
      w.instance->AddFact(s, Tuple{Value::Int(b), Value::Int(c)});
      w.instance->AddFact(t, Tuple{Value::Int(c), Value::Int(c % 16)});
      w.instance->AddFact(t, Tuple{Value::Int(c), Value::Int(16 + c % 16)});
    }
  }
  w.shapes.push_back(Unwrap(
      lcp::ParseQuery(*w.schema, "Q(a, d) :- R(a, b), S(b, c), T(c, d)")));
  // Two concurrent rounds put a request on every worker, so each worker's
  // source has built its per-method indexes before timing starts.
  w.warmup_requests_per_client = 2;
  w.replay_requests = 24;
}

/// A fresh α-renaming of `query`: permuted variable names under `prefix`
/// and shuffled atoms. Free variables keep their answer positions.
ConjunctiveQuery Rename(const ConjunctiveQuery& query, std::mt19937_64& prng,
                        const std::string& prefix) {
  const std::vector<std::string> vars = query.AllVariables();
  std::vector<size_t> perm(vars.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), prng);
  std::unordered_map<std::string, std::string> names;
  for (size_t i = 0; i < vars.size(); ++i) {
    names[vars[i]] = prefix + std::to_string(perm[i]);
  }
  ConjunctiveQuery out;
  out.name = query.name;
  for (const std::string& v : query.free_variables) {
    out.free_variables.push_back(names.at(v));
  }
  for (const Atom& atom : query.atoms) {
    Atom renamed(atom.relation, {});
    for (const Term& term : atom.terms) {
      renamed.terms.push_back(
          term.is_variable() ? Term::Var(names.at(term.var())) : term);
    }
    out.atoms.push_back(std::move(renamed));
  }
  std::shuffle(out.atoms.begin(), out.atoms.end(), prng);
  return out;
}

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  return Mix(seed ^ Mix(salt));
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"warm_small", "cold_search",
                                                 "warm_large"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  w->seed = seed;
  if (name == "warm_small") {
    BuildWarmSmall(*w);
  } else if (name == "cold_search") {
    BuildColdSearch(*w);
  } else if (name == "warm_large") {
    BuildWarmLarge(*w);
  } else {
    return nullptr;
  }
  Finish(*w);
  if (w->fresh_fingerprints) {
    // Representatives of the fresh-fingerprint shapes come from a stream of
    // their own, so they never collide with a client's request.
    RequestStream stream(*w, DeriveSeed(seed, 0x5ba9e5));
    while (w->shapes[0].atoms.empty() || w->shapes[1].atoms.empty() ||
           w->shapes[2].atoms.empty()) {
      Request request = stream.Next();
      w->shapes[request.shape] = std::move(request.query);
    }
  }
  return w;
}

RequestStream::RequestStream(const Workload& workload, uint64_t seed)
    : workload_(&workload), prng_(Mix(seed)), stream_tag_(Mix(seed + 1)) {}

Request RequestStream::Next() {
  Request request;
  const uint64_t n = counter_++;
  const std::string prefix = "v" + std::to_string(n % 997) + "_";
  if (!workload_->fresh_fingerprints) {
    request.shape = static_cast<int>(prng_() % workload_->shapes.size());
    request.query = Rename(workload_->shapes[request.shape], prng_, prefix);
    return request;
  }
  // Q() :- Profinfo(e, o, "<fresh>"), plus 0-2 extra Udirect_j(e, x) atoms.
  const lcp::Schema& schema = *workload_->schema;
  const std::string constant =
      "k" + std::to_string(stream_tag_) + "." + std::to_string(n);
  request.shape = static_cast<int>(prng_() % 3);
  ConjunctiveQuery& q = request.query;
  q.atoms.push_back(Atom(Unwrap(schema.RelationByName("Profinfo")),
                         {Term::Var(prefix + "e"), Term::Var(prefix + "o"),
                          Term::Const(Value::Str(constant))}));
  for (int k = 0; k < request.shape; ++k) {
    const int j = 1 + static_cast<int>(prng_() % kMultiSources);
    q.atoms.push_back(
        Atom(Unwrap(schema.RelationByName("Udirect" + std::to_string(j))),
             {Term::Var(prefix + "e"),
              Term::Var(prefix + "x" + std::to_string(k))}));
  }
  std::shuffle(q.atoms.begin(), q.atoms.end(), prng_);
  return request;
}

std::vector<Tuple> OracleAnswer(const Workload& workload, int shape) {
  LCP_CHECK(workload.instance != nullptr);
  std::vector<Tuple> answer;
  if (workload.name != "warm_large") {
    answer = lcp::EvaluateQuery(workload.shapes[shape], *workload.instance);
  } else {
    // Q(a, d) :- R(a, b), S(b, c), T(c, d) as a hash join over the facts.
    std::unordered_map<Value, std::vector<Value>, lcp::ValueHash> s_by_b;
    std::unordered_map<Value, std::vector<Value>, lcp::ValueHash> t_by_c;
    for (const Tuple& f : workload.instance->relation(1).tuples()) {
      s_by_b[f[0]].push_back(f[1]);
    }
    for (const Tuple& f : workload.instance->relation(2).tuples()) {
      t_by_c[f[0]].push_back(f[1]);
    }
    for (const Tuple& f : workload.instance->relation(0).tuples()) {
      auto s = s_by_b.find(f[1]);
      if (s == s_by_b.end()) continue;
      for (const Value& c : s->second) {
        auto t = t_by_c.find(c);
        if (t == t_by_c.end()) continue;
        for (const Value& d : t->second) answer.push_back(Tuple{f[0], d});
      }
    }
  }
  std::sort(answer.begin(), answer.end());
  answer.erase(std::unique(answer.begin(), answer.end()), answer.end());
  return answer;
}

std::vector<Tuple> SortedRows(const lcp::Table& table) {
  std::vector<Tuple> rows = table.rows();
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace perfbench
