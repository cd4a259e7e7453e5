#include "estimator/advisor.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "bounds/normal_engine.h"

namespace lpb {
namespace {

// Statistic assembly works per atom. Each statistic is an ℓp norm of one
// atom's degree sequence, and an atom asks the statistics store for the
// cardinality assertion (ℓ1 of deg(vars | ∅)) and then, when it has more
// than one distinct variable, one simple conditional deg(vars ∖ {v} | {v})
// per variable v in ascending id order. The store's keys name columns, and
// a variable's column is its first position in the atom, so the keys of
// an atom are fixed by its *signature*: the relation plus the rank of each
// column's variable among the atom's distinct variables. R(X,Y) and
// R(Y,Z) share a signature; R(Y,X) with X < Y and R(X,X) each have their
// own.

// Rank of variable v among `vars`, the distinct variables of its atom.
int RankOf(VarSet vars, int v) { return SetSize(vars & (VarBit(v) - 1)); }

size_t HashMix(size_t h, size_t x) {
  return h ^ (x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

bool SameSignature(const Atom& a, VarSet a_vars, const Atom& b,
                   VarSet b_vars) {
  if (a.vars.size() != b.vars.size() || a.relation != b.relation) {
    return false;
  }
  for (size_t j = 0; j < a.vars.size(); ++j) {
    if (RankOf(a_vars, a.vars[j]) != RankOf(b_vars, b.vars[j])) return false;
  }
  return true;
}

// The column of each of the atom's distinct variables, indexed by rank.
void ColumnsByRank(const Atom& atom, VarSet vars, std::vector<int>& cols) {
  cols.assign(static_cast<size_t>(SetSize(vars)), 0);
  for (size_t j = atom.vars.size(); j-- > 0;) {
    cols[static_cast<size_t>(RankOf(vars, atom.vars[j]))] =
        static_cast<int>(j);
  }
}

// One store key of an atom, described by its columns by rank: `given`
// is the rank of the conditioning variable, or -1 for the cardinality
// assertion (U = ∅, V = every column).
size_t KeyHash(size_t relation_hash, const std::vector<int>& cols,
               int given) {
  size_t h = HashMix(relation_hash, given < 0 ? 0 : cols[given] + 1);
  for (int r = 0; r < static_cast<int>(cols.size()); ++r) {
    if (r != given) h = HashMix(h, static_cast<size_t>(cols[r]));
  }
  return h;
}

bool KeyMatches(const ShardedNormCache::Key& key, const std::string& relation,
                const std::vector<int>& cols, int given) {
  const auto& [key_relation, u, v] = key;
  if (u.size() != (given < 0 ? 0u : 1u) || u.size() + v.size() != cols.size()) {
    return false;
  }
  if (given >= 0 && u[0] != cols[given]) return false;
  size_t k = 0;
  for (int r = 0; r < static_cast<int>(cols.size()); ++r) {
    if (r != given && v[k++] != cols[r]) return false;
  }
  return key_relation == relation;
}

ShardedNormCache::Key MakeKey(const std::string& relation,
                              const std::vector<int>& cols, int given) {
  ShardedNormCache::Key key{relation, {}, {}};
  std::vector<int>& u = std::get<1>(key);
  std::vector<int>& v = std::get<2>(key);
  if (given >= 0) u.push_back(cols[given]);
  v.reserve(cols.size());
  for (int r = 0; r < static_cast<int>(cols.size()); ++r) {
    if (r != given) v.push_back(cols[r]);
  }
  return key;
}

// Open-addressing index over the entries of one batch (positions into a
// vector the caller owns), sized up front for at most `capacity` entries
// so it never rehashes. Each slot keeps its entry's hash, so a probe
// compares whole entries only on a hash match.
class FlatIndex {
 public:
  explicit FlatIndex(size_t capacity)
      : slots_(std::bit_ceil(2 * capacity + 2)) {}

  // The position of the entry with `hash` that `equal` accepts; when there
  // is none, records `fresh` as that entry. The bool says it was fresh.
  template <typename Equal>
  std::pair<uint32_t, bool> FindOrInsert(size_t hash, uint32_t fresh,
                                         Equal equal) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.pos == kEmpty) {
        slot = {hash, fresh};
        return {fresh, true};
      }
      if (slot.hash == hash && equal(slot.pos)) return {slot.pos, false};
    }
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    size_t hash = 0;
    uint32_t pos = kEmpty;
  };
  std::vector<Slot> slots_;
};

// Appends the statistics of one request from its cached norm vector
// (aligned with `norm_ps`, the advisor's maintained norm indices): every
// maintained norm for a conditional, only the ℓ1 entry for a cardinality
// assertion.
void AppendStats(Conditional sigma, bool cardinality, int guard_atom,
                 const std::vector<double>& log_norms,
                 const std::vector<double>& norm_ps,
                 std::vector<ConcreteStatistic>& stats) {
  for (size_t k = 0; k < norm_ps.size(); ++k) {
    if (cardinality && norm_ps[k] != 1.0) continue;
    ConcreteStatistic s;
    s.sigma = sigma;
    s.p = norm_ps[k];
    s.log_b = log_norms[k];
    s.guard_atom = guard_atom;
    stats.push_back(s);
    if (cardinality) break;
  }
}

// More variables than a VarSet holds: no statistic or bound can be built.
bool TooWide(const Query& query) { return query.num_vars() > kMaxVars; }

}  // namespace

const CardinalityAdvisor::EstimateMemo::Slot*
CardinalityAdvisor::EstimateMemo::Find(const std::vector<double>& values) {
  auto it = std::find_if(slots_.begin(), slots_.end(), [&](const Slot& slot) {
    return std::equal(slot.values.begin(), slot.values.end(), values.begin(),
                      values.end(), [](double a, double b) {
                        return std::bit_cast<uint64_t>(a) ==
                               std::bit_cast<uint64_t>(b);
                      });
  });
  if (it == slots_.end()) return nullptr;
  std::rotate(slots_.begin(), it, it + 1);
  return &slots_.front();
}

CardinalityAdvisor::EstimateMemo::Slot&
CardinalityAdvisor::EstimateMemo::Insert(std::vector<double> values) {
  if (slots_.size() == kCapacity) slots_.pop_back();
  return *slots_.insert(slots_.begin(), Slot{std::move(values)});
}

void CardinalityAdvisor::EstimateMemo::Settle(
    const std::vector<BoundResult>& results) {
  size_t kept = 0;
  for (Slot& slot : slots_) {
    if (slot.pending != kSettled) {
      const BoundResult& result = results[slot.pending];
      if (result.fallback) continue;
      slot.log2_bound = result.log2_bound;
      slot.pending = kSettled;
    }
    if (&slot != &slots_[kept]) slots_[kept] = std::move(slot);
    ++kept;
  }
  slots_.resize(kept);
}

CardinalityAdvisor::CardinalityAdvisor(const Catalog& catalog,
                                       AdvisorOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      norms_(options_.norm_cache) {}

std::optional<std::vector<double>> CardinalityAdvisor::ComputeNorms(
    const ShardedNormCache::Key& key) const {
  // Validated here, on the miss path only: a key the store holds was
  // computed from a relation that had these columns, so hits never pay
  // for the catalog lookup.
  const auto& [relation, u_cols, v_cols] = key;
  const Relation* rel = catalog_.Find(relation);
  if (rel == nullptr) return std::nullopt;
  for (const std::vector<int>* cols : {&u_cols, &v_cols}) {
    for (int c : *cols) {
      if (c < 0 || c >= rel->arity()) return std::nullopt;
    }
  }
  const DegreeSequence deg = ComputeDegreeSequence(*rel, u_cols, v_cols);
  std::vector<double> norms;
  norms.reserve(options_.norms.size());
  for (double p : options_.norms) norms.push_back(deg.Log2NormP(p));
  return norms;
}

std::optional<std::vector<ConcreteStatistic>>
CardinalityAdvisor::AssembleStatistics(const Query& query) {
  std::vector<bool> refused;
  std::vector<std::vector<ConcreteStatistic>> stats =
      AssembleStatisticsBatch(std::span<const Query>(&query, 1), &refused);
  if (refused[0]) return std::nullopt;
  return std::move(stats[0]);
}

double CardinalityAdvisor::Refuse() {
  refused_.fetch_add(1, std::memory_order_relaxed);
  return std::numeric_limits<double>::quiet_NaN();
}

std::vector<std::vector<ConcreteStatistic>>
CardinalityAdvisor::AssembleStatisticsBatch(std::span<const Query> queries,
                                            std::vector<bool>* refused) {
  // The store keys of an atom are fixed by its signature, so they are
  // enumerated once per distinct signature in the batch and deduped into
  // `distinct` in first-appearance order — the order a per-statistic scan
  // of the batch finds them in, since a signature's keys are enumerated
  // where it first appears. Every other atom costs one hash lookup; an
  // optimizer level or an admission batch is one query's subsets or a
  // few hot templates, so most atoms repeat a signature.
  struct AtomTemplate {
    const Atom* atom = nullptr;  // the first atom with this signature
    VarSet vars = 0;             // its distinct variables
    size_t first_key = 0;        // its keys' slots: template_keys[first_key..]
    size_t num_keys = 0;
    size_t num_stats = 0;        // statistics one such atom emits
    bool unresolved = false;     // some key names what the catalog lacks
  };
  const size_t cardinality_stats = static_cast<size_t>(
      std::count(options_.norms.begin(), options_.norms.end(), 1.0) > 0);
  size_t max_atoms = 0;
  size_t max_keys = 0;
  for (const Query& query : queries) {
    if (TooWide(query)) continue;
    max_atoms += query.atoms().size();
    for (const Atom& atom : query.atoms()) max_keys += 1 + atom.vars.size();
  }
  std::vector<AtomTemplate> templates;
  std::vector<uint32_t> template_keys;  // slots into `distinct`
  std::vector<uint32_t> atom_template;  // per atom of every query, in order
  atom_template.reserve(max_atoms);
  std::vector<ShardedNormCache::Key> distinct;
  FlatIndex template_index(max_atoms);
  FlatIndex key_index(max_keys);
  std::vector<int> cols;
  std::vector<bool> bad(queries.size(), false);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (TooWide(queries[i])) {
      bad[i] = true;
      continue;
    }
    for (const Atom& atom : queries[i].atoms()) {
      const VarSet vars = atom.var_set();
      const size_t relation_hash =
          std::hash<std::string_view>{}(atom.relation);
      size_t hash = relation_hash;
      for (int v : atom.vars) {
        hash = HashMix(hash, static_cast<size_t>(RankOf(vars, v)));
      }
      const auto [t, fresh] = template_index.FindOrInsert(
          hash, static_cast<uint32_t>(templates.size()), [&](uint32_t pos) {
            return SameSignature(*templates[pos].atom, templates[pos].vars,
                                 atom, vars);
          });
      atom_template.push_back(t);
      if (!fresh) continue;
      AtomTemplate tmpl;
      tmpl.atom = &atom;
      tmpl.vars = vars;
      tmpl.first_key = template_keys.size();
      ColumnsByRank(atom, vars, cols);
      const int conditionals = cols.size() > 1 ? static_cast<int>(cols.size())
                                               : 0;
      for (int given = -1; given < conditionals; ++given) {
        const auto [slot, new_key] = key_index.FindOrInsert(
            KeyHash(relation_hash, cols, given),
            static_cast<uint32_t>(distinct.size()), [&](uint32_t pos) {
              return KeyMatches(distinct[pos], atom.relation, cols, given);
            });
        if (new_key) distinct.push_back(MakeKey(atom.relation, cols, given));
        template_keys.push_back(slot);
      }
      tmpl.num_keys = template_keys.size() - tmpl.first_key;
      tmpl.num_stats =
          cardinality_stats + (tmpl.num_keys - 1) * options_.norms.size();
      templates.push_back(tmpl);
    }
  }

  // One GetBatch over the distinct keys: each touched store shard's mutex
  // is taken once for the whole batch (norm_cache.h). Misses are computed
  // outside any lock and re-inserted through one PutBatch, each under the
  // generation its GetBatch observed (a concurrent Invalidate refuses the
  // stale insert but this batch still serves its computed values). A key
  // that names no relation or column of the catalog is never cached;
  // every query that needs it is refused.
  std::vector<ShardedNormCache::Lookup> lookups = norms_.GetBatch(distinct);
  std::vector<ShardedNormCache::PutItem> puts;
  std::vector<bool> unresolved(distinct.size(), false);
  for (size_t s = 0; s < distinct.size(); ++s) {
    if (lookups[s].found) continue;
    std::optional<std::vector<double>> norms = ComputeNorms(distinct[s]);
    if (!norms) {
      unresolved[s] = true;
      continue;
    }
    lookups[s].norms = std::move(*norms);
    puts.push_back({distinct[s], lookups[s].norms, lookups[s].generation});
  }
  if (!puts.empty()) norms_.PutBatch(std::move(puts));
  for (AtomTemplate& tmpl : templates) {
    for (size_t k = 0; k < tmpl.num_keys; ++k) {
      tmpl.unresolved =
          tmpl.unresolved || unresolved[template_keys[tmpl.first_key + k]];
    }
  }

  // Per atom: the cardinality assertion, then the conditional of each
  // variable in ascending id order — the σ's are bit operations on the
  // atom's variable set, and the norms come from its template's keys.
  std::vector<std::vector<ConcreteStatistic>> out(queries.size());
  size_t next_atom = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (bad[i]) continue;
    const size_t first_atom = next_atom;
    next_atom += queries[i].atoms().size();
    size_t num_stats = 0;
    for (size_t a = first_atom; a < next_atom; ++a) {
      const AtomTemplate& tmpl = templates[atom_template[a]];
      bad[i] = bad[i] || tmpl.unresolved;
      num_stats += tmpl.num_stats;
    }
    if (bad[i]) continue;
    std::vector<ConcreteStatistic>& stats = out[i];
    stats.reserve(num_stats);
    for (int a = 0; a < queries[i].num_atoms(); ++a) {
      const VarSet vars = queries[i].atom(a).var_set();
      const AtomTemplate& tmpl =
          templates[atom_template[first_atom + static_cast<size_t>(a)]];
      const uint32_t* keys = template_keys.data() + tmpl.first_key;
      AppendStats({0, vars}, /*cardinality=*/true, a, lookups[keys[0]].norms,
                  options_.norms, stats);
      if (tmpl.num_keys == 1) continue;
      size_t k = 1;
      for (int v : VarRange(vars)) {
        AppendStats({VarBit(v), vars & ~VarBit(v)}, /*cardinality=*/false, a,
                    lookups[keys[k++]].norms, options_.norms, stats);
      }
    }
  }
  if (refused != nullptr) *refused = std::move(bad);
  return out;
}

CardinalityAdvisor::CompiledEntry& CardinalityAdvisor::LookupOrCompile(
    int n, const std::vector<ConcreteStatistic>& stats,
    const std::string& key) {
  // Hot path: a shared lock held for the find only. Entries are never
  // erased and live behind unique_ptrs, so the reference stays valid
  // after the lock is released, whatever later inserts rehash.
  {
    std::shared_lock<std::shared_mutex> lock(compiled_mu_);
    auto it = compiled_.find(key);
    if (it != compiled_.end()) {
      compiled_hits_.fetch_add(1, std::memory_order_relaxed);
      return *it->second;
    }
  }
  // Compile outside any lock — Γn compilation materializes the elemental
  // lattice, and readers of other structures must not wait for it. If
  // another thread published the same structure meanwhile, its entry wins
  // and ours is dropped.
  const BoundEngine* engine = FindBoundEngine(options_.bound_engine);
  if (engine == nullptr) engine = FindBoundEngine("auto");
  auto fresh = std::make_unique<CompiledEntry>();
  fresh->bound = engine->Compile(StructureOf(n, stats), options_.engine);
  std::unique_lock<std::shared_mutex> lock(compiled_mu_);
  auto [it, inserted] = compiled_.try_emplace(key, std::move(fresh));
  (inserted ? compiled_misses_ : compiled_hits_)
      .fetch_add(1, std::memory_order_relaxed);
  return *it->second;
}

void CardinalityAdvisor::RecordEval(const BoundResult& result) {
  estimates_.fetch_add(1, std::memory_order_relaxed);
  if (result.fallback) lp_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  if (result.pool_hit) pool_hits_.fetch_add(1, std::memory_order_relaxed);
  switch (result.eval_path) {
    case LpEvalPath::kWitness:
      witness_hits_.fetch_add(1, std::memory_order_relaxed);
      break;
    case LpEvalPath::kWarm:
      warm_resolves_.fetch_add(1, std::memory_order_relaxed);
      break;
    case LpEvalPath::kCold:
      cold_solves_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  const LpSolveStats& stats = result.lp_stats;
  if (stats.TotalPivots() > 0) {
    lp_pivots_.fetch_add(static_cast<uint64_t>(stats.TotalPivots()),
                         std::memory_order_relaxed);
  }
  if (stats.refactorizations > 0) {
    lp_refactorizations_.fetch_add(
        static_cast<uint64_t>(stats.refactorizations),
        std::memory_order_relaxed);
  }
  if (stats.ft_updates > 0) {
    lp_ft_updates_.fetch_add(static_cast<uint64_t>(stats.ft_updates),
                             std::memory_order_relaxed);
  }
  if (stats.devex_resets > 0) {
    lp_devex_resets_.fetch_add(static_cast<uint64_t>(stats.devex_resets),
                               std::memory_order_relaxed);
  }
  if (stats.warm_cut_rounds > 0) {
    lp_warm_cut_rounds_.fetch_add(static_cast<uint64_t>(stats.warm_cut_rounds),
                                  std::memory_order_relaxed);
  }
  if (stats.dual_repair_pivots > 0) {
    lp_dual_repair_pivots_.fetch_add(
        static_cast<uint64_t>(stats.dual_repair_pivots),
        std::memory_order_relaxed);
  }
  if (stats.row_appends > 0) {
    lp_row_appends_.fetch_add(static_cast<uint64_t>(stats.row_appends),
                              std::memory_order_relaxed);
  }
  if (stats.append_refactorizations > 0) {
    lp_append_refactorizations_.fetch_add(
        static_cast<uint64_t>(stats.append_refactorizations),
        std::memory_order_relaxed);
  }
}

double CardinalityAdvisor::EstimateLog2(const Query& query) {
  // The empty conjunction has exactly one (empty) answer tuple: log2 1 = 0.
  // Guarded here because no bound engine accepts a 0-variable structure.
  if (query.num_atoms() == 0 && !TooWide(query)) {
    estimates_.fetch_add(1, std::memory_order_relaxed);
    return 0.0;
  }
  const auto stats = AssembleStatistics(query);
  if (!stats) return Refuse();
  CompiledEntry& entry = LookupOrCompile(
      query.num_vars(), *stats, StructureKey(query.num_vars(), *stats));
  std::vector<double> values = ValuesOf(*stats);

  BoundResult result;
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    if (const EstimateMemo::Slot* slot = entry.memo.Find(values)) {
      estimates_.fetch_add(1, std::memory_order_relaxed);
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
      return slot->log2_bound;
    }
    result = entry.bound->Evaluate(values, /*want_h_opt=*/false);
    if (!result.fallback) {
      entry.memo.Insert(std::move(values)).log2_bound = result.log2_bound;
    }
  }
  RecordEval(result);
  return result.log2_bound;
}

double CardinalityAdvisor::Estimate(const Query& query) {
  return std::exp2(EstimateLog2(query));
}

std::vector<double> CardinalityAdvisor::EstimateLog2Batch(
    const Query& query, std::span<const std::vector<double>> log_b_batch) {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  batch_probes_.fetch_add(log_b_batch.size(), std::memory_order_relaxed);
  if (query.num_atoms() == 0 && !TooWide(query)) {
    // Empty conjunction: one empty answer tuple regardless of statistics.
    // Only the empty value vector matches the (empty) statistics set.
    std::vector<double> out(log_b_batch.size(), kInfNorm);
    for (size_t c = 0; c < log_b_batch.size(); ++c) {
      if (log_b_batch[c].empty()) out[c] = 0.0;
    }
    estimates_.fetch_add(log_b_batch.size(), std::memory_order_relaxed);
    return out;
  }
  const auto stats = AssembleStatistics(query);
  if (!stats) return std::vector<double>(log_b_batch.size(), Refuse());

  // Callers hand-construct these vectors, so enforce the alignment
  // contract here rather than in a debug-only assert downstream: a
  // mis-sized vector cannot be priced against this structure and gets the
  // "cannot bound" answer (+inf), while the well-sized rest still rides
  // the batch path.
  std::vector<double> out(log_b_batch.size(), kInfNorm);
  std::vector<size_t> valid;
  valid.reserve(log_b_batch.size());
  for (size_t c = 0; c < log_b_batch.size(); ++c) {
    if (log_b_batch[c].size() == stats->size()) valid.push_back(c);
  }
  if (valid.empty()) return out;
  std::vector<std::vector<double>> valid_values;
  if (valid.size() != log_b_batch.size()) {
    valid_values.reserve(valid.size());
    for (size_t c : valid) valid_values.push_back(log_b_batch[c]);
  }

  CompiledEntry& entry = LookupOrCompile(
      query.num_vars(), *stats, StructureKey(query.num_vars(), *stats));
  std::vector<BoundResult> results;
  {
    // One lock for the whole block: the batch is one evaluation sequence
    // on the shared compiled bound (see CompiledEntry). The common
    // all-valid case passes the caller's block through without copying.
    std::lock_guard<std::mutex> lock(entry.mu);
    results = valid.size() == log_b_batch.size()
                  ? entry.bound->EvaluateBatch(log_b_batch,
                                               /*want_h_opt=*/false)
                  : entry.bound->EvaluateBatch(valid_values,
                                               /*want_h_opt=*/false);
  }
  for (size_t k = 0; k < results.size(); ++k) {
    RecordEval(results[k]);
    out[valid[k]] = results[k].log2_bound;
  }
  return out;
}

std::vector<double> CardinalityAdvisor::EstimateLog2Batch(
    const std::vector<Query>& queries) {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  batch_probes_.fetch_add(queries.size(), std::memory_order_relaxed);
  // Batched front half: all queries' statistics assembled through one
  // norm-store GetBatch/PutBatch round (keys deduped across the batch).
  std::vector<bool> refused;
  const std::vector<std::vector<ConcreteStatistic>> all_stats =
      AssembleStatisticsBatch(queries, &refused);
  // Group queries by compiled structure (first-appearance order) so every
  // group pays one structure lookup and one per-bound lock, and its value
  // vectors ride the batch path together.
  struct Group {
    size_t first;            // the query that opened the group
    const std::string* key;  // owned by group_of
    std::vector<size_t> indices;
    std::vector<std::vector<double>> values;
  };
  std::vector<Group> groups;
  std::unordered_map<std::string, size_t> group_of;
  groups.reserve(queries.size());
  group_of.reserve(queries.size());
  std::vector<double> out(queries.size(), 0.0);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (refused[i]) {
      out[i] = Refuse();
      continue;
    }
    if (queries[i].num_atoms() == 0) {
      // Empty conjunction: log2 1 = 0, no structure to compile.
      estimates_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const std::vector<ConcreteStatistic>& stats = all_stats[i];
    std::string key = StructureKey(queries[i].num_vars(), stats);
    auto [it, inserted] = group_of.try_emplace(std::move(key), groups.size());
    if (inserted) groups.push_back(Group{i, &it->first, {}, {}});
    Group& group = groups[it->second];
    group.indices.push_back(i);
    group.values.push_back(ValuesOf(stats));
  }

  for (Group& group : groups) {
    CompiledEntry& entry = LookupOrCompile(
        queries[group.first].num_vars(), all_stats[group.first], *group.key);
    // Replay the memo over the group in order, entering each miss as a
    // pending slot: hits, misses and evictions then fall exactly where the
    // scalar sequence puts them, and a repeat of an earlier miss of the
    // group shares its evaluation. Only the misses reach the LP, through
    // one EvaluateBatch. (Only an LP failure can tell the two apart: a
    // pending slot whose evaluation falls back is dropped after the fact,
    // so a repeat later in the group shares that sound fallback answer and
    // the slot it displaced stays evicted.)
    std::vector<size_t> miss_of(group.values.size());
    std::vector<std::vector<double>> misses;
    std::vector<BoundResult> results;
    uint64_t hits = 0;
    {
      std::lock_guard<std::mutex> lock(entry.mu);
      for (size_t k = 0; k < group.values.size(); ++k) {
        if (const EstimateMemo::Slot* slot =
                entry.memo.Find(group.values[k])) {
          ++hits;
          miss_of[k] = slot->pending;
          if (slot->pending == EstimateMemo::kSettled) {
            out[group.indices[k]] = slot->log2_bound;
          }
          continue;
        }
        miss_of[k] = misses.size();
        entry.memo.Insert(group.values[k]).pending = misses.size();
        misses.push_back(std::move(group.values[k]));
      }
      if (!misses.empty()) {
        results = entry.bound->EvaluateBatch(misses, /*want_h_opt=*/false);
        entry.memo.Settle(results);
      }
    }
    estimates_.fetch_add(hits, std::memory_order_relaxed);
    memo_hits_.fetch_add(hits, std::memory_order_relaxed);
    for (const BoundResult& result : results) RecordEval(result);
    for (size_t k = 0; k < group.values.size(); ++k) {
      if (miss_of[k] != EstimateMemo::kSettled) {
        out[group.indices[k]] = results[miss_of[k]].log2_bound;
      }
    }
  }
  return out;
}

std::vector<double> CardinalityAdvisor::EstimateBatch(
    const std::vector<Query>& queries) {
  std::vector<double> out = EstimateLog2Batch(queries);
  for (double& v : out) v = std::exp2(v);
  return out;
}

CardinalityAdvisor::Explanation CardinalityAdvisor::Explain(
    const Query& query) {
  Explanation out;
  std::optional<std::vector<ConcreteStatistic>> stats =
      AssembleStatistics(query);
  if (!stats) {
    out.bound.log2_bound = Refuse();
    out.metrics = metrics();
    return out;
  }
  out.stats = std::move(*stats);
  for (ConcreteStatistic& s : out.stats) s.label = ToString(s, query);
  CompiledEntry& entry = LookupOrCompile(
      query.num_vars(), out.stats, StructureKey(query.num_vars(), out.stats));
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    out.bound = entry.bound->Evaluate(ValuesOf(out.stats),
                                       /*want_h_opt=*/true);
  }
  RecordEval(out.bound);
  out.metrics = metrics();
  out.lp_backend = LpBackendName(out.bound.lp_backend);
  return out;
}

size_t CardinalityAdvisor::CacheSize() const { return norms_.Size(); }

size_t CardinalityAdvisor::CacheBytes() const { return norms_.Bytes(); }

size_t CardinalityAdvisor::CompiledCacheSize() const {
  std::shared_lock<std::shared_mutex> lock(compiled_mu_);
  return compiled_.size();
}

size_t CardinalityAdvisor::MemoSize() const {
  std::shared_lock<std::shared_mutex> map_lock(compiled_mu_);
  size_t slots = 0;
  for (const auto& [key, entry] : compiled_) {
    std::lock_guard<std::mutex> lock(entry->mu);
    slots += entry->memo.size();
  }
  return slots;
}

AdvisorMetrics CardinalityAdvisor::metrics() const {
  AdvisorMetrics m;
  m.estimates = estimates_.load(std::memory_order_relaxed);
  m.batch_calls = batch_calls_.load(std::memory_order_relaxed);
  m.batch_probes = batch_probes_.load(std::memory_order_relaxed);
  m.compiled_hits = compiled_hits_.load(std::memory_order_relaxed);
  m.compiled_misses = compiled_misses_.load(std::memory_order_relaxed);
  m.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  m.witness_hits = witness_hits_.load(std::memory_order_relaxed);
  m.pool_hits = pool_hits_.load(std::memory_order_relaxed);
  m.warm_resolves = warm_resolves_.load(std::memory_order_relaxed);
  m.cold_solves = cold_solves_.load(std::memory_order_relaxed);
  m.lp_fallbacks = lp_fallbacks_.load(std::memory_order_relaxed);
  m.refused = refused_.load(std::memory_order_relaxed);
  m.norm_evictions = norms_.Evictions();
  m.norm_hits = norms_.Hits();
  m.norm_misses = norms_.Misses();
  m.norm_shard_locks = norms_.LockAcquisitions();
  m.lp_pivots = lp_pivots_.load(std::memory_order_relaxed);
  m.lp_refactorizations =
      lp_refactorizations_.load(std::memory_order_relaxed);
  m.lp_ft_updates = lp_ft_updates_.load(std::memory_order_relaxed);
  m.lp_devex_resets = lp_devex_resets_.load(std::memory_order_relaxed);
  m.lp_warm_cut_rounds = lp_warm_cut_rounds_.load(std::memory_order_relaxed);
  m.lp_dual_repair_pivots =
      lp_dual_repair_pivots_.load(std::memory_order_relaxed);
  m.lp_row_appends = lp_row_appends_.load(std::memory_order_relaxed);
  m.lp_append_refactorizations =
      lp_append_refactorizations_.load(std::memory_order_relaxed);
  return m;
}

void CardinalityAdvisor::Invalidate(const std::string& relation) {
  norms_.InvalidateRelation(relation);
}

}  // namespace lpb
