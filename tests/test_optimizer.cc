#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "datagen/job_gen.h"
#include "estimator/advisor.h"
#include "exec/hash_join.h"
#include "optimizer/join_order.h"
#include "query/parser.h"
#include "relation/catalog.h"

namespace lpb {
namespace {

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.has_value());
  return *q;
}

Relation UnaryRelation(const std::string& name, Value rows) {
  Relation r(name, {"a"});
  for (Value i = 0; i < rows; ++i) r.AddRow({i});
  return r;
}

uint64_t PeakIntermediate(const HashJoinStats& s) {
  uint64_t m = 0;
  for (uint64_t v : s.intermediate_sizes) m = std::max(m, v);
  return m;
}

bool IsPermutation(const std::vector<int>& order, int n) {
  if (static_cast<int>(order.size()) != n) return false;
  std::vector<bool> seen(static_cast<size_t>(n), false);
  for (int a : order) {
    if (a < 0 || a >= n || seen[static_cast<size_t>(a)]) return false;
    seen[static_cast<size_t>(a)] = true;
  }
  return true;
}

// The cost-model arithmetic, recomputed independently of JoinCost so the
// exhaustive cross-checks don't inherit an optimizer bug.
double OperatorCost(const JoinOrderOptions& opt, double lrows, double rrows) {
  const double build = std::min(lrows, rrows);
  const double probe = std::max(lrows, rrows);
  const double hash =
      opt.hash_build_weight * build + opt.hash_probe_weight * probe;
  const double merge = opt.sort_weight * (lrows * std::log2(lrows + 2.0) +
                                          rrows * std::log2(rrows + 2.0));
  return std::min(hash, merge);
}

// Exhaustive minimum total cost over every bushy plan shape for `s`,
// pricing subplans with the same memoized cardinalities the DP used (so
// the check compares plan *choice*, not LP probe noise).
double BestBushyCost(AtomSet s, const std::map<AtomSet, DpEntry>& memo,
                     const JoinOrderOptions& opt,
                     std::map<AtomSet, double>& best) {
  auto cached = best.find(s);
  if (cached != best.end()) return cached->second;
  const DpEntry& e = memo.at(s);
  if (e.leaf_atom >= 0) return best[s] = e.rows;
  double out = std::numeric_limits<double>::infinity();
  const AtomSet low = VarBit(LowestVar(s));
  for (AtomSet left = (s - 1) & s; left != 0; left = (left - 1) & s) {
    if (!Intersects(left, low)) continue;  // each unordered pair once
    const AtomSet right = s & ~left;
    auto lit = memo.find(left);
    auto rit = memo.find(right);
    if (lit == memo.end() || rit == memo.end()) continue;
    if (!Intersects(lit->second.vars, rit->second.vars)) continue;
    const double c = BestBushyCost(left, memo, opt, best) +
                     BestBushyCost(right, memo, opt, best) +
                     OperatorCost(opt, lit->second.rows, rit->second.rows) +
                     e.rows;
    out = std::min(out, c);
  }
  return best[s] = out;
}

// Exhaustive minimum peak intermediate over every left-deep order whose
// prefixes stay connected (exactly the orders the DP searches): the
// driving leaf plus every prefix join output, cardinalities from the memo.
double BestLeftDeepPeak(const Query& q,
                        const std::map<AtomSet, DpEntry>& memo) {
  const int m = q.num_atoms();
  std::vector<int> perm(static_cast<size_t>(m));
  std::iota(perm.begin(), perm.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    AtomSet mask = 0;
    double peak = 0.0;
    bool ok = true;
    for (int i = 0; i < m; ++i) {
      mask |= VarBit(perm[static_cast<size_t>(i)]);
      auto it = memo.find(mask);
      if (it == memo.end()) {  // disconnected prefix: not a DP order
        ok = false;
        break;
      }
      peak = std::max(peak, it->second.rows);
    }
    if (ok) best = std::min(best, peak);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

// The left-deep DP as it ran before it visited single-atom splits only:
// every submask of every candidate, filtered down to left-deep shapes. It
// is the oracle the optimizer's O(k) split walk must match exactly: same
// candidates and probe batches, same partitions examined, and the same
// eps-ties broken the same way, so the same memo and plan.
struct SubmaskWalkResult {
  std::map<AtomSet, DpEntry> memo;
  uint64_t probes = 0;
  uint64_t partitions_tried = 0;
  uint64_t memo_hits = 0;
};

SubmaskWalkResult SubmaskWalkLeftDeep(const Query& query,
                                      CardinalityModel& model,
                                      const JoinOrderOptions& opt) {
  auto saturating_exp2 = [](double log2) {
    if (!(log2 < 120.0)) return std::exp2(120.0);
    return std::exp2(std::max(log2, -120.0));
  };
  auto tolerant_less = [](double a, double b) {
    return a < b - 1e-5 * std::max({std::abs(a), std::abs(b), 1.0});
  };
  auto improves = [&](double cost, double tiebreak, double best_cost,
                      double best_tiebreak) {
    if (tolerant_less(cost, best_cost)) return true;
    if (tolerant_less(best_cost, cost)) return false;
    return tolerant_less(tiebreak, best_tiebreak);
  };
  const int m = query.num_atoms();
  const AtomSet full = FullSet(m);
  // Cross products are admissible only in a disconnected query.
  AtomSet reached = 1;
  VarSet reached_vars = query.atom(0).var_set();
  for (bool grew = true; grew;) {
    grew = false;
    for (int a = 0; a < m; ++a) {
      if (!Contains(reached, a) &&
          Intersects(query.atom(a).var_set(), reached_vars)) {
        reached |= VarBit(a);
        reached_vars |= query.atom(a).var_set();
        grew = true;
      }
    }
  }
  const bool allow_cross = reached != full;

  SubmaskWalkResult out;
  std::map<AtomSet, DpEntry>& memo = out.memo;
  for (int k = 1; k <= m; ++k) {
    std::vector<AtomSet> candidates;
    std::vector<Query> probes;
    for (AtomSet s = 1; s <= full; ++s) {
      if (SetSize(s) != k) continue;
      bool admissible = k == 1;
      const AtomSet low = VarBit(LowestVar(s));
      for (AtomSet left = (s - 1) & s; left != 0 && !admissible && k > 1;
           left = (left - 1) & s) {
        if (!Intersects(left, low)) continue;
        const AtomSet right = s & ~left;
        if (SetSize(right) != 1 && SetSize(left) != 1) continue;
        auto lit = memo.find(left);
        auto rit = memo.find(right);
        if (lit == memo.end() || rit == memo.end()) continue;
        admissible =
            Intersects(lit->second.vars, rit->second.vars) || allow_cross;
      }
      if (!admissible) continue;
      candidates.push_back(s);
      probes.push_back(InducedSubquery(query, s));
    }
    if (candidates.empty()) continue;
    const std::vector<double> bounds = model.EstimateLog2Batch(probes);
    out.probes += candidates.size();
    for (size_t c = 0; c < candidates.size(); ++c) {
      const AtomSet s = candidates[c];
      DpEntry entry;
      entry.atoms = s;
      entry.log2_rows = bounds[c];
      entry.rows = saturating_exp2(bounds[c]);
      for (int a : VarRange(s)) entry.vars |= query.atom(a).var_set();
      if (k == 1) {
        entry.leaf_atom = LowestVar(s);
        entry.cost = entry.rows;
        entry.tiebreak = entry.rows;
        memo.emplace(s, entry);
        continue;
      }
      bool found = false;
      for (AtomSet left = (s - 1) & s; left != 0; left = (left - 1) & s) {
        const AtomSet right = s & ~left;
        if (SetSize(right) != 1) continue;
        ++out.partitions_tried;
        auto lit = memo.find(left);
        auto rit = memo.find(right);
        if (lit == memo.end() || rit == memo.end()) continue;
        ++out.memo_hits;
        const DpEntry& l = lit->second;
        const DpEntry& r = rit->second;
        const bool connected = Intersects(l.vars, r.vars);
        if (!connected && !allow_cross) continue;
        double cost = 0.0;
        double tiebreak = 0.0;
        JoinMethod method = JoinMethod::kHash;
        if (opt.objective == CostObjective::kPeakIntermediate) {
          cost = std::max(entry.rows, l.cost);  // the right leaf is a scan
          tiebreak = l.tiebreak + entry.rows;
        } else {
          const double hash =
              opt.hash_build_weight * std::min(l.rows, r.rows) +
              opt.hash_probe_weight * std::max(l.rows, r.rows);
          const double merge =
              opt.sort_weight * (l.rows * std::log2(l.rows + 2.0) +
                                 r.rows * std::log2(r.rows + 2.0));
          method = hash <= merge ? JoinMethod::kHash : JoinMethod::kMerge;
          cost = l.cost + r.cost + std::min(hash, merge) + entry.rows;
        }
        if (!found || improves(cost, tiebreak, entry.cost, entry.tiebreak)) {
          found = true;
          entry.cost = cost;
          entry.tiebreak = tiebreak;
          entry.left = left;
          entry.right = right;
          entry.method = method;
          entry.cross_product = !connected;
        }
      }
      if (found) memo.emplace(s, entry);
    }
  }
  return out;
}

void AppendOracleLeaves(const std::map<AtomSet, DpEntry>& memo, AtomSet s,
                        std::vector<int>& order) {
  const DpEntry& e = memo.at(s);
  if (e.leaf_atom >= 0) {
    order.push_back(e.leaf_atom);
    return;
  }
  AppendOracleLeaves(memo, e.left, order);
  AppendOracleLeaves(memo, e.right, order);
}

// Records every probe batch (as probe texts) and answers through `inner`,
// remembering each answer by probe text so a second DP over the same
// template sees bitwise the same cardinalities whatever the advisor's
// cached bases did in between.
class RecordingModel : public CardinalityModel {
 public:
  explicit RecordingModel(CardinalityModel& inner) : inner_(inner) {}
  std::vector<double> EstimateLog2Batch(
      const std::vector<Query>& probes) override {
    std::vector<std::string> texts;
    std::vector<Query> fresh;
    for (const Query& probe : probes) {
      texts.push_back(probe.ToString());
      if (!answers_.count(texts.back())) fresh.push_back(probe);
    }
    if (!fresh.empty()) {
      const std::vector<double> bounds = inner_.EstimateLog2Batch(fresh);
      for (size_t i = 0; i < fresh.size(); ++i) {
        answers_.emplace(fresh[i].ToString(), bounds[i]);
      }
    }
    std::vector<double> out;
    for (const std::string& text : texts) out.push_back(answers_.at(text));
    batches.push_back(std::move(texts));
    return out;
  }
  std::vector<std::vector<std::string>> batches;

 private:
  CardinalityModel& inner_;
  std::map<std::string, double> answers_;
};

class ConstantModel : public CardinalityModel {
 public:
  std::vector<double> EstimateLog2Batch(
      const std::vector<Query>& probes) override {
    return std::vector<double>(probes.size(), 10.0);
  }
};

// Runs the left-deep DP and the submask-walk oracle on every template
// under both objectives and asserts they agree on everything observable.
void ExpectLeftDeepMatchesSubmaskWalk(const std::vector<Query>& queries,
                                      CardinalityModel& inner) {
  for (const CostObjective objective :
       {CostObjective::kPeakIntermediate, CostObjective::kTotalCost}) {
    JoinOrderOptions opt;
    opt.left_deep = true;
    opt.objective = objective;
    for (const Query& q : queries) {
      RecordingModel model(inner);
      const SubmaskWalkResult want = SubmaskWalkLeftDeep(q, model, opt);
      const auto want_batches = model.batches;
      model.batches.clear();
      JoinOrderOptimizer dp(q, model, opt);
      const JoinPlan& plan = dp.Optimize();
      EXPECT_EQ(model.batches, want_batches) << q.name();
      EXPECT_EQ(dp.stats().probes, want.probes) << q.name();
      EXPECT_EQ(dp.stats().partitions_tried, want.partitions_tried)
          << q.name();
      EXPECT_EQ(dp.stats().memo_hits, want.memo_hits) << q.name();
      ASSERT_EQ(dp.memo().size(), want.memo.size()) << q.name();
      for (const auto& [mask, entry] : want.memo) {
        const DpEntry& got = dp.memo().at(mask);
        EXPECT_EQ(got.left, entry.left) << q.name() << " mask " << mask;
        EXPECT_EQ(got.right, entry.right) << q.name() << " mask " << mask;
        EXPECT_EQ(got.cost, entry.cost) << q.name() << " mask " << mask;
        EXPECT_EQ(got.tiebreak, entry.tiebreak) << q.name();
        EXPECT_EQ(got.method, entry.method) << q.name();
        EXPECT_EQ(got.cross_product, entry.cross_product) << q.name();
      }
      std::vector<int> want_order;
      AppendOracleLeaves(want.memo, FullSet(q.num_atoms()), want_order);
      EXPECT_EQ(plan.AtomOrder(), want_order) << q.name();
      EXPECT_EQ(plan.cost(), want.memo.at(FullSet(q.num_atoms())).cost);
    }
  }
}

TEST(JoinOrderOptimizer, LeftDeepSplitsMatchTheSubmaskWalkOnBounds) {
  JobWorkloadOptions jopt;
  jopt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(jopt);
  ASSERT_EQ(wl.queries.size(), 33u);
  CardinalityAdvisor advisor(wl.catalog);
  AdvisorCardinalityModel model(advisor);
  ExpectLeftDeepMatchesSubmaskWalk(wl.queries, model);
}

TEST(JoinOrderOptimizer, LeftDeepSplitsMatchTheSubmaskWalkOnTies) {
  // Every cost ties, so only the order partitions are visited in decides.
  // Two disconnected queries join the templates: their cross-product
  // partitions are admissible, so every subset is a candidate.
  std::vector<std::string> texts = JobQueryTexts();
  ASSERT_EQ(texts.size(), 33u);
  texts.push_back("A(X), B(Y), C(Z), D(W)");
  texts.push_back("R(X,Y), S(Y,Z), T(W,V), U(V,Q), A(P)");
  std::vector<Query> queries;
  for (const std::string& text : texts) queries.push_back(Parse(text));
  ConstantModel model;
  ExpectLeftDeepMatchesSubmaskWalk(queries, model);
}

TEST(JoinOrderOptimizer, TotalCostOptimalVsExhaustiveOnSmallJobQueries) {
  JobWorkloadOptions jopt;
  jopt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(jopt);
  CardinalityAdvisor advisor(wl.catalog);
  AdvisorCardinalityModel model(advisor);
  int tested = 0;
  for (const Query& q : wl.queries) {
    if (q.num_atoms() > 6) continue;
    JoinOrderOptimizer dp(q, model);
    const JoinPlan& plan = dp.Optimize();
    ASSERT_FALSE(plan.empty()) << q.name();
    std::map<AtomSet, double> best;
    const double exhaustive = BestBushyCost(
        FullSet(q.num_atoms()), dp.memo(), JoinOrderOptions{}, best);
    // Exact optimality up to the DP's eps-tie rule (costs within ~1e-5
    // relative are ties, so backend solver noise can't flip plans).
    EXPECT_NEAR(plan.cost(), exhaustive, exhaustive * 1e-4) << q.name();
    EXPECT_GE(plan.cost(), exhaustive * (1.0 - 1e-12)) << q.name();
    EXPECT_TRUE(IsPermutation(plan.AtomOrder(), q.num_atoms())) << q.name();
    ++tested;
  }
  EXPECT_GE(tested, 3);
}

TEST(JoinOrderOptimizer, PeakObjectiveOptimalVsExhaustiveOrders) {
  JobWorkloadOptions jopt;
  jopt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(jopt);
  CardinalityAdvisor advisor(wl.catalog);
  AdvisorCardinalityModel model(advisor);
  JoinOrderOptions opt;
  opt.left_deep = true;
  opt.objective = CostObjective::kPeakIntermediate;
  int tested = 0;
  for (const Query& q : wl.queries) {
    if (q.num_atoms() > 6) continue;
    JoinOrderOptimizer dp(q, model, opt);
    const JoinPlan& plan = dp.Optimize();
    const double exhaustive = BestLeftDeepPeak(q, dp.memo());
    EXPECT_NEAR(plan.cost(), exhaustive, exhaustive * 1e-4) << q.name();
    EXPECT_GE(plan.cost(), exhaustive * (1.0 - 1e-12)) << q.name();
    ++tested;
  }
  EXPECT_GE(tested, 3);
}

TEST(JoinOrderOptimizer, OneAdvisorBatchPerDpLevel) {
  JobWorkloadOptions jopt;
  jopt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(jopt);
  CardinalityAdvisor advisor(wl.catalog);
  AdvisorCardinalityModel model(advisor);
  int tested = 0;
  for (const Query& q : wl.queries) {
    if (q.num_atoms() > 8) continue;
    const AdvisorMetrics before = advisor.metrics();
    JoinOrderOptimizer dp(q, model);
    dp.Optimize();
    const AdvisorMetrics after = advisor.metrics();
    const OptimizerStats& stats = dp.stats();
    // Exactly one EstimateLog2Batch call per DP level, covering every
    // candidate of that level — verified against the advisor's own
    // counters, not just the optimizer's bookkeeping.
    EXPECT_EQ(after.batch_calls - before.batch_calls,
              static_cast<uint64_t>(stats.dp_levels))
        << q.name();
    EXPECT_EQ(after.batch_probes - before.batch_probes, stats.probes)
        << q.name();
    EXPECT_EQ(stats.batch_calls, static_cast<uint64_t>(stats.dp_levels));
    EXPECT_EQ(stats.dp_levels, q.num_atoms()) << q.name();
    uint64_t level_sum = 0;
    for (uint64_t p : stats.probes_per_level) level_sum += p;
    EXPECT_EQ(level_sum, stats.probes);
    ++tested;
    if (tested >= 4) break;
  }
  EXPECT_GE(tested, 2);
}

TEST(JoinOrderOptimizer, PlanBitwiseStableAcrossLpBackends) {
  JobWorkloadOptions jopt;
  jopt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(jopt);
  AdvisorOptions dense_opts;
  dense_opts.engine.simplex.backend = LpBackendKind::kDense;
  AdvisorOptions revised_opts;
  revised_opts.engine.simplex.backend = LpBackendKind::kRevised;
  CardinalityAdvisor dense_advisor(wl.catalog, dense_opts);
  CardinalityAdvisor revised_advisor(wl.catalog, revised_opts);
  AdvisorCardinalityModel dense_model(dense_advisor);
  AdvisorCardinalityModel revised_model(revised_advisor);
  int tested = 0;
  for (const Query& q : wl.queries) {
    if (q.num_atoms() > 7) continue;
    JoinOrderOptimizer dense_dp(q, dense_model);
    JoinOrderOptimizer revised_dp(q, revised_model);
    const JoinPlan& dense_plan = dense_dp.Optimize();
    const JoinPlan& revised_plan = revised_dp.Optimize();
    ASSERT_EQ(dense_plan.nodes.size(), revised_plan.nodes.size()) << q.name();
    for (size_t i = 0; i < dense_plan.nodes.size(); ++i) {
      const JoinPlan::Node& a = dense_plan.nodes[i];
      const JoinPlan::Node& b = revised_plan.nodes[i];
      EXPECT_EQ(a.atoms, b.atoms) << q.name() << " node " << i;
      EXPECT_EQ(a.left, b.left) << q.name() << " node " << i;
      EXPECT_EQ(a.right, b.right) << q.name() << " node " << i;
      EXPECT_EQ(a.leaf_atom, b.leaf_atom) << q.name() << " node " << i;
      EXPECT_EQ(a.method, b.method) << q.name() << " node " << i;
    }
    ++tested;
    if (tested >= 3) break;
  }
  EXPECT_GE(tested, 2);
}

TEST(JoinOrderOptimizer, PeakNotWorseThanGreedyOnJobScoringSet) {
  JobWorkloadOptions jopt;
  jopt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(jopt);
  CardinalityAdvisor advisor(wl.catalog);
  AdvisorCardinalityModel model(advisor);
  JoinOrderOptions opt;
  opt.left_deep = true;
  opt.objective = CostObjective::kPeakIntermediate;
  int scored = 0;
  for (const Query& q : wl.queries) {
    if (q.num_atoms() > 8) continue;
    JoinOrderOptimizer dp(q, model, opt);
    const JoinPlan& plan = dp.Optimize();
    const std::vector<int> greedy = GreedyJoinOrder(q, model);
    // The greedy order's prefixes are connected, so the order lives inside
    // the DP's left-deep search space: the DP's estimated peak can never
    // exceed greedy's. Verify on the *executed* intermediates.
    HashJoinStats dp_run = CountByHashJoin(q, wl.catalog, plan.AtomOrder());
    HashJoinStats greedy_run = CountByHashJoin(q, wl.catalog, greedy);
    ASSERT_TRUE(dp_run.ok) << q.name() << ": " << dp_run.error;
    ASSERT_TRUE(greedy_run.ok) << q.name() << ": " << greedy_run.error;
    EXPECT_EQ(dp_run.output_count, greedy_run.output_count) << q.name();
    EXPECT_LE(PeakIntermediate(dp_run), PeakIntermediate(greedy_run))
        << q.name();
    ++scored;
  }
  EXPECT_GE(scored, 5);
}

TEST(JoinOrderOptimizer, MemoAccountingOnThreeAtomChain) {
  Catalog db;
  Relation r("R", {"a", "b"});
  for (Value i = 0; i < 4; ++i) r.AddRow({i, i});
  db.Add(std::move(r));
  Relation s("S", {"a", "b"});
  for (Value i = 0; i < 6; ++i) s.AddRow({i, i});
  db.Add(std::move(s));
  Relation t("T", {"a", "b"});
  for (Value i = 0; i < 8; ++i) t.AddRow({i, i});
  db.Add(std::move(t));
  Query q = Parse("R(X,Y), S(Y,Z), T(Z,W)");
  TraditionalCardinalityModel model(db);
  JoinOrderOptimizer dp(q, model);
  dp.Optimize();
  const OptimizerStats& stats = dp.stats();
  // Connected subsets of the chain R—S—T: three singletons, {R,S}, {S,T},
  // and the full set. {R,T} is disconnected — never probed, never
  // memoized.
  EXPECT_EQ(stats.dp_levels, 3);
  EXPECT_EQ(stats.batch_calls, 3u);
  EXPECT_EQ(stats.probes, 6u);
  ASSERT_EQ(stats.probes_per_level.size(), 3u);
  EXPECT_EQ(stats.probes_per_level[0], 3u);
  EXPECT_EQ(stats.probes_per_level[1], 2u);
  EXPECT_EQ(stats.probes_per_level[2], 1u);
  EXPECT_EQ(stats.memo_entries, 6u);
  EXPECT_EQ(dp.memo().count((1u << 0) | (1u << 2)), 0u);
  // Best-partition scans: one canonical pair each for {R,S} and {S,T};
  // three canonical pairs for the full set, of which ({R,T}, {S}) misses
  // the memo — so 5 pairs examined, 4 with both halves memoized.
  EXPECT_EQ(stats.partitions_tried, 5u);
  EXPECT_EQ(stats.memo_hits, 4u);
  EXPECT_EQ(stats.cross_partitions, 0u);
}

TEST(JoinOrderOptimizer, DisconnectedQueryPlansCheapestCrossProducts) {
  Catalog db;
  db.Add(UnaryRelation("A", 3));
  db.Add(UnaryRelation("Big", 50));
  db.Add(UnaryRelation("Small", 2));
  Query q = Parse("A(X), Big(Y), Small(Z)");
  TraditionalCardinalityModel model(db);
  JoinOrderOptions opt;
  opt.left_deep = true;
  JoinOrderOptimizer dp(q, model, opt);
  const JoinPlan& plan = dp.Optimize();
  ASSERT_FALSE(plan.empty());
  EXPECT_GT(dp.stats().cross_partitions, 0u);
  EXPECT_TRUE(IsPermutation(plan.AtomOrder(), 3));
  // Every join in a fully disconnected query is a cross product, and the
  // total-cost objective defers the big relation to the last join (its
  // only appearance in an intermediate is the unavoidable final output).
  EXPECT_EQ(plan.AtomOrder().back(), 1);
  HashJoinStats run = CountByHashJoin(q, db, plan.AtomOrder());
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.output_count, 3u * 50u * 2u);
}

TEST(GreedyJoinOrder, PicksCheapestDisconnectedExtension) {
  Catalog db;
  Relation r("R", {"a", "b"});
  for (Value i = 0; i < 4; ++i) r.AddRow({i, i});
  db.Add(std::move(r));
  Relation s("S", {"a", "b"});
  for (Value i = 0; i < 5; ++i) s.AddRow({i, i});
  db.Add(std::move(s));
  db.Add(UnaryRelation("Big", 50));
  db.Add(UnaryRelation("Small", 2));
  // R—S are connected; Big and Small are separate components. After the
  // connected prefix is exhausted, the old example grabbed
  // remaining.front() (Big). The fix batches all remaining atoms and
  // takes the min-bound one: Small first.
  Query q = Parse("R(X,Y), S(Y,Z), Big(W), Small(V)");
  TraditionalCardinalityModel model(db);
  const std::vector<int> order = GreedyJoinOrder(q, model, /*first_atom=*/0);
  ASSERT_TRUE(IsPermutation(order, 4));
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);  // the only connected extension
  EXPECT_EQ(order[2], 3);  // cheapest disconnected extension, not Big
  EXPECT_EQ(order[3], 2);
}

TEST(JoinOrderOptimizer, EmptyAndSingleAtomQueries) {
  Catalog db;
  db.Add(UnaryRelation("A", 7));
  TraditionalCardinalityModel model(db);
  Query empty("empty");
  JoinOrderOptimizer empty_dp(empty, model);
  EXPECT_TRUE(empty_dp.Optimize().empty());
  EXPECT_EQ(empty_dp.stats().atoms, 0);

  Query single = Parse("A(X)");
  JoinOrderOptimizer single_dp(single, model);
  const JoinPlan& plan = single_dp.Optimize();
  ASSERT_EQ(plan.nodes.size(), 1u);
  EXPECT_EQ(plan.AtomOrder(), std::vector<int>{0});
  EXPECT_DOUBLE_EQ(plan.log2_rows(), std::log2(7.0));
}

TEST(JoinOrderOptimizer, WideQueryFallsBackToGreedyChain) {
  Catalog db;
  db.Add(UnaryRelation("A", 5));
  Query q("wide");
  for (int i = 0; i <= kMaxAtoms; ++i) q.AddAtom("A", {"X"});
  ASSERT_GT(q.num_atoms(), kMaxAtoms);
  TraditionalCardinalityModel model(db);
  JoinOrderOptimizer dp(q, model);
  const JoinPlan& plan = dp.Optimize();
  EXPECT_TRUE(IsPermutation(plan.AtomOrder(), q.num_atoms()));
  // A left-deep chain over m atoms: m leaves + m-1 joins.
  EXPECT_EQ(plan.nodes.size(),
            static_cast<size_t>(2 * q.num_atoms() - 1));
  HashJoinStats run = CountByHashJoin(q, db, plan.AtomOrder());
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.output_count, 5u);
}

TEST(JoinOrderOptimizer, InducedSubqueryKeepsVariableBindings) {
  Catalog db;
  Query q = Parse("R(X,Y), S(Y,Z), T(Z,X)");
  Query sub = InducedSubquery(q, (1u << 0) | (1u << 2));
  ASSERT_EQ(sub.num_atoms(), 2);
  EXPECT_EQ(sub.atom(0).relation, "R");
  EXPECT_EQ(sub.atom(1).relation, "T");
  // X appears in both atoms and must stay one variable in the subquery.
  EXPECT_EQ(sub.num_vars(), 3);
  EXPECT_TRUE(Intersects(sub.atom(0).var_set(), sub.atom(1).var_set()));
}

}  // namespace
}  // namespace lpb
