// The Nn engine's optimal-basis pool (bounds/basis_pool.h).
//
// A pooled basis answers drifted statistics without the LP backend, so
// every pool answer is held to what a fresh solve says: the bound of a
// fresh LpNormBound within 1e-12 relative, a witness that reproduces the
// bound (Σ w_i·log_b_i), and an α*/h* that is an optimal solution of the
// same LP. The structures are every distinct one behind one join-order
// planning sweep of the JOB templates, on both LP backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bounds/basis_pool.h"
#include "bounds/bound_engine.h"
#include "bounds/normal_engine.h"
#include "datagen/job_gen.h"
#include "estimator/advisor.h"
#include "lp/tableau.h"
#include "optimizer/join_order.h"
#include "util/random.h"

namespace lpb {
namespace {

struct Instance {
  int n = 0;
  std::vector<ConcreteStatistic> stats;
};

// Keeps every probe the optimizer asks to price, and prices each at 0:
// which subqueries a DP sweep probes depends on the query's connectivity,
// not on the estimates, so the sweep needs no LP work.
class RecordingModel : public CardinalityModel {
 public:
  std::vector<double> EstimateLog2Batch(
      const std::vector<Query>& probes) override {
    probes_.insert(probes_.end(), probes.begin(), probes.end());
    return std::vector<double>(probes.size(), 0.0);
  }
  const std::vector<Query>& probes() const { return probes_; }

 private:
  std::vector<Query> probes_;
};

// Every distinct simple structure one left-deep planning sweep over the
// 33 JOB templates prices, with the statistics it first met it with.
const std::vector<Instance>& JobSweepInstances() {
  static const std::vector<Instance> instances = [] {
    JobWorkloadOptions wopt;
    wopt.scale = 0.02;
    const JobWorkload wl = GenerateJobWorkload(wopt);
    CardinalityAdvisor advisor(wl.catalog);
    RecordingModel recorder;
    JoinOrderOptions jopt;
    jopt.left_deep = true;
    for (const Query& q : wl.queries) {
      JoinOrderOptimizer dp(q, recorder, jopt);
      dp.Optimize();
    }
    const std::vector<std::vector<ConcreteStatistic>> stats =
        advisor.AssembleStatisticsBatch(recorder.probes());
    std::set<std::string> seen;
    std::vector<Instance> out;
    for (size_t i = 0; i < stats.size(); ++i) {
      const int n = recorder.probes()[i].num_vars();
      const BoundStructure structure = StructureOf(n, stats[i]);
      if (structure.AllShapesSimple() &&
          seen.insert(StructureKey(structure)).second) {
        out.push_back({n, stats[i]});
      }
    }
    return out;
  }();
  return instances;
}

std::vector<ConcreteStatistic> WithValues(std::vector<ConcreteStatistic> stats,
                                          const std::vector<double>& values) {
  for (size_t i = 0; i < stats.size(); ++i) stats[i].log_b = values[i];
  return stats;
}

EngineOptions OptionsFor(LpBackendKind backend) {
  EngineOptions options;
  options.simplex.backend = backend;
  return options;
}

class BasisPoolTest : public ::testing::TestWithParam<LpBackendKind> {};

// A fresh solve of the instance's Nn LP `lp` at `values`: a new tableau's
// cold two-phase solve. That is what LpNormBound runs on simple statistics
// — compile, then a first evaluation with no basis to start from — minus
// the recompile, which does not depend on the values;
// FreshSolveIsLpNormBound holds the two equal bit for bit.
BoundResult FreshSolve(const Instance& inst, const NormalBoundLp& lp,
                       const std::vector<double>& values,
                       LpBackendKind backend) {
  SimplexTableau tableau(lp.lp, OptionsFor(backend).simplex);
  const LpResult solved = tableau.Solve(values);
  BoundResult out;
  out.status = solved.status;
  out.log2_bound = solved.objective;
  out.weights.assign(solved.duals.begin(),
                     solved.duals.begin() + inst.stats.size());
  out.alpha = NormalAlpha(inst.n, lp.columns, solved.x);
  out.h_opt = SetFunction::NormalCombination(inst.n, out.alpha);
  return out;
}

// Holds one pool answer to a fresh solve of the same statistics: bound,
// witness and, when the answer carries them, α*/h*.
void ExpectMatchesFreshSolve(const Instance& inst,
                             const std::vector<double>& values,
                             const BoundResult& got, const BoundResult& fresh,
                             const std::string& context) {
  ASSERT_TRUE(got.ok()) << context;
  ASSERT_TRUE(fresh.ok()) << context;
  const std::vector<ConcreteStatistic> stats = WithValues(inst.stats, values);
  const double scale = std::max(1.0, std::abs(fresh.log2_bound));
  EXPECT_LE(std::abs(got.log2_bound - fresh.log2_bound), 1e-12 * scale)
      << context;

  // The witness: nonnegative weights that reproduce the bound.
  ASSERT_EQ(got.weights.size(), values.size()) << context;
  double certified = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_GE(got.weights[i], -1e-9) << context;
    certified += got.weights[i] * values[i];
  }
  EXPECT_LE(std::abs(certified - got.log2_bound), 1e-12 * scale) << context;

  // α*/h*: h* is Σ_W α*_W h_W, reaches the fresh solve's h*(X), and
  // satisfies every statistic — an optimal solution of the Nn LP, as the
  // fresh solve's is. (Degenerate LPs have several optimal α*, so the two
  // are compared as solutions, not coordinatewise.)
  if (got.alpha.empty()) return;
  ASSERT_EQ(got.alpha.size(), fresh.alpha.size()) << context;
  const VarSet full = FullSet(inst.n);
  EXPECT_NEAR(got.h_opt[full], fresh.h_opt[full], 1e-12 * scale) << context;
  const SetFunction combined =
      SetFunction::NormalCombination(inst.n, got.alpha);
  for (VarSet s = 1; s <= full; ++s) {
    ASSERT_EQ(got.h_opt[s], combined[s]) << context;
  }
  std::vector<double> lhs(stats.size(), 0.0);
  for (VarSet w = 1; w <= full; ++w) {
    if (got.alpha[w] == 0.0) continue;
    EXPECT_GE(got.alpha[w], -1e-9) << context;
    for (size_t i = 0; i < stats.size(); ++i) {
      lhs[i] += got.alpha[w] * NormalCoefficient(w, stats[i].sigma,
                                                 InverseNorm(stats[i].p));
    }
  }
  for (size_t i = 0; i < stats.size(); ++i) {
    EXPECT_LE(lhs[i], values[i] + 1e-9 * scale) << context << " row " << i;
  }
}

// The reference of the test below: FreshSolve is LpNormBound, and on
// simple statistics that is NormalPolymatroidBound — bound, weights, α*
// and h* bit for bit.
TEST_P(BasisPoolTest, FreshSolveIsLpNormBound) {
  const LpBackendKind backend = GetParam();
  const std::vector<Instance>& instances = JobSweepInstances();
  for (size_t s = 0; s < instances.size(); s += 97) {
    const Instance& inst = instances[s];
    std::vector<double> values = ValuesOf(inst.stats);
    for (double& v : values) v *= 1.02;
    const std::vector<ConcreteStatistic> stats = WithValues(inst.stats, values);
    const BoundResult a = FreshSolve(
        inst, BuildNormalBoundLp(inst.n, inst.stats), values, backend);
    const BoundResult b = LpNormBound(inst.n, stats, OptionsFor(backend));
    const BoundResult c = NormalPolymatroidBound(
        inst.n, stats, /*require_simple=*/true, OptionsFor(backend).simplex);
    for (const BoundResult* other : {&b, &c}) {
      EXPECT_EQ(a.log2_bound, other->log2_bound) << "structure " << s;
      EXPECT_EQ(a.weights, other->weights) << "structure " << s;
      EXPECT_EQ(a.alpha, other->alpha) << "structure " << s;
      const VarSet full = FullSet(inst.n);
      for (VarSet v = 1; v <= full; ++v) {
        ASSERT_EQ(a.h_opt[v], other->h_opt[v]) << "structure " << s;
      }
    }
  }
}

// One structure of the sweep at ±2% on one statistic and on all of them
// (+2% on even structures, −2% on odd ones), with exact repeats, both
// back to back (the front basis's one-compare path) and after other
// vectors. Each pool answer matches a fresh solve, and a repeat answers
// exactly what its vector's first pool answer did. Adds the compiled
// bound's counters to `totals`.
void CheckDriftedStructure(const Instance& inst, size_t s,
                           LpBackendKind backend, EvalCounters& totals) {
  auto bound = CompileNormalBound(StructureOf(inst.n, inst.stats),
                                  OptionsFor(backend));
  const NormalBoundLp lp = BuildNormalBoundLp(inst.n, inst.stats);
  const double factor = s % 2 == 0 ? 1.02 : 0.98;
  std::vector<std::vector<double>> distinct(3, ValuesOf(inst.stats));
  distinct[1][s % distinct[1].size()] *= factor;
  for (double& v : distinct[2]) v *= factor;
  // Every other pair of structures asks for α*/h*, so both answer forms
  // meet both signs and the repeat shortcut.
  const bool want_h_opt = s % 4 < 2;
  std::vector<BoundResult> first(distinct.size());
  std::vector<bool> seen(distinct.size(), false);
  for (size_t d : {0, 1, 1, 2, 1, 2, 2, 0}) {
    const std::string context = "structure " + std::to_string(s) +
                                " vector " + std::to_string(d);
    const BoundResult got = bound->Evaluate(distinct[d], want_h_opt);
    ASSERT_TRUE(got.ok()) << context;
    if (seen[d] && first[d].pool_hit && got.pool_hit) {
      EXPECT_EQ(got.log2_bound, first[d].log2_bound) << context;
      EXPECT_EQ(got.weights, first[d].weights) << context;
      EXPECT_EQ(got.alpha, first[d].alpha) << context;
      continue;
    }
    if (got.pool_hit) {
      EXPECT_EQ(got.eval_path, LpEvalPath::kWitness) << context;
      EXPECT_EQ(got.lp_stats.TotalPivots(), 0) << context;
      EXPECT_EQ(got.lp_backend, backend) << context;
      // The first evaluation, of the statistics' own values, is the
      // freshly compiled bound's cold solve: a fresh solve already.
      const BoundResult fresh = d == 0 && first[0].eval_path == LpEvalPath::kCold
                                    ? first[0]
                                    : FreshSolve(inst, lp, distinct[d], backend);
      ExpectMatchesFreshSolve(inst, distinct[d], got, fresh, context);
    }
    first[d] = got;
    seen[d] = true;
  }
  const EvalCounters& c = bound->counters();
  EXPECT_LE(c.pool_hits, c.witness_hits);
  EXPECT_EQ(c.evaluations, c.witness_hits + c.warm_resolves + c.cold_solves);
  totals.evaluations += c.evaluations;
  totals.pool_hits += c.pool_hits;
}

// Every structure of the sweep, split over a few threads (each checks its
// own compiled bounds; nothing is shared but the read-only instances).
TEST_P(BasisPoolTest, DriftedValuesMatchFreshSolves) {
  const LpBackendKind backend = GetParam();
  const std::vector<Instance>& instances = JobSweepInstances();
  ASSERT_GT(instances.size(), 1000u);
  constexpr size_t kThreads = 4;
  std::vector<EvalCounters> totals(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t s = t; s < instances.size(); s += kThreads) {
        CheckDriftedStructure(instances[s], s, backend, totals[t]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  uint64_t pool_hits = 0, evaluations = 0;
  for (const EvalCounters& c : totals) {
    pool_hits += c.pool_hits;
    evaluations += c.evaluations;
  }
  // The first evaluation of each structure is cold; the pool serves most
  // of the rest.
  EXPECT_GT(pool_hits, evaluations / 2);
  std::printf("%zu structures: %llu of %llu evaluations served by the pool\n",
              instances.size(), static_cast<unsigned long long>(pool_hits),
              static_cast<unsigned long long>(evaluations));
}

// NaN and ±∞ values never reach the pool, and do not disturb it.
TEST_P(BasisPoolTest, NonFiniteValuesSkipThePool) {
  const LpBackendKind backend = GetParam();
  const Instance& inst = JobSweepInstances()[7];
  auto bound = CompileNormalBound(StructureOf(inst.n, inst.stats),
                                  OptionsFor(backend));
  const std::vector<double> base = ValuesOf(inst.stats);
  const BoundResult first = bound->Evaluate(base, false);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(bound->Evaluate(base, false).pool_hit);
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (size_t i = 0; i < base.size(); ++i) {
      std::vector<double> values = base;
      values[i] = bad;
      const uint64_t hits = bound->counters().pool_hits;
      EXPECT_FALSE(bound->Evaluate(values, false).pool_hit)
          << "value " << bad << " at " << i;
      EXPECT_EQ(bound->counters().pool_hits, hits);
    }
  }
  const BoundResult again = bound->Evaluate(base, false);
  EXPECT_TRUE(again.pool_hit);
  EXPECT_LE(std::abs(again.log2_bound - first.log2_bound),
            1e-12 * std::max(1.0, std::abs(first.log2_bound)));
}

void ExpectBitwiseEqual(const BoundResult& a, const BoundResult& b,
                        const std::string& context) {
  EXPECT_EQ(a.status, b.status) << context;
  if (std::isnan(a.log2_bound)) {
    EXPECT_TRUE(std::isnan(b.log2_bound)) << context;
  } else {
    EXPECT_EQ(a.log2_bound, b.log2_bound) << context;
  }
  EXPECT_EQ(a.fallback, b.fallback) << context;
  EXPECT_EQ(a.eval_path, b.eval_path) << context;
  EXPECT_EQ(a.pool_hit, b.pool_hit) << context;
  EXPECT_EQ(a.lp_iterations, b.lp_iterations) << context;
  EXPECT_EQ(a.lp_stats.TotalPivots(), b.lp_stats.TotalPivots()) << context;
  ASSERT_EQ(a.weights.size(), b.weights.size()) << context;
  for (size_t i = 0; i < a.weights.size(); ++i) {
    if (std::isnan(a.weights[i])) continue;
    EXPECT_EQ(a.weights[i], b.weights[i]) << context << " weight " << i;
  }
}

// A batch is the scalar sequence by construction: same doubles, same eval
// paths, same counters — pool hits included.
TEST_P(BasisPoolTest, BatchEqualsScalarSequenceBitwise) {
  const LpBackendKind backend = GetParam();
  const std::vector<Instance>& instances = JobSweepInstances();
  for (size_t s = 0; s < instances.size(); s += 37) {
    const Instance& inst = instances[s];
    const BoundStructure structure = StructureOf(inst.n, inst.stats);
    auto scalar = CompileNormalBound(structure, OptionsFor(backend));
    auto batched = CompileNormalBound(structure, OptionsFor(backend));
    Rng rng(1000 + s);
    const std::vector<double> base = ValuesOf(inst.stats);
    std::vector<std::vector<double>> batch;
    for (int c = 0; c < 24; ++c) {
      std::vector<double> values = base;
      if (c % 4 == 1) {
        values[rng.Uniform(values.size())] *= 0.98 + 0.04 * rng.NextDouble();
      } else if (c % 4 == 2) {
        for (double& v : values) v *= 0.9 + 0.2 * rng.NextDouble();
      } else if (c % 4 == 3) {
        values = batch.back();  // exact repeat
      }
      if (c == 13) values[0] = std::numeric_limits<double>::quiet_NaN();
      batch.push_back(std::move(values));
    }
    std::vector<BoundResult> expected;
    for (const std::vector<double>& values : batch) {
      expected.push_back(scalar->Evaluate(values, false));
    }
    const std::vector<BoundResult> got = batched->EvaluateBatch(batch);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t k = 0; k < got.size(); ++k) {
      ExpectBitwiseEqual(got[k], expected[k],
                         "structure " + std::to_string(s) + " column " +
                             std::to_string(k));
    }
    const EvalCounters& a = scalar->counters();
    const EvalCounters& b = batched->counters();
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.witness_hits, b.witness_hits);
    EXPECT_EQ(a.pool_hits, b.pool_hits);
    EXPECT_EQ(a.warm_resolves, b.warm_resolves);
    EXPECT_EQ(a.cold_solves, b.cold_solves);
  }
}

// Whether `basis` is primal feasible at `b` — the serve rule, recomputed
// from the shapes and the stored inverse.
bool Serves(const NormalBasisPool::Basis& basis,
            const std::vector<ConcreteStatistic>& stats,
            const std::vector<double>& b) {
  const double eps = SimplexOptions{}.eps;
  const size_t t = basis.rows.size();
  std::vector<double> alpha(t, 0.0);
  for (size_t j = 0; j < t; ++j) {
    for (size_t k = 0; k < t; ++k) {
      alpha[j] += basis.inverse[j * t + k] * b[basis.rows[k]];
    }
    if (alpha[j] < -eps) return false;
  }
  for (size_t i = 0; i < stats.size(); ++i) {
    if (std::find(basis.rows.begin(), basis.rows.end(), static_cast<int>(i)) !=
        basis.rows.end()) {
      continue;
    }
    double slack = b[i];
    for (size_t j = 0; j < t; ++j) {
      slack -= NormalCoefficient(basis.ws[j], stats[i].sigma,
                                 InverseNorm(stats[i].p)) *
               alpha[j];
    }
    if (slack < -eps) return false;
  }
  return true;
}

using BasisKey = std::pair<std::vector<VarSet>, std::vector<int>>;

std::vector<BasisKey> Keys(const NormalBasisPool& pool) {
  std::vector<BasisKey> keys;
  for (size_t k = 0; k < pool.size(); ++k) {
    keys.emplace_back(pool.basis(k).ws, pool.basis(k).rows);
  }
  return keys;
}

// The pool holds at most kCapacity bases, enters each new one at the
// front, and moves the basis that serves a value vector to the front
// while the others keep their order.
TEST_P(BasisPoolTest, CapacityAndMostRecentlyUsedOrder) {
  const LpBackendKind backend = GetParam();
  // The widest structure of the sweep has the most distinct optimal bases.
  const std::vector<Instance>& instances = JobSweepInstances();
  const Instance& inst = *std::max_element(
      instances.begin(), instances.end(), [](const Instance& a,
                                             const Instance& b) {
        return a.stats.size() < b.stats.size();
      });
  const NormalBoundLp lp = BuildNormalBoundLp(inst.n, inst.stats);
  NormalBasisPool pool(StructureOf(inst.n, inst.stats), SimplexOptions{}.eps);
  const std::vector<double> base = ValuesOf(inst.stats);
  Rng rng(42);
  std::set<BasisKey> offered;
  std::vector<std::vector<double>> solved;
  size_t served = 0, moved = 0;
  for (int round = 0; round < 200; ++round) {
    if (round % 2 == 0) {
      // Offer the optimal basis at widely redrawn values.
      std::vector<double> values = base;
      for (double& v : values) v *= 0.5 + rng.NextDouble();
      SimplexTableau tableau(lp.lp, OptionsFor(backend).simplex);
      ASSERT_EQ(tableau.Solve(values).status, LpStatus::kOptimal);
      ASSERT_TRUE(pool.Offer(tableau.basis(), lp.columns));
      offered.insert(Keys(pool).front());
      solved.push_back(std::move(values));
      EXPECT_LE(pool.size(), NormalBasisPool::kCapacity);
      EXPECT_EQ(pool.size(),
                std::min(offered.size(), NormalBasisPool::kCapacity));
      continue;
    }
    // Serve values near ones solved lately, whose bases may sit anywhere
    // in the pool.
    std::vector<double> values =
        solved[solved.size() - 1 - rng.Uniform(std::min<size_t>(
                                         solved.size(), 10))];
    values[rng.Uniform(values.size())] *= 0.999 + 0.002 * rng.NextDouble();
    const std::vector<BasisKey> before = Keys(pool);
    size_t first = before.size();
    for (size_t k = 0; k < before.size(); ++k) {
      if (Serves(pool.basis(k), inst.stats, values)) {
        first = k;
        break;
      }
    }
    BoundResult result;
    const bool hit = pool.Serve(values, /*want_alpha=*/false, result);
    const std::vector<BasisKey> after = Keys(pool);
    if (first == before.size()) {
      EXPECT_FALSE(hit);
      EXPECT_EQ(after, before);
      continue;
    }
    ASSERT_TRUE(hit);
    ++served;
    if (first > 0) ++moved;
    std::vector<BasisKey> expected = before;
    std::rotate(expected.begin(), expected.begin() + first,
                expected.begin() + first + 1);
    EXPECT_EQ(after, expected) << "round " << round;
  }
  EXPECT_GT(offered.size(), NormalBasisPool::kCapacity);
  EXPECT_GT(served, 0u);
  EXPECT_GT(moved, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, BasisPoolTest,
                         ::testing::Values(LpBackendKind::kDense,
                                           LpBackendKind::kRevised),
                         [](const auto& info) {
                           return std::string(LpBackendName(info.param));
                         });

}  // namespace
}  // namespace lpb
