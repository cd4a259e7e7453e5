// The Nn LP's dominated-column presolve must not change any answer.
//
// BuildNormalBoundLp keeps only the step-function columns no other column
// is <= in every row (bounds/normal_engine.h). These tests hold it to the
// full-width LP — one column per nonempty W, built inline here as the
// oracle — on seeded random simple structures on both LP backends: same
// status and bound, duals that still certify every dropped column, and an
// α* that stays feasible for the full LP once the dropped W's are zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "bounds/bound_engine.h"
#include "bounds/normal_engine.h"
#include "datagen/job_gen.h"
#include "estimator/advisor.h"
#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "relation/degree_sequence.h"
#include "util/random.h"

namespace lpb {
namespace {

// Row coefficient of step function h_W in statistic `s`'s constraint.
double Coef(VarSet w, const ConcreteStatistic& s) {
  if (Intersects(w, s.sigma.u)) return s.p >= kInfNorm / 2 ? 0.0 : 1.0 / s.p;
  return Intersects(w, s.sigma.v) ? 1.0 : 0.0;
}

// The unreduced Nn LP: variable W - 1 is α_W for every nonempty W.
LpProblem FullWidthLp(int n, const std::vector<ConcreteStatistic>& stats) {
  const VarSet full = FullSet(n);
  LpProblem lp(static_cast<int>(full));
  for (VarSet w = 1; w <= full; ++w) {
    lp.SetObjective(static_cast<int>(w) - 1, 1.0);
  }
  for (const ConcreteStatistic& s : stats) {
    std::vector<LpTerm> terms;
    for (VarSet w = 1; w <= full; ++w) {
      const double coef = Coef(w, s);
      if (coef != 0.0) terms.push_back({static_cast<int>(w) - 1, coef});
    }
    lp.AddConstraint(std::move(terms), LpSense::kLe, s.log_b);
  }
  return lp;
}

// Random simple statistics over n variables: cardinalities and simple
// conditionals with p ∈ {1, 2, 3, 4, ∞}. Some values are zero; about one
// structure in eight carries a negative value (infeasible LP), and sparse
// draws leave variables uncovered (unbounded LP).
std::vector<ConcreteStatistic> RandomSimpleStats(Rng& rng, int n) {
  static const double kPs[] = {1.0, 2.0, 3.0, 4.0, kInfNorm};
  const VarSet full = FullSet(n);
  const int count = 1 + static_cast<int>(rng.Uniform(2 * n + 2));
  std::vector<ConcreteStatistic> stats;
  for (int i = 0; i < count; ++i) {
    const VarSet all = 1 + static_cast<VarSet>(rng.Uniform(full));
    ConcreteStatistic s;
    if (SetSize(all) >= 2 && rng.Bernoulli(0.6)) {
      std::vector<int> vars;
      for (int v : VarRange(all)) vars.push_back(v);
      s.sigma.u = VarBit(vars[rng.Uniform(vars.size())]);
    }
    s.sigma.v = all & ~s.sigma.u;
    s.p = kPs[rng.Uniform(5)];
    s.log_b = rng.Bernoulli(0.15) ? 0.0 : 20.0 * rng.NextDouble();
    stats.push_back(s);
  }
  if (rng.Bernoulli(0.125)) {
    stats[rng.Uniform(stats.size())].log_b = -1.0 - rng.NextDouble();
  }
  return stats;
}

double RelTol(double reference) {
  return 1e-9 * std::max(1.0, std::fabs(reference));
}

class NormalPresolve : public ::testing::TestWithParam<LpBackendKind> {
 protected:
  SimplexOptions Options() const {
    SimplexOptions options;
    options.backend = GetParam();
    return options;
  }
};

TEST_P(NormalPresolve, MatchesFullWidthLpOnRandomSimpleStructures) {
  Rng rng(GetParam() == LpBackendKind::kDense ? 1301 : 1302);
  int optimal = 0, unbounded = 0, infeasible = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const int n = 1 + static_cast<int>(rng.Uniform(8));
    const std::vector<ConcreteStatistic> stats = RandomSimpleStats(rng, n);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n);
    const VarSet full = FullSet(n);

    const LpResult wide = SolveLp(FullWidthLp(n, stats), Options());
    const NormalBoundLp reduced = BuildNormalBoundLp(n, stats);
    ASSERT_EQ(reduced.columns.size(),
              static_cast<size_t>(reduced.num_vars()));
    ASSERT_LE(reduced.num_vars(), static_cast<int>(full));
    const LpResult lp = SolveLp(reduced.lp, Options());
    ASSERT_EQ(lp.status, wide.status);
    if (lp.status == LpStatus::kUnbounded) ++unbounded;
    if (lp.status == LpStatus::kInfeasible) ++infeasible;
    if (lp.status != LpStatus::kOptimal) continue;
    ++optimal;
    EXPECT_NEAR(lp.objective, wide.objective, RelTol(wide.objective));

    // The reduced LP's duals certify inequality (8) for every column,
    // kept or dropped: Σ_i w_i·a_iW >= 1.
    std::vector<bool> kept(full + 1, false);
    for (VarSet w : reduced.columns) kept[w] = true;
    for (VarSet w = 1; w <= full; ++w) {
      if (kept[w]) continue;
      double priced = 0.0;
      for (size_t i = 0; i < stats.size(); ++i) {
        priced += lp.duals[i] * Coef(w, stats[i]);
      }
      EXPECT_GE(priced, 1.0 - 1e-9) << "dropped W=" << w;
    }

    // α* with zeros at the dropped W's is feasible for the full LP and
    // attains its optimum.
    const std::vector<double> alpha = NormalAlpha(n, reduced.columns, lp.x);
    ASSERT_EQ(alpha.size(), static_cast<size_t>(full) + 1);
    double objective = 0.0;
    for (VarSet w = 1; w <= full; ++w) {
      EXPECT_GE(alpha[w], -1e-12);
      if (!kept[w]) {
        EXPECT_EQ(alpha[w], 0.0);
      }
      objective += alpha[w];
    }
    EXPECT_NEAR(objective, wide.objective, RelTol(wide.objective));
    for (const ConcreteStatistic& s : stats) {
      double lhs = 0.0;
      for (VarSet w = 1; w <= full; ++w) lhs += alpha[w] * Coef(w, s);
      EXPECT_LE(lhs, s.log_b + RelTol(s.log_b));
    }

    // The convenience wrapper and the compiled engine agree with the
    // full LP, and h*(X) is the bound.
    const BoundResult one_shot =
        NormalPolymatroidBound(n, stats, /*require_simple=*/true, Options());
    EXPECT_NEAR(one_shot.log2_bound, wide.objective,
                RelTol(wide.objective));
    EXPECT_NEAR(one_shot.h_opt[full], one_shot.log2_bound,
                RelTol(one_shot.log2_bound));
    EngineOptions engine;
    engine.simplex = Options();
    auto compiled = FindBoundEngine("normal")->Compile(StructureOf(n, stats),
                                                       engine);
    const BoundResult eval = compiled->Evaluate(ValuesOf(stats));
    ASSERT_TRUE(eval.ok());
    EXPECT_NEAR(eval.log2_bound, wide.objective, RelTol(wide.objective));
    EXPECT_NEAR(eval.h_opt[full], eval.log2_bound, RelTol(eval.log2_bound));
  }
  // The generator reaches every status the presolve must preserve.
  EXPECT_GT(optimal, 100);
  EXPECT_GT(unbounded, 0);
  EXPECT_GT(infeasible, 0);
}

TEST_P(NormalPresolve, UntouchedVariableLeavesOnlyTheZeroColumn) {
  // X2 appears in no statistic: h_{X2} costs nothing in any row, so the
  // all-zero column dominates every other and the LP is unbounded.
  ConcreteStatistic s;
  s.sigma = {0b001, 0b010};
  s.p = 2.0;
  s.log_b = 5.0;
  const std::vector<ConcreteStatistic> stats = {s};
  const NormalBoundLp reduced = BuildNormalBoundLp(3, stats);
  ASSERT_EQ(reduced.columns, std::vector<VarSet>{0b100});
  EXPECT_EQ(SolveLp(reduced.lp, Options()).status, LpStatus::kUnbounded);
  EXPECT_TRUE(
      NormalPolymatroidBound(3, stats, true, Options()).unbounded());
}

TEST_P(NormalPresolve, ExplainOptimumMatchesBoundOnJobTemplates) {
  JobWorkloadOptions opt;
  opt.scale = 0.05;
  const JobWorkload wl = GenerateJobWorkload(opt);
  AdvisorOptions aopt;
  aopt.engine.simplex = Options();
  CardinalityAdvisor advisor(wl.catalog, aopt);
  for (const Query& q : wl.queries) {
    const CardinalityAdvisor::Explanation ex = advisor.Explain(q);
    ASSERT_TRUE(ex.bound.ok()) << q.name();
    EXPECT_NEAR(ex.bound.h_opt[q.AllVars()], ex.bound.log2_bound,
                RelTol(ex.bound.log2_bound))
        << q.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, NormalPresolve,
                         ::testing::Values(LpBackendKind::kDense,
                                           LpBackendKind::kRevised),
                         [](const auto& info) {
                           return std::string(LpBackendName(info.param));
                         });

TEST(NormalPresolve, KeptColumnCountOnTenVariableJobTemplate) {
  // JOB q28 joins 10 variables: 1,023 step functions, of which the
  // presolve keeps 267 (its optimizer subqueries at n = 10 keep 34 on
  // average). The count depends only on the statistic shapes, never on
  // the data, so any change to it is a change to the presolve.
  JobWorkloadOptions opt;
  opt.scale = 0.05;
  const JobWorkload wl = GenerateJobWorkload(opt);
  const Query& q28 = wl.queries[27];
  ASSERT_EQ(q28.num_vars(), 10);
  CardinalityAdvisor advisor(wl.catalog);
  const std::vector<ConcreteStatistic> stats =
      advisor.AssembleStatisticsBatch(std::span<const Query>(&q28, 1))[0];
  const NormalBoundLp reduced = BuildNormalBoundLp(q28.num_vars(), stats);
  EXPECT_EQ(reduced.num_vars(), 267);
}

}  // namespace
}  // namespace lpb
