#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bounds/bound_engine.h"
#include "bounds/engine.h"
#include "bounds/normal_engine.h"
#include "relation/degree_sequence.h"
#include "util/random.h"

namespace lpb {
namespace {

ConcreteStatistic Stat(VarSet u, VarSet v, double p, double log_b) {
  ConcreteStatistic s;
  s.sigma = {u, v};
  s.p = p;
  s.log_b = log_b;
  return s;
}

// Triangle cardinalities: the AGM bound is 1.5 * log_b.
std::vector<ConcreteStatistic> TriangleStats(double log_b) {
  return {Stat(0, 0b011, 1.0, log_b), Stat(0, 0b110, 1.0, log_b),
          Stat(0, 0b101, 1.0, log_b)};
}

// Simple statistics for a path query over n variables, as in bench_engine.
std::vector<ConcreteStatistic> PathStats(int n) {
  std::vector<ConcreteStatistic> stats;
  for (int i = 0; i + 1 < n; ++i) {
    const VarSet u = VarBit(i), v = VarBit(i + 1);
    stats.push_back(Stat(0, u | v, 1.0, 10.0));
    stats.push_back(Stat(u, v, 2.0, 6.0));
    stats.push_back(Stat(v, u, 2.0, 6.0));
    stats.push_back(Stat(u, v, kInfNorm, 3.0));
  }
  return stats;
}

// Asserts that evaluating `compiled` at the values of `stats` reproduces
// the from-scratch reference result exactly (status, bound, certificate).
void ExpectMatchesReference(CompiledBound& compiled,
                            const std::vector<ConcreteStatistic>& stats,
                            const BoundResult& reference,
                            const std::string& context) {
  BoundResult result = compiled.Evaluate(ValuesOf(stats));
  ASSERT_EQ(result.status, reference.status) << context;
  if (reference.unbounded()) {
    EXPECT_EQ(result.log2_bound, kInfNorm) << context;
    return;
  }
  if (!reference.ok()) return;
  EXPECT_NEAR(result.log2_bound, reference.log2_bound, 1e-6) << context;
  // The witness certifies the bound against these statistics.
  ASSERT_EQ(result.weights.size(), stats.size()) << context;
  double certified = 0.0;
  for (size_t i = 0; i < stats.size(); ++i) {
    certified += result.weights[i] * stats[i].log_b;
  }
  EXPECT_NEAR(certified, result.log2_bound, 1e-5) << context;
  // h* is a feasible polymatroid witness achieving the bound.
  EXPECT_NEAR(result.h_opt[FullSet(compiled.structure().n)],
              result.log2_bound, 1e-6)
      << context;
}

TEST(BoundEngineRegistry, KnowsAllEngines) {
  for (std::string_view name : BoundEngineNames()) {
    const BoundEngine* engine = FindBoundEngine(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->name(), name);
  }
  EXPECT_EQ(FindBoundEngine("no-such-engine"), nullptr);
}

TEST(BoundEngineRegistry, NormalRejectsNonSimpleShapes) {
  auto stats = TriangleStats(10.0);
  stats.push_back(Stat(0b011, 0b100, 2.0, 4.0));  // |U| = 2: not simple
  const BoundStructure structure = StructureOf(3, stats);
  EXPECT_FALSE(FindBoundEngine("normal")->Supports(structure));
  EXPECT_TRUE(FindBoundEngine("gamma")->Supports(structure));
  EXPECT_TRUE(FindBoundEngine("auto")->Supports(structure));
}

TEST(StructureKey, DistinguishesShapesAndCollapsesValues) {
  auto stats_a = TriangleStats(10.0);
  auto stats_b = TriangleStats(99.0);  // same shapes, different values
  EXPECT_EQ(StructureKey(StructureOf(3, stats_a)),
            StructureKey(StructureOf(3, stats_b)));
  auto stats_c = stats_a;
  stats_c[0].p = 2.0;
  EXPECT_NE(StructureKey(StructureOf(3, stats_a)),
            StructureKey(StructureOf(3, stats_c)));
  EXPECT_NE(StructureKey(StructureOf(3, stats_a)),
            StructureKey(StructureOf(4, stats_a)));
}

TEST(CompiledBound, TriangleMatchesAndReusesWitness) {
  auto stats = TriangleStats(10.0);
  auto compiled =
      FindBoundEngine("auto")->Compile(StructureOf(3, stats));
  ExpectMatchesReference(*compiled, stats, PolymatroidBound(3, stats),
                         "first");
  // Re-evaluations at scaled values keep the basis optimal: witness path.
  for (double log_b : {12.0, 8.0, 20.0}) {
    auto scaled = TriangleStats(log_b);
    ExpectMatchesReference(*compiled, scaled, PolymatroidBound(3, scaled),
                           "scaled");
  }
  const EvalCounters& c = compiled->counters();
  EXPECT_EQ(c.evaluations, 4u);
  EXPECT_EQ(c.cold_solves, 1u);
  EXPECT_GE(c.witness_hits, 3u);
}

// Randomized equivalence: compiled evaluation must exactly match the
// from-scratch engines across random simple-statistics instances,
// including value redraws that force the warm-start fallback.
TEST(CompiledBound, RandomSimpleInstancesMatchBothEngines) {
  Rng rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + static_cast<int>(rng.Uniform(4));  // 2..5
    const VarSet full = FullSet(n);
    std::vector<ConcreteStatistic> stats;
    // Cardinality assertions over random variable subsets.
    const int num_card = 1 + static_cast<int>(rng.Uniform(3));
    for (int k = 0; k < num_card; ++k) {
      VarSet v = 1 + static_cast<VarSet>(rng.Uniform(full));
      stats.push_back(Stat(0, v, 1.0, 2.0 + 10.0 * rng.NextDouble()));
    }
    // Simple conditionals with random norms.
    const int num_cond = static_cast<int>(rng.Uniform(5));
    for (int k = 0; k < num_cond; ++k) {
      const int u_var = static_cast<int>(rng.Uniform(n));
      VarSet v = 1 + static_cast<VarSet>(rng.Uniform(full));
      v &= ~VarBit(u_var);
      if (v == 0) continue;
      const double p = rng.NextDouble() < 0.3
                           ? kInfNorm
                           : 1.0 + std::floor(4.0 * rng.NextDouble());
      stats.push_back(Stat(VarBit(u_var), v, p, 1.0 + 8.0 * rng.NextDouble()));
    }

    auto compiled_auto =
        FindBoundEngine("auto")->Compile(StructureOf(n, stats));
    auto compiled_gamma =
        FindBoundEngine("gamma")->Compile(StructureOf(n, stats));
    for (int redraw = 0; redraw < 4; ++redraw) {
      if (redraw > 0) {
        for (ConcreteStatistic& s : stats) {
          // Mix gentle scalings with drastic redraws.
          s.log_b = redraw % 2 == 1 ? s.log_b * (0.8 + 0.4 * rng.NextDouble())
                                    : 0.5 + 12.0 * rng.NextDouble();
        }
      }
      const std::string context =
          "trial " + std::to_string(trial) + " redraw " +
          std::to_string(redraw);
      // Simple statistics: Γn and Nn agree (Theorem 6.1) and the compiled
      // paths must reproduce both.
      const BoundResult gamma_ref = PolymatroidBound(n, stats);
      const BoundResult normal_ref = NormalPolymatroidBound(n, stats);
      ASSERT_EQ(gamma_ref.status, normal_ref.status) << context;
      ExpectMatchesReference(*compiled_auto, stats, normal_ref, context);
      ExpectMatchesReference(*compiled_gamma, stats, gamma_ref, context);
    }
  }
}

TEST(CompiledBound, UnboundedStructureStaysUnbounded) {
  // An ℓ∞ conditional alone never bounds h(X): the LP is unbounded for
  // every value, and after the first verdict the compiled bound
  // short-circuits without solving.
  std::vector<ConcreteStatistic> stats = {Stat(0b01, 0b10, kInfNorm, 5.0)};
  ASSERT_TRUE(NormalPolymatroidBound(2, stats).unbounded());
  auto compiled = FindBoundEngine("auto")->Compile(StructureOf(2, stats));
  BoundResult first = compiled->Evaluate({5.0});
  EXPECT_TRUE(first.unbounded());
  EXPECT_EQ(first.log2_bound, kInfNorm);
  BoundResult second = compiled->Evaluate({9.0});
  EXPECT_TRUE(second.unbounded());
  EXPECT_EQ(second.eval_path, LpEvalPath::kWitness);
  EXPECT_EQ(compiled->counters().witness_hits, 1u);
}

TEST(CompiledBound, CuttingPlaneModeMatchesFullLattice) {
  // Force the compiled Γn engine into cutting-plane mode at a size where
  // the full lattice is still cheap enough to serve as the reference.
  EngineOptions cut_options;
  cut_options.full_lattice_max_n = 3;
  const int n = 5;
  auto stats = PathStats(n);
  auto compiled =
      FindBoundEngine("gamma")->Compile(StructureOf(n, stats), cut_options);
  for (int redraw = 0; redraw < 3; ++redraw) {
    if (redraw > 0) {
      Rng rng(100 + redraw);
      for (ConcreteStatistic& s : stats) {
        s.log_b *= 0.5 + rng.NextDouble();
      }
    }
    ExpectMatchesReference(*compiled, stats, PolymatroidBound(n, stats),
                           "redraw " + std::to_string(redraw));
  }
}

TEST(CompiledBound, AgmFilterMatchesFilteredReference) {
  auto stats = PathStats(4);
  const auto agm_only = FilterAgmStatistics(stats);
  ASSERT_LT(agm_only.size(), stats.size());
  auto compiled = FindBoundEngine("agm")->Compile(StructureOf(4, stats));
  BoundResult result = compiled->Evaluate(ValuesOf(stats));
  BoundResult reference = PolymatroidBound(4, agm_only);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.log2_bound, reference.log2_bound, 1e-6);
  // Weights are aligned with the FULL statistics list: zero off-filter,
  // and the certificate still verifies against the full value vector.
  ASSERT_EQ(result.weights.size(), stats.size());
  double certified = 0.0;
  for (size_t i = 0; i < stats.size(); ++i) {
    if (!(stats[i].p == 1.0 && stats[i].sigma.u == 0)) {
      EXPECT_EQ(result.weights[i], 0.0) << i;
    }
    certified += result.weights[i] * stats[i].log_b;
  }
  EXPECT_NEAR(certified, result.log2_bound, 1e-5);
}

TEST(CompiledBound, PandaFilterMatchesFilteredReference) {
  auto stats = PathStats(4);
  const auto panda_only = FilterPandaStatistics(stats);
  ASSERT_LT(panda_only.size(), stats.size());
  auto compiled = FindBoundEngine("panda")->Compile(StructureOf(4, stats));
  BoundResult result = compiled->Evaluate(ValuesOf(stats));
  BoundResult reference = PolymatroidBound(4, panda_only);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.log2_bound, reference.log2_bound, 1e-6);
  // PANDA uses a subset of the statistics, so it can never beat the
  // all-norms bound.
  BoundResult all_norms = PolymatroidBound(4, stats);
  EXPECT_GE(result.log2_bound, all_norms.log2_bound - 1e-9);
}

TEST(CompiledBound, SkippingHOptKeepsBoundAndWeights) {
  auto stats = TriangleStats(10.0);
  auto compiled = FindBoundEngine("auto")->Compile(StructureOf(3, stats));
  BoundResult lean = compiled->Evaluate(ValuesOf(stats), /*want_h_opt=*/false);
  BoundResult rich = compiled->Evaluate(ValuesOf(stats), /*want_h_opt=*/true);
  ASSERT_TRUE(lean.ok());
  EXPECT_NEAR(lean.log2_bound, rich.log2_bound, 1e-9);
  EXPECT_EQ(lean.weights.size(), rich.weights.size());
  EXPECT_EQ(lean.h_opt.num_vars(), 0);   // not materialized
  EXPECT_EQ(rich.h_opt.num_vars(), 3);
}

}  // namespace
}  // namespace lpb
