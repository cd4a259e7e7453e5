// The normal-polymatroid bound engine (Sec 6 / Theorem 6.1).
//
// Optimizes h(X) over Nn, the cone of normal polymatroids h = Σ_W α_W h_W
// with α_W >= 0 over nonempty W ⊆ X. The LP has one column per step
// function h_W that survives a dominated-column presolve and only the
// statistics as rows (every nonnegative combination of step functions is
// automatically a polymatroid), so it is dramatically smaller than the Γn
// LP. By Theorem 6.1 the optimum EQUALS the polymatroid bound whenever all
// statistics are simple (|U| <= 1) — the common case in practice
// (per-join-column degree sequences) — and the optimal α* feeds the
// worst-case database construction of Lemma 6.2.
//
// Presolve: every column has objective 1 and nonnegative coefficients, so
// a column W that is >= some other column W' in every row is never needed:
// moving α_W onto α_W' keeps the objective and loosens every row. Only the
// non-dominated columns are built (on the 3,838 structures of the JOB
// plan-drift sweep: 25 of 255 at n = 8, 34 of 1,023 at n = 10). The
// reduced LP's optimal duals y >= 0 still certify inequality (8) for
// every W: y·a_W >= y·a_W' >= 1. An all-zero column (a W no statistic
// touches) dominates every other column, so it alone survives and the LP
// stays unbounded exactly when the full one is.
//
// Evaluation: the values enter this LP only as its right-hand side, so an
// optimal basis stays dual feasible for all of them. The compiled bound
// (bounds/bound_engine.h) therefore keeps a pool of up to 8 optimal bases
// (bounds/basis_pool.h) and tries it before the LP backend: a pooled basis
// answers any values at which it is still primal feasible, exactly, with
// its duals as the weights of inequality (8).
//
// CAUTION: for non-simple statistics Nn ⊊ Γn makes this a lower bound on
// the polymatroid bound, NOT a valid output-size bound; callers must check
// AllSimple() (the "normal" engine asserts it on Compile, and
// NormalPolymatroidBound unless told otherwise).
#ifndef LPB_BOUNDS_NORMAL_ENGINE_H_
#define LPB_BOUNDS_NORMAL_ENGINE_H_

#include <memory>
#include <vector>

#include "bounds/bound_engine.h"
#include "lp/lp_problem.h"
#include "relation/degree_sequence.h"
#include "stats/statistic.h"
#include "util/bits.h"

namespace lpb {

// Computes max h(X) over normal polymatroids satisfying the statistics:
// the Nn bound compiled for the statistics' structure and evaluated once
// at their values, with α* in BoundResult::alpha. If `require_simple`
// (default), asserts AllSimple(stats). `simplex` selects the LP solver
// configuration/backend (lp/simplex.h).
BoundResult NormalPolymatroidBound(int n,
                                   const std::vector<ConcreteStatistic>& stats,
                                   bool require_simple = true,
                                   const SimplexOptions& simplex = {});

// Compiles the Nn bound of a structure without the "normal" engine's
// simple-shapes check: for non-simple shapes the result is the Nn optimum,
// a lower bound on the polymatroid bound (see CAUTION above).
std::unique_ptr<CompiledBound> CompileNormalBound(
    const BoundStructure& structure, const EngineOptions& options);

// 1/p, and 0 for p = ∞: the weight of h(U) in a statistic's row.
inline double InverseNorm(double p) { return p >= kInfNorm / 2 ? 0.0 : 1.0 / p; }

// The coefficient of step function h_W in the row of statistic σ = (V|U)
// with inv_p = InverseNorm(p): (1/p)·1{W∩U≠∅} + 1{W∩V≠∅ ∧ W∩U=∅}.
inline double NormalCoefficient(VarSet w, const Conditional& sigma,
                                double inv_p) {
  if (Intersects(w, sigma.u)) return inv_p;
  return Intersects(w, sigma.v) ? 1.0 : 0.0;
}

// The Nn LP: maximize Σ_W α_W over α >= 0 with one <= row per statistic
// (rhs = stat.log_b), in statistics order, and one column per
// non-dominated W (see the presolve note above). `columns[j]` is the W
// that LP variable j stands for, in ascending W.
struct NormalBoundLp {
  LpProblem lp;
  std::vector<VarSet> columns;

  int num_vars() const { return lp.num_vars(); }
};

// Builds the Nn LP. The matrix depends only on the statistic *shapes*
// (σ, p), never on the values — the compiled-bound pipeline
// (bounds/bound_engine.h) builds it once per structure and re-solves per
// log_b vector.
NormalBoundLp BuildNormalBoundLp(int n,
                                 const std::vector<ConcreteStatistic>& stats);

// Maps an optimal x of a BuildNormalBoundLp LP back to α, indexed by VarSet
// (size 2^n, entry 0 unused): alpha[columns[j]] = x[j], every dropped W 0.
std::vector<double> NormalAlpha(int n, const std::vector<VarSet>& columns,
                                const std::vector<double>& x);

// The "auto" engine evaluated once: the normal engine when all statistics
// are simple (valid and fast, Theorem 6.1), otherwise the Γn engine.
BoundResult LpNormBound(int n, const std::vector<ConcreteStatistic>& stats,
                        const EngineOptions& options = {});

}  // namespace lpb

#endif  // LPB_BOUNDS_NORMAL_ENGINE_H_
