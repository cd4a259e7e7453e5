// Internal solver-backend interface behind SimplexTableau.
//
// SimplexTableau (lp/tableau.h) is the public compile-once/solve-many
// handle; the actual pivoting lives in one of two interchangeable
// implementations selected per SimplexOptions::backend (or the
// LPB_LP_BACKEND environment variable when the option is kDefault):
//
//   * DenseTableau (lp/dense_tableau.h) — the original long-double dense
//     tableau. Simple, numerically forgiving, O(rows x cols) per pivot.
//   * RevisedSimplex (lp/revised_simplex.h) — sparse revised simplex over
//     an LU-factorized basis; pivots cost O(nnz) solves instead of a full
//     tableau sweep, which is what makes cutting-plane Gamma_n bounds
//     tractable past n ~ 7.
//
// Both implement the identical contract documented on SimplexTableau
// (two-phase cold solve, witness/warm/cold RHS re-solve cascade, dual
// extraction sign conventions, lexicographic anti-cycling), so results are
// interchangeable up to floating-point noise — a property enforced by the
// randomized differential harness (tests/test_simplex_differential.cc).
#ifndef LPB_LP_LP_BACKEND_H_
#define LPB_LP_LP_BACKEND_H_

#include <memory>
#include <span>
#include <vector>

#include "lp/lp_problem.h"
#include "lp/simplex.h"

namespace lpb {

class LpBackendImpl {
 public:
  virtual ~LpBackendImpl() = default;

  // Cold two-phase solve; empty `rhs` uses the problem's own right-hand
  // sides. Caches the final basis on an optimal finish.
  virtual LpResult Solve(const std::vector<double>& rhs) = 0;
  // Warm re-solve against a new RHS (witness / dual-simplex / cold
  // cascade); behaves like Solve(rhs) when no basis is cached.
  virtual LpResult ResolveWithRhs(const std::vector<double>& rhs) = 0;
  // Multi-RHS warm re-solve: resolves every column of `rhs_batch` in order,
  // with results identical to calling ResolveWithRhs per column (the basis
  // mutates between columns exactly as it would across scalar calls). The
  // base implementation is that scalar loop; backends override to amortize
  // per-call setup across the block — the revised backend FTRANs all
  // columns through one cached LU factorization and shares the cost-row
  // BTRAN (the cached duals) across every witness-valid column, falling
  // back to the scalar cascade only for columns whose basis goes stale.
  //
  // The out-parameter form is the primary one: `out` is resized to the
  // batch and every element is fully overwritten (every LpResult field set,
  // no stale reads), so a caller looping over batches can reuse one result
  // vector and its per-element x/duals capacity instead of re-allocating
  // ~2 vectors per estimate — which profiling showed was a quarter of the
  // batch path. The value-returning form is a convenience forwarder.
  virtual void ResolveWithRhsBatch(
      std::span<const std::vector<double>> rhs_batch,
      std::vector<LpResult>& out);
  std::vector<LpResult> ResolveWithRhsBatch(
      std::span<const std::vector<double>> rhs_batch) {
    std::vector<LpResult> out;
    ResolveWithRhsBatch(rhs_batch, out);
    return out;
  }

  // Order-relaxed multi-RHS resolve: every column gets the same *value*
  // (objective, status, duals' weights) it would get from the scalar
  // sequence, but columns the cached basis can serve as a witness are
  // processed first, against one pinned basis, and only then do the stale
  // columns run the pivoting cascade in their original order. The point:
  // a mid-block pivot invalidates the factorization-keyed B⁻¹-column memo
  // and the incremental re-price baseline, so under the strict in-order
  // contract a handful of pivoting columns forces every later column back
  // to full FTRAN re-prices; pinning the basis for the witness pass keeps
  // the memos valid across the whole block. This is sound because a
  // witness verdict is order-independent — the pinned basis is dual
  // feasible (costs never change), so any column it serves primal-feasibly
  // gets the true optimum no matter which pivots other columns will take.
  // Bitwise identity with the scalar sequence is NOT promised (a deferred
  // column may reach its optimum through a different equal-value basis);
  // callers needing the strict contract use ResolveWithRhsBatch. The base
  // implementation is the strict path; the revised backend overrides.
  virtual void ResolveWithRhsBatchRelaxed(
      std::span<const std::vector<double>> rhs_batch,
      std::vector<LpResult>& out) {
    ResolveWithRhsBatch(rhs_batch, out);
  }

  // Incremental row append on top of the cached optimal basis. Installs
  // the new constraints with their slacks basic — the previous optimum
  // keeps its duals (new rows get dual 0), so the extended basis is dual
  // feasible by construction — then runs dual simplex to repair only the
  // rows the old optimum violates. This is what makes cutting-plane
  // growth rounds cheap: O(violated-rows) dual pivots instead of a full
  // two-phase re-solve from the identity basis.
  //
  // `rows` are the new constraints (same term/sense/rhs shape as
  // LpProblem::AddConstraint); the backend appends them to its own copy
  // of the problem. `rhs` is the full new RHS including the appended
  // rows. Callers that keep their own LpProblem (for a later cold
  // rebuild) must mirror the append there themselves.
  //
  // Returns kOptimal/kUnbounded/etc. with path kWarm on success. Returns
  // false via the bool when the backend declines the append — no cached
  // optimal basis, a row that normalizes to something other than a
  // slack-feasible <= row, or an existing artificial column (appends
  // assume slack columns are the tail of the column space). On decline
  // the backend state is unchanged and the caller must rebuild + solve
  // cold; `result` is untouched. The default implementation always
  // declines.
  virtual bool AddConstraintsWarm(const std::vector<LpConstraint>& rows,
                                  const std::vector<double>& rhs,
                                  LpResult& result);

  virtual bool has_optimal_basis() const = 0;
  // Basic column per row, internal column ids (structural, then
  // slack/surplus, then artificial).
  virtual const std::vector<int>& basis() const = 0;
};

// Row normalization shared by both backends — backend parity (enforced by
// the differential harness) depends on them applying the *identical*
// transformation, so it lives here rather than being duplicated. Rows are
// flipped when the RHS is negative, and also when a >= row has RHS 0: the
// flipped row is a <= row whose slack gives a feasible basis, avoiding an
// artificial variable entirely (the common case for the engines'
// homogeneous Shannon cuts).
struct NormalizedRows {
  std::vector<LpSense> sense;     // per row, post-flip
  std::vector<double> row_sign;   // +1 / -1 per row
  int num_slack = 0;              // slack/surplus columns needed
  int num_art = 0;                // artificial columns needed
};
NormalizedRows NormalizeRows(const LpProblem& problem,
                             const std::vector<double>& rhs);

// The normalized RHS entry of row i: the row sign applied to the caller's
// value (empty `rhs` = the problem's own) plus the graded perturbation.
double NormalizedRhsEntry(const LpProblem& problem,
                          const std::vector<double>& row_sign, double perturb,
                          int i, const std::vector<double>& rhs);

// Resolves kDefault against the LPB_LP_BACKEND environment variable
// ("dense" / "revised"; anything else falls back to dense). Never returns
// kDefault.
LpBackendKind ResolveLpBackend(const SimplexOptions& options);

// Resolves kDefault against LPB_LP_PRICING ("dantzig" / "devex"; anything
// else falls back to dantzig). Never returns kDefault.
PricingRule ResolveLpPricing(const SimplexOptions& options);

// Resolves kDefault against LPB_LP_SIMD ("auto" / "scalar"; anything else
// falls back to auto). Never returns kDefault.
SimdMode ResolveSimdMode(const SimplexOptions& options);

// Resolves kDefault against LPB_LP_CUT_WARM ("0" / "off" disable; anything
// else — including unset — enables). Never returns kDefault.
CutWarmStart ResolveCutWarmStart(const SimplexOptions& options);

// Constructs the backend selected by `options` for `problem`.
std::unique_ptr<LpBackendImpl> MakeLpBackend(const LpProblem& problem,
                                             const SimplexOptions& options);

}  // namespace lpb

#endif  // LPB_LP_LP_BACKEND_H_
