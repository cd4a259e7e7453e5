// Dense long-double tableau backend (the original solver).
//
// Implements the full SimplexTableau contract — two-phase primal simplex
// with Dantzig pricing and a lexicographic ratio test, dual-simplex warm
// re-solves, witness reuse — on an explicit rows x cols tableau kept in
// long double (lexicographic pivoting occasionally selects tiny pivot
// elements whose reciprocals amplify rounding error). Every pivot sweeps
// the whole tableau, so cost per iteration is O(rows x cols); see
// lp/revised_simplex.h for the sparse backend that avoids that sweep.
//
// The tableau and the re-pricing scratch live in a per-instance Arena as
// one flat rows x (cols+1) block (util/arena.h): a cold Build is a
// pointer bump plus a fill instead of rows+3 vector allocations, and the
// inner loops run through the kernel layer (lp/kernels.h) so they show up
// in the per-kernel call/cycle table of LpSolveStats.
#ifndef LPB_LP_DENSE_TABLEAU_H_
#define LPB_LP_DENSE_TABLEAU_H_

#include <vector>

#include "lp/kernels.h"
#include "lp/lp_backend.h"
#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "util/arena.h"

namespace lpb {

class DenseTableau : public LpBackendImpl {
 public:
  explicit DenseTableau(const LpProblem& problem,
                        const SimplexOptions& options = {});

  LpResult Solve(const std::vector<double>& rhs) override;
  LpResult ResolveWithRhs(const std::vector<double>& rhs) override;
  // Incremental row append (see LpBackendImpl::AddConstraintsWarm): the
  // tableau is re-laid out in place with k more rows and k more columns,
  // each new row entering as its raw normalized form eliminated against
  // the current basic rows — exactly the B_new⁻¹ image, since the old
  // basic columns are unit columns — with its slack basic, and dual
  // simplex repairs the rows the old optimum violates. Declines (state
  // untouched) when there is no cached optimal basis, an artificial
  // column exists, or a row does not normalize to <=.
  bool AddConstraintsWarm(const std::vector<LpConstraint>& rows,
                          const std::vector<double>& rhs,
                          LpResult& result) override;
  bool has_optimal_basis() const override { return has_basis_; }
  const std::vector<int>& basis() const override { return basis_; }

 private:
  using Scalar = long double;

  static constexpr int kNoCol = -1;

  void Build(const std::vector<double>& rhs);
  // The cold solve behind Solve(); shared with ResolveWithRhs's fallbacks
  // so a cascade accumulates into stats_ instead of resetting it.
  LpResult SolveInternal(const std::vector<double>& rhs);
  // Runs one primal simplex phase on `cost`; returns false on iteration
  // limit. Sets unbounded_ if a ray is detected (meaningful in phase 2).
  bool RunPhase(const std::vector<double>& cost, bool phase_two);
  // Dual simplex from a dual-feasible basis toward primal feasibility.
  enum class DualOutcome { kOptimal, kInfeasible, kIterationLimit };
  DualOutcome RunDualSimplex();
  void ComputeReducedCosts(const std::vector<double>& cost);
  void Pivot(int row, int col);
  // After phase 1: pivot basic artificials out where possible.
  void EvictArtificials();
  // Normalized RHS entry for row i (row sign + optional perturbation).
  Scalar NormalizedRhs(int i, const std::vector<double>& rhs) const;
  // Computes B⁻¹b' for `rhs` into reprice_ (and mirrors it into the
  // tableau's RHS column). Incremental when the basis is unchanged since
  // the last re-price: only rows whose normalized RHS moved contribute a
  // delta against the corresponding B⁻¹ column, so a what-if probe that
  // perturbs k statistics costs O(rows x k), not O(rows x nnz(b')). A
  // full re-price runs every kFullRepriceInterval calls to bound drift.
  void RepriceRhs(const std::vector<double>& rhs);
  // Reads the optimal result off the current tableau. `repeat` asserts the
  // RHS column is bitwise-unchanged since the previous extraction (the
  // caller holds rhs_unchanged_ && witness_scan_ok_), letting the
  // repeated-RHS hot path serve the cached x/objective/duals as flat
  // copies instead of re-walking the tableau (same contract as the revised
  // backend, lp/revised_simplex.h).
  LpResult ExtractOptimal(LpEvalPath path, bool repeat = false);
  // Non-optimal result with x/duals sized per the LpResult contract.
  LpResult Failure(LpStatus status);
  // Copies this call's kernel-counter deltas into stats_ (see
  // lp/kernels.h); called on every exit path so LpResult::stats carries
  // the whole cascade.
  void FillKernelStats();

  // Row i of the flat tableau (stride_ = cols_ + 1 entries per row).
  Scalar* Row(int i) { return t_ + static_cast<std::size_t>(i) * stride_; }
  const Scalar* Row(int i) const {
    return t_ + static_cast<std::size_t>(i) * stride_;
  }

  LpProblem problem_;
  SimplexOptions options_;
  const LpKernels* kernels_;  // dispatch table per SimplexOptions::simd

  int rows_ = 0;
  int cols_ = 0;        // total variable columns (structural+slack+artificial)
  int first_art_ = 0;   // first artificial column index
  int stride_ = 0;      // cols_ + 1 (row length incl. the RHS column)
  // Flat rows_ x stride_ tableau in arena_, rebuilt per cold Build.
  Scalar* t_ = nullptr;
  std::vector<int> basis_;              // basic column per row
  std::vector<Scalar> reduced_;         // reduced costs, size cols_
  // For each original constraint: the column whose original A-column is
  // +e_i (slack for LE, artificial for GE/EQ) and the row sign applied
  // during normalization. Column dual_col_[i] of the current tableau is
  // therefore the i-th column of B⁻¹ — used both to recover duals and to
  // re-price a new RHS without rebuilding.
  std::vector<int> dual_col_;
  std::vector<double> row_sign_;
  std::vector<double> phase2_cost_;     // structural objective, padded to cols_

  // (Re)allocates t_ (zeroed) and the row scratch below in one exactly
  // sized arena chunk, for the current rows_ and stride_.
  void AllocArenaScratch();

  // Arena-backed per-row scratch, (re)allocated in Build. The normalized
  // RHS pipeline is all double — NormalizedRhsEntry computes in double —
  // so norm_b_/last_b_ hold doubles with zero precision change, and the
  // normalization runs through the vectorized kernel.
  Arena arena_;
  double* problem_rhs_ = nullptr;   // constraint(i).rhs, for the empty-rhs case
  double* perturb_term_ = nullptr;  // perturb * (1 + i % 101)
  double* norm_b_ = nullptr;        // row_sign * b + perturb_term (this call)
  double* last_b_ = nullptr;        // normalized RHS of the last re-price
  Scalar* reprice_ = nullptr;       // B⁻¹ last_b_

  // Incremental re-pricing state (see RepriceRhs). Any pivot or rebuild
  // invalidates it; a periodic full re-price bounds delta-accumulation
  // drift.
  static constexpr int kFullRepriceInterval = 64;
  bool reprice_valid_ = false;
  int reprices_since_full_ = 0;
  // Exact memoization of the warm-resolve fast path (same contract as the
  // revised backend, lp/revised_simplex.h): rhs_unchanged_ — this call's
  // normalized RHS was bitwise-equal to the previous re-price's, so the
  // tableau's RHS column is untouched; witness_scan_ok_ — that column
  // already passed the feasibility scan. Together they let a repeated-RHS
  // resolve skip straight to the witness extraction.
  bool rhs_unchanged_ = false;
  bool witness_scan_ok_ = false;

  int iterations_ = 0;
  int max_iterations_ = 0;
  bool unbounded_ = false;
  bool has_basis_ = false;
  // Duals of the cached basis. The witness path reuses them verbatim —
  // duals depend only on (basis, cost), both unchanged there — skipping
  // the O(rows × cols) reduced-cost recomputation on the hot path.
  std::vector<double> cached_duals_;
  // Extraction cache for the repeated-witness fast path: the x/objective
  // of the last ExtractOptimal, valid only while the RHS column is
  // untouched (the rhs_unchanged_ && witness_scan_ok_ gate, refreshed by
  // every non-repeat extraction).
  std::vector<double> cached_x_;
  double cached_objective_ = 0.0;
  bool result_cache_valid_ = false;
  // Columns disabled for the current phase (numerically dead, see RunPhase).
  std::vector<bool> frozen_;
  // Per-call pivot counters (LpResult::stats); the dense tableau has no
  // factorization, so of the pivot counters only the phase/dual fields are
  // ever nonzero. The kernel table is filled on every exit.
  LpSolveStats stats_;
  // Thread-local kernel counters at the last public entry (Solve /
  // ResolveWithRhs); FillKernelStats reports the delta.
  LpKernelCounters kernel_base_;
};

}  // namespace lpb

#endif  // LPB_LP_DENSE_TABLEAU_H_
