#include "lp/dense_tableau.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lpb {
namespace {

constexpr long double kLexEps = 1e-12L;

}  // namespace

DenseTableau::DenseTableau(const LpProblem& problem,
                           const SimplexOptions& options)
    : problem_(problem),
      options_(options),
      kernels_(&GetLpKernels(ResolveSimdMode(options))) {}

DenseTableau::Scalar DenseTableau::NormalizedRhs(
    int i, const std::vector<double>& rhs) const {
  return NormalizedRhsEntry(problem_, row_sign_, options_.perturb, i, rhs);
}

void DenseTableau::AllocArenaScratch() {
  // One flat block for the tableau and the row scratch, sized to exactly
  // this request: a single allocation per Build, and repeated Builds of
  // the same problem shape never hit malloc.
  const std::size_t cells = static_cast<std::size_t>(rows_) * stride_;
  arena_.Reset(Arena::ArrayBytes<Scalar>(cells) +
               4 * Arena::ArrayBytes<double>(rows_) +
               Arena::ArrayBytes<Scalar>(rows_));
  t_ = arena_.AllocArray<Scalar>(cells);
  std::fill(t_, t_ + cells, Scalar{0.0});
  problem_rhs_ = arena_.AllocArray<double>(rows_);
  perturb_term_ = arena_.AllocArray<double>(rows_);
  norm_b_ = arena_.AllocArray<double>(rows_);
  last_b_ = arena_.AllocArray<double>(rows_);
  reprice_ = arena_.AllocArray<Scalar>(rows_);
  for (int i = 0; i < rows_; ++i) {
    problem_rhs_[i] = problem_.constraint(i).rhs;
    // The graded perturbation of NormalizedRhsEntry, precomputed so the
    // re-pricing normalization is one vectorizable sign*b + term pass.
    perturb_term_[i] = options_.perturb * (1 + i % 101);
  }
}

void DenseTableau::Build(const std::vector<double>& rhs) {
  const int n = problem_.num_vars();
  rows_ = problem_.num_constraints();
  has_basis_ = false;
  cached_duals_.clear();
  result_cache_valid_ = false;
  reprice_valid_ = false;
  witness_scan_ok_ = false;

  // Row normalization shared with the revised backend (lp/lp_backend.h):
  // from it we know how many slack and artificial columns are needed.
  NormalizedRows normalized = NormalizeRows(problem_, rhs);
  const std::vector<LpSense>& sense = normalized.sense;
  row_sign_ = std::move(normalized.row_sign);

  first_art_ = n + normalized.num_slack;
  cols_ = first_art_ + normalized.num_art;
  stride_ = cols_ + 1;

  // Everything the arena holds is rebuilt, and the re-pricing scratch is
  // invalid anyway (reprice_valid_ cleared above).
  AllocArenaScratch();

  basis_.assign(rows_, kNoCol);
  dual_col_.assign(rows_, kNoCol);

  int next_slack = n;
  int next_art = first_art_;
  for (int i = 0; i < rows_; ++i) {
    const LpConstraint& c = problem_.constraint(i);
    Scalar* row = Row(i);
    for (const LpTerm& term : c.terms) row[term.var] += row_sign_[i] * term.coef;
    row[cols_] = NormalizedRhs(i, rhs);

    switch (sense[i]) {
      case LpSense::kLe: {
        int slack = next_slack++;
        row[slack] = 1.0;
        basis_[i] = slack;
        dual_col_[i] = slack;
        break;
      }
      case LpSense::kGe: {
        int surplus = next_slack++;
        int art = next_art++;
        row[surplus] = -1.0;
        row[art] = 1.0;
        basis_[i] = art;
        dual_col_[i] = art;
        break;
      }
      case LpSense::kEq: {
        int art = next_art++;
        row[art] = 1.0;
        basis_[i] = art;
        dual_col_[i] = art;
        break;
      }
    }
  }

  phase2_cost_.assign(cols_, 0.0);
  for (int j = 0; j < n; ++j) phase2_cost_[j] = problem_.objective_coef(j);
}

void DenseTableau::ComputeReducedCosts(const std::vector<double>& cost) {
  reduced_.assign(cols_, 0.0);
  // reduced = cost - cB' * T. Accumulate row-wise for cache friendliness;
  // each row is one elimination-shaped sweep (reduced[j] -= cb * row[j]).
  for (int i = 0; i < rows_; ++i) {
    const Scalar cb = cost[basis_[i]];
    if (cb == 0.0) continue;
    LpSweepLd(reduced_.data(), Row(i), cb, cols_);
  }
  for (int j = 0; j < cols_; ++j) reduced_[j] += cost[j];
}

void DenseTableau::Pivot(int row, int col) {
  reprice_valid_ = false;  // B changes: incremental re-pricing is stale
  witness_scan_ok_ = false;
  Scalar* prow = Row(row);
  const Scalar p = prow[col];
  const Scalar inv = 1.0L / p;
  LpScaleLd(prow, inv, cols_ + 1);
  prow[col] = 1.0;  // exact
  for (int i = 0; i < rows_; ++i) {
    if (i == row) continue;
    Scalar* r = Row(i);
    const Scalar f = r[col];
    if (f == 0.0) continue;
    LpSweepLd(r, prow, f, cols_ + 1);
    r[col] = 0.0;  // exact
  }
  basis_[row] = col;
}

bool DenseTableau::RunPhase(const std::vector<double>& cost, bool phase_two) {
  const double eps = options_.eps;
  frozen_.assign(cols_, false);
  while (true) {
    if (iterations_ >= max_iterations_) return false;
    // Recompute reduced costs from scratch each iteration: same asymptotic
    // cost as the pivot itself and immune to incremental drift (which
    // produced false unbounded verdicts on the engine's cutting-plane LPs).
    ComputeReducedCosts(cost);

    // Dantzig pricing.
    int enter = kNoCol;
    double best = eps;
    for (int j = 0; j < cols_; ++j) {
      if (phase_two && j >= first_art_) break;  // artificials may not re-enter
      if (frozen_[j]) continue;
      if (reduced_[j] > best) {
        enter = j;
        best = static_cast<double>(reduced_[j]);
      }
    }
    if (enter == kNoCol) return true;  // optimal for this phase

    // Ratio test with lexicographic tie-breaking: guarantees termination
    // on the heavily degenerate cutting-plane LPs (Dantzig/Harris
    // tie-breaks stall for 100k+ iterations there). The tableau is kept in
    // long double because lexicographic pivoting occasionally selects
    // small pivot elements, whose reciprocals amplify rounding error.
    int leave = -1;
    Scalar best_ratio = std::numeric_limits<Scalar>::infinity();
    for (int i = 0; i < rows_; ++i) {
      const Scalar a = Row(i)[enter];
      if (a <= eps) continue;
      const Scalar ratio = Row(i)[cols_] / a;
      if (leave == -1 || ratio < best_ratio - kLexEps) {
        best_ratio = ratio;
        leave = i;
        continue;
      }
      if (ratio > best_ratio + kLexEps) continue;
      // Tie: lexicographic comparison of the rows scaled by their pivot
      // entries, over the slack/artificial block (initially the identity,
      // so rows are lexicographically positive and the classic termination
      // argument applies).
      const Scalar a_leave = Row(leave)[enter];
      for (int j = problem_.num_vars(); j < cols_; ++j) {
        const Scalar d = Row(i)[j] / a - Row(leave)[j] / a_leave;
        if (d < -kLexEps) {
          leave = i;
          best_ratio = ratio;
          break;
        }
        if (d > kLexEps) break;
      }
    }
    if (leave == -1) {
      // Guard against numerically dead columns: all entries ~0 yet a barely
      // positive reduced cost is noise, not a certificate of
      // unboundedness. Freeze the column and move on.
      if (reduced_[enter] <= 1e-6) {
        frozen_[enter] = true;
        continue;
      }
      unbounded_ = true;
      return true;
    }
    Pivot(leave, enter);
    ++iterations_;
    if (phase_two) {
      ++stats_.phase2_pivots;
    } else {
      ++stats_.phase1_pivots;
    }
  }
}

DenseTableau::DualOutcome DenseTableau::RunDualSimplex() {
  const double eps = options_.eps;
  while (true) {
    if (iterations_ >= max_iterations_) return DualOutcome::kIterationLimit;

    // Leaving row: most negative basic value.
    int leave = -1;
    Scalar most = -eps;
    for (int i = 0; i < rows_; ++i) {
      if (Row(i)[cols_] < most) {
        most = Row(i)[cols_];
        leave = i;
      }
    }
    if (leave == -1) return DualOutcome::kOptimal;  // primal feasible

    // Entering column: dual ratio test over eligible (negative) entries of
    // the leaving row. Reduced costs are <= 0 at a dual-feasible basis, so
    // the ratio reduced/a is >= 0; the minimum keeps dual feasibility.
    // Artificial columns may not (re-)enter, matching phase 2.
    ComputeReducedCosts(phase2_cost_);
    int enter = kNoCol;
    Scalar best_ratio = std::numeric_limits<Scalar>::infinity();
    for (int j = 0; j < first_art_; ++j) {
      const Scalar a = Row(leave)[j];
      if (a >= -eps) continue;
      const Scalar ratio = reduced_[j] / a;
      if (ratio < best_ratio - kLexEps) {
        best_ratio = ratio;
        enter = j;
      }
    }
    if (enter == kNoCol) return DualOutcome::kInfeasible;  // dual ray
    Pivot(leave, enter);
    ++iterations_;
    ++stats_.dual_pivots;
  }
}

void DenseTableau::EvictArtificials() {
  for (int i = 0; i < rows_; ++i) {
    if (basis_[i] < first_art_) continue;
    // Basic artificial (at value ~0 after a feasible phase 1). Pivot in any
    // non-artificial column with a nonzero entry; if none exists the row is
    // redundant and the artificial stays basic at zero, which is harmless.
    for (int j = 0; j < first_art_; ++j) {
      if (std::abs(static_cast<double>(Row(i)[j])) > options_.eps) {
        Pivot(i, j);
        ++iterations_;
        ++stats_.phase1_pivots;  // artificial eviction is phase-1 cleanup
        break;
      }
    }
  }
}

void DenseTableau::FillKernelStats() {
  for (int k = 0; k < kNumLpKernels; ++k) {
    stats_.kernel_calls[k] =
        g_lp_kernel_counters.calls[k] - kernel_base_.calls[k];
    stats_.kernel_cycles[k] =
        g_lp_kernel_counters.cycles[k] - kernel_base_.cycles[k];
  }
}

LpResult DenseTableau::ExtractOptimal(LpEvalPath path, bool repeat) {
  LpResult result;
  result.status = LpStatus::kOptimal;
  result.iterations = iterations_;
  result.path = path;
  if (repeat && result_cache_valid_) {
    // The RHS column is bitwise-unchanged since the extraction that filled
    // the cache, so x/objective/duals here are the cached ones by
    // construction — serve them as flat copies and skip the tableau walk.
    result.x = cached_x_;
    result.objective = cached_objective_;
    result.duals = cached_duals_;
    has_basis_ = true;
    FillKernelStats();
    result.stats = stats_;
    return result;
  }
  result.x.assign(problem_.num_vars(), 0.0);
  for (int i = 0; i < rows_; ++i) {
    if (basis_[i] < problem_.num_vars()) {
      result.x[basis_[i]] = static_cast<double>(Row(i)[cols_]);
    }
  }
  result.objective =
      LpDotD(*kernels_, phase2_cost_.data(), result.x.data(),
             problem_.num_vars());
  cached_x_ = result.x;
  cached_objective_ = result.objective;
  result_cache_valid_ = true;

  if (path == LpEvalPath::kWitness && !cached_duals_.empty()) {
    // Same basis, same cost: the duals are the previous solve's.
    result.duals = cached_duals_;
  } else {
    // Duals: the reduced cost under the +e_i column of constraint i is -y_i.
    ComputeReducedCosts(phase2_cost_);
    result.duals.assign(rows_, 0.0);
    for (int i = 0; i < rows_; ++i) {
      result.duals[i] =
          static_cast<double>(-reduced_[dual_col_[i]]) * row_sign_[i];
    }
    cached_duals_ = result.duals;
  }
  has_basis_ = true;
  FillKernelStats();
  result.stats = stats_;
  return result;
}

LpResult DenseTableau::Failure(LpStatus status) {
  LpResult result;
  result.status = status;
  result.iterations = iterations_;
  FillKernelStats();
  result.stats = stats_;
  // The LpResult contract: x/duals are sized (zeros) even on failure so
  // callers indexing them unconditionally never read stale data.
  result.x.assign(problem_.num_vars(), 0.0);
  result.duals.assign(problem_.num_constraints(), 0.0);
  return result;
}

LpResult DenseTableau::Solve(const std::vector<double>& rhs) {
  stats_.ResetPivots();
  kernel_base_ = g_lp_kernel_counters;
  return SolveInternal(rhs);
}

LpResult DenseTableau::SolveInternal(const std::vector<double>& rhs) {
  iterations_ = 0;
  Build(rhs);
  max_iterations_ = options_.max_iterations > 0
                        ? options_.max_iterations
                        : 50 * (rows_ + cols_) + 1000;

  // Phase 1: maximize -sum(artificials), feasible iff optimum is 0.
  if (first_art_ < cols_) {
    std::vector<double> cost(cols_, 0.0);
    for (int j = first_art_; j < cols_; ++j) cost[j] = -1.0;
    if (!RunPhase(cost, /*phase_two=*/false)) {
      return Failure(LpStatus::kIterationLimit);
    }
    Scalar infeas = 0.0;
    for (int i = 0; i < rows_; ++i) {
      if (basis_[i] >= first_art_) infeas += Row(i)[cols_];
    }
    if (infeas > 1e-7) {
      return Failure(LpStatus::kInfeasible);
    }
    EvictArtificials();
  }

  // Phase 2: real objective (artificial costs are zero and they are barred
  // from entering the basis).
  unbounded_ = false;
  if (!RunPhase(phase2_cost_, /*phase_two=*/true)) {
    return Failure(LpStatus::kIterationLimit);
  }
  if (unbounded_) {
    return Failure(LpStatus::kUnbounded);
  }
  return ExtractOptimal(LpEvalPath::kCold);
}

void DenseTableau::RepriceRhs(const std::vector<double>& rhs) {
  // Normalize the whole RHS in one vectorized pass (this is the historical
  // per-entry NormalizedRhsEntry — all-double arithmetic — with the graded
  // perturbation precomputed in Build). Profiling showed the per-entry
  // cross-TU call was ~13% of the batch path on its own.
  const double* b = rhs.empty() ? problem_rhs_ : rhs.data();
  LpNormalizeRhsD(*kernels_, row_sign_.data(), b, perturb_term_, norm_b_,
                  rows_);

  // Unchanged-RHS fast exit: bitwise-equal normalized RHS means the
  // tableau's RHS column is already B⁻¹b — no deltas, no mirror pass, and
  // no tick of the drift interval (an untouched column accumulates none).
  if (reprice_valid_ && LpEqualD(*kernels_, norm_b_, last_b_, rows_)) {
    rhs_unchanged_ = true;
    return;
  }
  rhs_unchanged_ = false;

  // Column dual_col_[j] of the current tableau is the j-th column of B⁻¹.
  if (reprice_valid_ && reprices_since_full_ < kFullRepriceInterval) {
    // Incremental: B⁻¹b_new = B⁻¹b_old + Σ_j Δ_j · (B⁻¹ e_j) over the rows
    // whose normalized RHS actually moved — the k-statistic what-if probe
    // costs O(rows × k). Exact comparison is deliberate: an unchanged
    // coordinate contributes an exact zero delta.
    ++reprices_since_full_;
    for (int j = 0; j < rows_; ++j) {
      const double bj = norm_b_[j];
      if (bj == last_b_[j]) continue;
      const Scalar d = static_cast<Scalar>(bj) - static_cast<Scalar>(last_b_[j]);
      last_b_[j] = bj;
      LpGatherAxpyLd(reprice_, Row(0) + dual_col_[j], stride_, d, rows_);
    }
  } else {
    // Full re-price: only rows with a nonzero normalized RHS contribute —
    // in the bound LPs that is just the statistics rows, so this is a
    // (rows × nnz(b')) multiply, not (rows × rows). Also the periodic
    // refresh that squashes incremental-accumulation drift.
    std::fill(reprice_, reprice_ + rows_, Scalar{0.0});
    for (int j = 0; j < rows_; ++j) {
      const double bj = norm_b_[j];
      last_b_[j] = bj;
      if (bj == 0.0) continue;
      LpGatherAxpyLd(reprice_, Row(0) + dual_col_[j], stride_,
                     static_cast<Scalar>(bj), rows_);
    }
    reprice_valid_ = true;
    reprices_since_full_ = 0;
  }
  for (int i = 0; i < rows_; ++i) Row(i)[cols_] = reprice_[i];
}

LpResult DenseTableau::ResolveWithRhs(const std::vector<double>& rhs) {
  kernel_base_ = g_lp_kernel_counters;
  if (!has_basis_) {
    stats_.ResetPivots();
    return SolveInternal(rhs);
  }
  iterations_ = 0;
  stats_.ResetPivots();
  max_iterations_ = options_.max_iterations > 0
                        ? options_.max_iterations
                        : 50 * (rows_ + cols_) + 1000;

  // Re-price the RHS column under the cached basis: the new basic solution
  // is B⁻¹ b'_norm (incremental against the previous re-price when the
  // basis is unchanged; see RepriceRhs).
  RepriceRhs(rhs);
  // Memoized scan: an unchanged RHS column that already passed the scan
  // below passes it again — rescanning identical bits is pure overhead.
  if (rhs_unchanged_ && witness_scan_ok_) {
    return ExtractOptimal(LpEvalPath::kWitness, /*repeat=*/true);
  }
  bool feasible = true;
  for (int i = 0; i < rows_; ++i) {
    const Scalar fresh = Row(i)[cols_];
    if (fresh < -options_.eps) feasible = false;
    // A basic artificial forced away from zero means the cached basis
    // cannot represent this RHS at all (a previously-redundant row became
    // inconsistent); only a cold solve can decide feasibility.
    if (basis_[i] >= first_art_ &&
        std::abs(static_cast<double>(fresh)) > 1e-7) {
      return SolveInternal(rhs);
    }
  }
  if (feasible) {
    // Witness reuse: the basis is still optimal; zero pivots needed.
    witness_scan_ok_ = true;
    return ExtractOptimal(LpEvalPath::kWitness);
  }
  witness_scan_ok_ = false;

  switch (RunDualSimplex()) {
    case DualOutcome::kOptimal:
      return ExtractOptimal(LpEvalPath::kWarm);
    case DualOutcome::kInfeasible:
    case DualOutcome::kIterationLimit:
      // A dual ray certifies primal infeasibility in exact arithmetic, but
      // re-deriving it from a cold two-phase solve is cheap insurance
      // against numerical drift in the warmed tableau — and the fallback
      // also covers the (rare) dual-simplex stall.
      return SolveInternal(rhs);
  }
  return SolveInternal(rhs);  // unreachable
}

bool DenseTableau::AddConstraintsWarm(const std::vector<LpConstraint>& rows,
                                      const std::vector<double>& rhs,
                                      LpResult& result) {
  const int k = static_cast<int>(rows.size());
  const int old_rows = rows_;
  const int new_rows = old_rows + k;
  if (k == 0 || !has_basis_ || first_art_ != cols_ ||
      static_cast<int>(rhs.size()) != new_rows) {
    return false;
  }
  // Every appended row must normalize to <= (the NormalizeRows flip rule:
  // negate when b < 0, or when a >= row has b == 0) so its slack can enter
  // the basis directly. Pure validation — state is untouched on decline.
  std::vector<double> new_sign(k, 1.0);
  for (int i = 0; i < k; ++i) {
    const double b = rhs[old_rows + i];
    LpSense s = rows[i].sense;
    if (b < 0.0 || (s == LpSense::kGe && b == 0.0)) {
      new_sign[i] = -1.0;
      if (s == LpSense::kLe) {
        s = LpSense::kGe;
      } else if (s == LpSense::kGe) {
        s = LpSense::kLe;
      }
    }
    if (s != LpSense::kLe) return false;
  }

  // Commit point: from here every path produces a result (worst case an
  // internal cold solve of the grown problem) and returns true.
  kernel_base_ = g_lp_kernel_counters;
  stats_.ResetPivots();
  stats_.row_appends += k;

  // Re-price the old RHS column against the caller's rhs while the old
  // machinery is still sized for it — the incremental B⁻¹-column path when
  // only a few statistics moved, exactly as a warm resolve would.
  RepriceRhs(rhs);

  const int old_cols = cols_;
  const int old_stride = stride_;
  for (int i = 0; i < k; ++i) {
    problem_.AddConstraint(rows[i].terms, rows[i].sense, rows[i].rhs);
    row_sign_.push_back(new_sign[i]);
    basis_.push_back(old_cols + i);
    dual_col_.push_back(old_cols + i);
  }
  rows_ = new_rows;
  cols_ = old_cols + k;
  first_art_ = cols_;
  stride_ = cols_ + 1;
  phase2_cost_.resize(cols_, 0.0);

  // Re-layout the tableau with k more rows and a wider stride. The old
  // block lives in the arena, so it is copied out before the Reset; old
  // rows get zeros in the new slack columns (B_new⁻¹ is block lower
  // triangular) and keep their RHS in the widened last column.
  std::vector<Scalar> old_t(
      t_, t_ + static_cast<std::size_t>(old_rows) * old_stride);
  AllocArenaScratch();
  for (int i = 0; i < old_rows; ++i) {
    const Scalar* src = old_t.data() + static_cast<std::size_t>(i) * old_stride;
    Scalar* dst = Row(i);
    std::copy(src, src + old_cols, dst);
    dst[cols_] = src[old_cols];  // RHS moves to the widened last column
  }
  reprice_valid_ = false;
  rhs_unchanged_ = false;
  witness_scan_ok_ = false;
  result_cache_valid_ = false;
  cached_duals_.clear();

  // Each new row enters as its raw normalized form — structural terms plus
  // its unit slack — eliminated against the basic rows: the old basic
  // columns are unit columns of the current tableau, so the sweep yields
  // exactly row old_rows+i of B_new⁻¹·A_new. A negative resulting RHS is
  // precisely a cut the old optimum violates.
  for (int i = 0; i < k; ++i) {
    Scalar* row = Row(old_rows + i);
    for (const LpTerm& term : rows[i].terms) {
      if (term.var >= 0 && term.var < problem_.num_vars()) {
        row[term.var] += new_sign[i] * term.coef;
      }
    }
    row[old_cols + i] = 1.0;
    row[cols_] = NormalizedRhs(old_rows + i, rhs);
    for (int r = 0; r < old_rows; ++r) {
      const Scalar f = row[basis_[r]];
      if (f == 0.0) continue;
      LpSweepLd(row, Row(r), f, cols_ + 1);
      row[basis_[r]] = 0.0;  // exact
    }
  }

  iterations_ = 0;
  unbounded_ = false;
  max_iterations_ = options_.max_iterations > 0
                        ? options_.max_iterations
                        : 50 * (rows_ + cols_) + 1000;
  const int dual_before = stats_.dual_pivots;
  const DualOutcome outcome = RunDualSimplex();
  stats_.dual_repair_pivots += stats_.dual_pivots - dual_before;
  switch (outcome) {
    case DualOutcome::kOptimal:
      result = ExtractOptimal(LpEvalPath::kWarm);
      return true;
    case DualOutcome::kInfeasible:
    case DualOutcome::kIterationLimit:
      break;
  }
  result = SolveInternal(rhs);
  return true;
}

}  // namespace lpb
