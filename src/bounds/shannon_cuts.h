// Elemental-inequality cut oracle of the Γn bound engine.
//
// The cutting-plane mode of the compiled Γn bound (bounds/bound_engine.cc)
// relaxes Γn to a growing set of elemental Shannon inequalities. This
// header holds the pieces it needs: the cut representation, the violation
// scan, the seed cut set, and the statistics-derived box that keeps the
// relaxation bounded.
#ifndef LPB_BOUNDS_SHANNON_CUTS_H_
#define LPB_BOUNDS_SHANNON_CUTS_H_

#include <cstdint>
#include <set>
#include <vector>

#include "entropy/shannon.h"
#include "lp/lp_problem.h"
#include "util/bits.h"

namespace lpb {

// An elemental Shannon cut, identified for dedup purposes.
struct ShannonCut {
  int i = 0;     // first variable
  int j = -1;    // second variable, or -1 for monotonicity
  VarSet s = 0;  // conditioning set (submodularity only)

  uint64_t Key() const {
    return (static_cast<uint64_t>(i) << 40) |
           (static_cast<uint64_t>(j + 1) << 32) | s;
  }
  LinearForm Form(int n) const;
};

// Violation of the cut at the point h = x (negative = violated); x is the
// LP solution vector indexed by VarSet - 1.
double ShannonCutValue(const ShannonCut& cut, int n,
                       const std::vector<double>& x);

// Scans every elemental inequality and returns the most violated ones not
// already in `present` (keyed by ShannonCut::Key), at most `max_cuts`.
std::vector<ShannonCut> FindViolatedShannonCuts(int n,
                                                const std::vector<double>& x,
                                                const std::set<uint64_t>& present,
                                                int max_cuts, double eps);

// Flat index form of the full elemental scan, for the converged steady
// state where almost every evaluation ends with "no cut violated". Each
// inequality is four indices (a, b, c, d) into a shifted copy y of the
// solution (y[0] = h(∅) = 0, y[k] = x[k - 1]), with violation
// y[a] + y[b] - y[c] - y[d]; monotonicity cuts point b and d at slot 0.
// The uniform quadruple layout turns the scan into a branchless min
// reduction — no subset enumeration, no per-cut key lookups.
struct ShannonScanTable {
  std::vector<int32_t> idx;  // 4 entries per inequality
  int n = 0;
};

ShannonScanTable BuildShannonScanTable(int n);

// True when any elemental inequality is violated by more than eps at x —
// ignoring `present`, so a clean result proves FindViolatedShannonCuts
// would return empty (cuts already in the pool are LP rows, satisfied at
// any optimum to the solver's tighter tolerance). Callers use this as the
// cheap pre-check and fall back to the exact scan only when it fires.
// `scratch` holds the shifted copy between calls.
bool AnyViolatedShannonCut(const ShannonScanTable& table,
                           const std::vector<double>& x, double eps,
                           std::vector<double>& scratch);

// The seed cut set for a fresh cutting-plane solve: the monotonicity cuts
// and the submodularities whose conditioning set is small (|S| <= 1) or
// maximal — the cuts that drive chain-style bounds — so the first
// relaxations are already close to bounded and the solver does not grind
// on the box face.
std::vector<ShannonCut> SeedShannonCuts(int n);

// Box bound on h(X) used during cutting-plane solves: keeps the relaxation
// bounded; a converged optimum at the box means the statistics genuinely do
// not bound the query. The box is derived from the statistics (sum of
// p-weighted budgets) rather than a huge constant: any witness inequality
// (8) certifying a finite bound uses weight at most p_i on statistic i once
// the h(U_i) side must also be covered, so the box dominates every finite
// bound, while staying small enough that the simplex does not grind across
// an enormous degenerate face at the box. `ps` and `log_bs` are the per-
// statistic norm indices and values.
double GammaBoxBound(int n, const std::vector<double>& ps,
                     const std::vector<double>& log_bs);

// Lowers a sparse entropy linear form to LP terms over the h-variable
// layout (variable h(S) lives at column S - 1; h(∅) is pinned to 0).
std::vector<LpTerm> FormToTerms(const LinearForm& form);

}  // namespace lpb

#endif  // LPB_BOUNDS_SHANNON_CUTS_H_
