// The optimal-basis pool of one compiled Nn bound (bounds/bound_engine.h).
//
// The statistics enter the Nn LP (bounds/normal_engine.h) only as its
// right-hand side b, so a basis that was optimal once stays dual feasible
// for every b: wherever it is still primal feasible it certifies the exact
// optimum y·b, with its duals y as the weights of inequality (8). Sub-
// queries that share a structure drift between a handful of such bases,
// and one cached basis per structure keeps getting evicted; the pool keeps
// up to kCapacity of them, most recently used first, and answers most
// drifted values without a simplex pivot.
//
// A basis is its basic step-function columns S and the statistic rows T
// whose slack is nonbasic, |S| = |T| = t (t <= 12, mean 7, on the JOB
// plan-drift structures). The pool stores the inverse of the t × t block
// A_{T,S} and y_T = A_{T,S}⁻ᵀ·1; the coefficients of the other rows are
// recomputed from the shapes (σ, p) and each basic column's W
// (NormalCoefficient) rather than stored. A basis serves b when
//   α_S = A_{T,S}⁻¹·b_T >= −eps  and  b_i − A_{i,S}·α_S >= −eps (i ∉ T),
// and its answer is y_T·b_T. Dual feasibility makes that answer an upper
// bound on the LP optimum even within the eps slack (weak duality), and
// the optimum itself whenever the basis is primal feasible.
//
// The front basis also remembers the last values it served, so a bitwise
// repeat — the what-if batch path bypasses the advisor's estimate memo —
// costs one compare.
//
// Not thread-safe; the owning CompiledBound is serialized by its callers.
#ifndef LPB_BOUNDS_BASIS_POOL_H_
#define LPB_BOUNDS_BASIS_POOL_H_

#include <cstddef>
#include <vector>

#include "bounds/bound_engine.h"
#include "stats/statistic.h"
#include "util/bits.h"

namespace lpb {

class NormalBasisPool {
 public:
  static constexpr size_t kCapacity = 8;

  // One pooled basis. S and T are ascending; inverse is A_{T,S}⁻¹,
  // row-major t × t (row j belongs to ws[j], column k to rows[k]).
  struct Basis {
    std::vector<VarSet> ws;    // S: the W of each basic LP column
    std::vector<int> rows;     // T: statistic rows whose slack is nonbasic
    std::vector<double> inverse;
    std::vector<double> y;     // the duals of T, y_T = A_{T,S}⁻ᵀ·1
  };

  // `eps` is the primal feasibility tolerance (SimplexOptions::eps).
  NormalBasisPool(const BoundStructure& structure, double eps);

  // Answers finite values `log_b` from the first pooled basis that serves
  // them, which moves to the front: status optimal, log2_bound = y_T·b_T,
  // weights = y (0 off T), eval_path kWitness, pool_hit, and, when
  // `want_alpha`, α* in BoundResult::alpha. Returns false, leaving
  // `result` untouched, when no pooled basis serves them.
  bool Serve(const std::vector<double>& log_b, bool want_alpha,
             BoundResult& result);

  // Enters the optimal basis `basis` of the structure's Nn LP, whose LP
  // column j stands for columns[j], at the front. `basis` is
  // SimplexTableau::basis(): structural columns, then one slack per row,
  // then artificials. A basis already pooled moves to the front instead,
  // and the least recently used one drops when the pool is full. A basis
  // with a basic artificial, a near-singular block or a negative dual does
  // not enter. Returns whether the basis is now at the front.
  bool Offer(const std::vector<int>& basis, const std::vector<VarSet>& columns);

  size_t size() const { return bases_.size(); }
  const Basis& basis(size_t k) const { return bases_[k]; }

 private:
  // Computes α_S into alpha_ and returns whether `basis` serves `b`.
  bool Serves(const Basis& basis, const double* b);
  // Fills `result` from the front basis and alpha_.
  void Answer(double bound, bool want_alpha, BoundResult& result) const;
  void MoveToFront(size_t k);

  int n_;
  double eps_;
  std::vector<Conditional> sigma_;  // per statistic row
  std::vector<double> inv_p_;       // per statistic row, InverseNorm(p)
  std::vector<Basis> bases_;        // most recently used first
  std::vector<double> alpha_;       // α_S scratch of the last check
  // The values the front basis served last, and its answer; valid only
  // while `repeat_` is set.
  std::vector<double> last_values_;
  double last_bound_ = 0.0;
  bool repeat_ = false;
};

}  // namespace lpb

#endif  // LPB_BOUNDS_BASIS_POOL_H_
