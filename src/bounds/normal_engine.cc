#include "bounds/normal_engine.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace lpb {
namespace {

// Row coefficients of column W (NormalCoefficient per statistic), written
// into `coefs`; returns their sum.
double ColumnCoefficients(VarSet w, const std::vector<ConcreteStatistic>& stats,
                          const std::vector<double>& inv_p,
                          std::vector<double>& coefs) {
  double sum = 0.0;
  for (size_t i = 0; i < stats.size(); ++i) {
    coefs[i] = NormalCoefficient(w, stats[i].sigma, inv_p[i]);
    sum += coefs[i];
  }
  return sum;
}

}  // namespace

NormalBoundLp BuildNormalBoundLp(int n,
                                 const std::vector<ConcreteStatistic>& stats) {
  const VarSet full = FullSet(n);
  const size_t rows = stats.size();
  std::vector<double> inv_p(rows);
  for (size_t i = 0; i < rows; ++i) inv_p[i] = InverseNorm(stats[i].p);

  // Scan order: ascending coefficient sum, ties by W. A column's
  // dominators have sums no larger than its own (float addition is
  // monotone), so they are scanned first.
  std::vector<double> coefs(rows);
  std::vector<std::pair<double, VarSet>> order;
  order.reserve(full);
  for (VarSet w = 1; w <= full; ++w) {
    order.emplace_back(ColumnCoefficients(w, stats, inv_p, coefs), w);
  }
  std::sort(order.begin(), order.end());

  // Keep a column unless an already-kept one is <= it in every row.
  // Dominance is transitive, so the kept list is the only comparison set.
  std::vector<VarSet> columns;
  std::vector<double> kept;  // row-major: kept column k at [k * rows, ...)
  for (const auto& [sum, w] : order) {
    ColumnCoefficients(w, stats, inv_p, coefs);
    bool dominated = false;
    for (size_t k = 0; k < columns.size() && !dominated; ++k) {
      const double* other = kept.data() + k * rows;
      dominated = std::equal(other, other + rows, coefs.begin(),
                             [](double a, double b) { return a <= b; });
    }
    if (dominated) continue;
    columns.push_back(w);
    kept.insert(kept.end(), coefs.begin(), coefs.end());
  }

  // Emit the kept columns in ascending W, the full LP's column order, so
  // the solvers' index tie-breaks meet them in the order they always did.
  // Their coefficients come straight from `kept`, via the scan index.
  std::vector<size_t> emit(columns.size());
  std::iota(emit.begin(), emit.end(), size_t{0});
  std::sort(emit.begin(), emit.end(),
            [&](size_t a, size_t b) { return columns[a] < columns[b]; });
  const int num_vars = static_cast<int>(columns.size());
  std::vector<std::vector<LpTerm>> terms(rows);
  for (std::vector<LpTerm>& row : terms) row.reserve(num_vars);
  // maximize Σ_W α_W  (h_W(X) = 1 for every nonempty W)
  NormalBoundLp out{LpProblem(num_vars), std::vector<VarSet>(num_vars)};
  for (int j = 0; j < num_vars; ++j) {
    out.lp.SetObjective(j, 1.0);
    out.columns[j] = columns[emit[j]];
    const double* coef = kept.data() + emit[j] * rows;
    for (size_t i = 0; i < rows; ++i) {
      if (coef[i] != 0.0) terms[i].push_back({j, coef[i]});
    }
  }
  for (size_t i = 0; i < rows; ++i) {
    out.lp.AddConstraint(std::move(terms[i]), LpSense::kLe, stats[i].log_b);
  }
  return out;
}

std::vector<double> NormalAlpha(int n, const std::vector<VarSet>& columns,
                                const std::vector<double>& x) {
  std::vector<double> alpha(size_t{1} << n, 0.0);
  for (size_t j = 0; j < columns.size(); ++j) alpha[columns[j]] = x[j];
  return alpha;
}

BoundResult NormalPolymatroidBound(int n,
                                   const std::vector<ConcreteStatistic>& stats,
                                   bool require_simple,
                                   const SimplexOptions& simplex) {
  assert(n >= 1 && n <= kMaxVars);
  if (require_simple) assert(AllSimple(stats));
  EngineOptions options;
  options.simplex = simplex;
  return CompileNormalBound(StructureOf(n, stats), options)
      ->Evaluate(ValuesOf(stats));
}

BoundResult LpNormBound(int n, const std::vector<ConcreteStatistic>& stats,
                        const EngineOptions& options) {
  return FindBoundEngine("auto")
      ->Compile(StructureOf(n, stats), options)
      ->Evaluate(ValuesOf(stats));
}

}  // namespace lpb
