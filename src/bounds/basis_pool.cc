#include "bounds/basis_pool.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "bounds/normal_engine.h"

namespace lpb {

namespace {

// A pivot below this magnitude marks A_{T,S} as near-singular. Its entries
// are 0, 1 or 1/p, so a well-conditioned block never comes close.
constexpr double kMinPivot = 1e-9;

// Inverts the t × t row-major matrix `a` in place by Gauss–Jordan
// elimination with partial pivoting; false when it is near-singular.
bool InvertInPlace(std::vector<double>& a, size_t t) {
  std::vector<double> inv(t * t, 0.0);
  for (size_t i = 0; i < t; ++i) inv[i * t + i] = 1.0;
  for (size_t c = 0; c < t; ++c) {
    size_t pivot = c;
    for (size_t r = c + 1; r < t; ++r) {
      if (std::abs(a[r * t + c]) > std::abs(a[pivot * t + c])) pivot = r;
    }
    if (std::abs(a[pivot * t + c]) < kMinPivot) return false;
    if (pivot != c) {
      std::swap_ranges(a.begin() + pivot * t, a.begin() + (pivot + 1) * t,
                       a.begin() + c * t);
      std::swap_ranges(inv.begin() + pivot * t, inv.begin() + (pivot + 1) * t,
                       inv.begin() + c * t);
    }
    const double scale = 1.0 / a[c * t + c];
    for (size_t k = 0; k < t; ++k) {
      a[c * t + k] *= scale;
      inv[c * t + k] *= scale;
    }
    for (size_t r = 0; r < t; ++r) {
      const double f = a[r * t + c];
      if (r == c || f == 0.0) continue;
      for (size_t k = 0; k < t; ++k) {
        a[r * t + k] -= f * a[c * t + k];
        inv[r * t + k] -= f * inv[c * t + k];
      }
    }
  }
  a = std::move(inv);
  return true;
}

}  // namespace

NormalBasisPool::NormalBasisPool(const BoundStructure& structure, double eps)
    : n_(structure.n), eps_(eps) {
  sigma_.reserve(structure.shapes.size());
  inv_p_.reserve(structure.shapes.size());
  for (const StatisticShape& shape : structure.shapes) {
    sigma_.push_back(shape.sigma);
    inv_p_.push_back(InverseNorm(shape.p));
  }
}

bool NormalBasisPool::Serves(const Basis& basis, const double* b) {
  const size_t t = basis.rows.size();
  alpha_.resize(t);
  for (size_t j = 0; j < t; ++j) {
    const double* inv = basis.inverse.data() + j * t;
    double a = 0.0;
    for (size_t k = 0; k < t; ++k) a += inv[k] * b[basis.rows[k]];
    if (a < -eps_) return false;
    alpha_[j] = a;
  }
  size_t next = 0;  // the next tight row; rows are ascending
  for (size_t i = 0; i < sigma_.size(); ++i) {
    if (next < t && static_cast<size_t>(basis.rows[next]) == i) {
      ++next;
      continue;
    }
    double slack = b[i];
    for (size_t j = 0; j < t; ++j) {
      slack -= NormalCoefficient(basis.ws[j], sigma_[i], inv_p_[i]) * alpha_[j];
    }
    if (slack < -eps_) return false;
  }
  return true;
}

void NormalBasisPool::Answer(double bound, bool want_alpha,
                             BoundResult& result) const {
  const Basis& front = bases_.front();
  result.status = LpStatus::kOptimal;
  result.log2_bound = bound;
  result.eval_path = LpEvalPath::kWitness;
  result.pool_hit = true;
  result.weights.assign(sigma_.size(), 0.0);
  for (size_t k = 0; k < front.rows.size(); ++k) {
    result.weights[front.rows[k]] = front.y[k];
  }
  if (want_alpha) {
    result.alpha.assign(size_t{1} << n_, 0.0);
    for (size_t j = 0; j < front.ws.size(); ++j) {
      result.alpha[front.ws[j]] = alpha_[j];
    }
  }
}

bool NormalBasisPool::Serve(const std::vector<double>& log_b, bool want_alpha,
                            BoundResult& result) {
  const double* b = log_b.data();
  if (repeat_ &&
      std::memcmp(last_values_.data(), b, log_b.size() * sizeof(double)) == 0) {
    // A bitwise repeat of the front basis's last values: it served them
    // then, so it serves them now; α is recomputed only when asked for.
    if (want_alpha) Serves(bases_.front(), b);
    Answer(last_bound_, want_alpha, result);
    return true;
  }
  for (size_t k = 0; k < bases_.size(); ++k) {
    if (!Serves(bases_[k], b)) continue;
    MoveToFront(k);
    const Basis& front = bases_.front();
    double bound = 0.0;
    for (size_t i = 0; i < front.rows.size(); ++i) {
      bound += front.y[i] * b[front.rows[i]];
    }
    last_values_.assign(log_b.begin(), log_b.end());
    last_bound_ = bound;
    repeat_ = true;
    Answer(bound, want_alpha, result);
    return true;
  }
  return false;
}

bool NormalBasisPool::Offer(const std::vector<int>& basis,
                            const std::vector<VarSet>& columns) {
  const int num_vars = static_cast<int>(columns.size());
  const int rows = static_cast<int>(sigma_.size());
  Basis entry;
  std::vector<bool> slack_basic(rows, false);
  for (int col : basis) {
    if (col >= 0 && col < num_vars) {
      entry.ws.push_back(columns[col]);
    } else if (col >= num_vars && col < num_vars + rows) {
      slack_basic[col - num_vars] = true;
    } else {
      return false;  // a basic artificial, or no column at all
    }
  }
  for (int i = 0; i < rows; ++i) {
    if (!slack_basic[i]) entry.rows.push_back(i);
  }
  const size_t t = entry.ws.size();
  if (entry.rows.size() != t) return false;
  // Each column stands for a distinct W, so S is its set of W's.
  std::sort(entry.ws.begin(), entry.ws.end());
  for (size_t k = 0; k < bases_.size(); ++k) {
    if (bases_[k].ws == entry.ws && bases_[k].rows == entry.rows) {
      MoveToFront(k);
      return true;
    }
  }

  entry.inverse.resize(t * t);
  for (size_t k = 0; k < t; ++k) {
    const int i = entry.rows[k];
    for (size_t j = 0; j < t; ++j) {
      entry.inverse[k * t + j] =
          NormalCoefficient(entry.ws[j], sigma_[i], inv_p_[i]);
    }
  }
  if (!InvertInPlace(entry.inverse, t)) return false;
  // y_T = A_{T,S}⁻ᵀ·1: the column sums of the inverse.
  entry.y.assign(t, 0.0);
  for (size_t j = 0; j < t; ++j) {
    for (size_t k = 0; k < t; ++k) entry.y[k] += entry.inverse[j * t + k];
  }
  for (double y : entry.y) {
    if (y < -eps_) return false;
  }

  if (bases_.size() == kCapacity) bases_.pop_back();
  bases_.insert(bases_.begin(), std::move(entry));
  repeat_ = false;
  return true;
}

void NormalBasisPool::MoveToFront(size_t k) {
  if (k == 0) return;
  std::rotate(bases_.begin(), bases_.begin() + k, bases_.begin() + k + 1);
  repeat_ = false;
}

}  // namespace lpb
