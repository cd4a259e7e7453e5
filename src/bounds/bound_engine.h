// Compile-once / evaluate-many bound pipeline.
//
// The bound LP of Eq. (36) splits into a *structure* — the query's variable
// count plus the shapes (σ, p) of the available statistics, which fix the
// constraint matrix and objective — and *values* — the concrete ℓp-norm
// measurements log_b, which only enter the right-hand side. A BoundEngine
// compiles a structure once into a CompiledBound; each Evaluate(log_b) then
// reuses optimal bases of earlier evaluations:
//
//   1. witness reuse — if an earlier optimal basis is still primal-feasible
//      at the new RHS, the bound is its dual witness applied to the new
//      values, Σ_i w_i · log_b_i — a dot product, no simplex pivots at all.
//      The Nn engine first tries its basis pool (bounds/basis_pool.h): up
//      to 8 optimal bases, most recently used first, each checked through
//      its t × t block without touching the backend. Its misses, and every
//      Γn evaluation, re-price the tableau's one cached basis (B⁻¹b', a
//      rows × nnz(b') product);
//   2. warm re-solve — otherwise dual-simplex pivots from the still-dual-
//      feasible cached basis (lp/tableau.h);
//   3. cold solve — full two-phase simplex as a last resort.
//
// For the Nn engine the order is therefore pool, then warm, then cold; a
// pool answer reports kWitness and sets BoundResult::pool_hit.
//
// This is the LP analogue of a plan skeleton reused across invocations:
// optimizer probes against a repeated query template pay for statistics
// lookup plus a dot product, not an LP build-and-solve.
#ifndef LPB_BOUNDS_BOUND_ENGINE_H_
#define LPB_BOUNDS_BOUND_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bounds/engine.h"
#include "stats/statistic.h"

namespace lpb {

// The shape of a statistic: everything except the concrete value. Guard
// atoms and labels are provenance, not LP inputs, so they are excluded —
// two queries whose statistics agree on (n, σ, p) share one CompiledBound
// even when the guarded relations differ.
struct StatisticShape {
  Conditional sigma;
  double p = 1.0;
};

// The structural half of a bound computation. The statistic shapes fully
// determine the LP (the query hypergraph enters only through them), so this
// is the cache key for compiled bounds.
struct BoundStructure {
  int n = 0;
  std::vector<StatisticShape> shapes;

  bool AllShapesSimple() const;
};

// Splits a concrete statistics vector into its shape and value halves;
// Evaluate's `log_b` argument is aligned with StructureOf(...).shapes.
BoundStructure StructureOf(int n, const std::vector<ConcreteStatistic>& stats);
std::vector<double> ValuesOf(const std::vector<ConcreteStatistic>& stats);

// Canonical byte encoding of a structure, usable as a hash/map cache key.
std::string StructureKey(const BoundStructure& structure);
// StructureKey(StructureOf(n, stats)), without building the structure.
std::string StructureKey(int n, const std::vector<ConcreteStatistic>& stats);

// Shape predicates of the classic filtered bounds — the single definition
// shared by the "agm"/"panda" engines and FilterAgmStatistics /
// FilterPandaStatistics (bounds/engine.h).
bool IsAgmShape(const StatisticShape& shape);    // p = 1, U = ∅
bool IsPandaShape(const StatisticShape& shape);  // p ∈ {1, ∞}

// Cumulative evaluation-path counters of one CompiledBound.
struct EvalCounters {
  uint64_t evaluations = 0;
  uint64_t witness_hits = 0;   // cached basis still optimal: dot product only
  uint64_t pool_hits = 0;      // witness hits the Nn basis pool served
  uint64_t warm_resolves = 0;  // dual-simplex pivots from the cached basis
  uint64_t cold_solves = 0;    // full two-phase solve (incl. cut growth)
};

// A bound compiled for one structure. Not thread-safe: Evaluate and
// EvaluateBatch mutate the cached basis (and, for the Γn engine, the cut
// set); callers sharing a CompiledBound across threads must serialize both
// (the advisor keeps a per-entry mutex, held across a whole batch).
class CompiledBound {
 public:
  virtual ~CompiledBound() = default;

  // Evaluates the bound at the given statistic values (aligned with
  // structure().shapes). `want_h_opt` materializes the optimal polymatroid
  // h* in the result — an O(2^n) copy that pure estimation loops skip.
  // Should the LP fail (neither optimal nor unbounded, e.g. an iteration
  // limit), the result is still sound: the product bound Σ log_b over the
  // cardinality shapes (U = ∅, p = 1), or +∞ when those do not cover every
  // variable, marked BoundResult::fallback.
  BoundResult Evaluate(const std::vector<double>& log_b,
                       bool want_h_opt = true);

  // Evaluates the bound at every value vector of `log_b_batch`, in order.
  // For the fixed-matrix engines, results (including eval paths and
  // counters) are identical to calling Evaluate per vector. The Nn engine
  // runs exactly that scalar sequence: its basis pool answers most
  // columns without the backend, and a repeat of the front basis's last
  // values costs one compare. The full-lattice Γn engine pushes the block
  // through SimplexTableau::ResolveWithRhsBatch, so witness-valid columns
  // share one factorization and one cached-duals read (see lp/tableau.h),
  // with the cached basis evolving across the batch exactly as it would
  // across scalar calls. The cutting-plane Γn engine shares its cut pool
  // across the batch instead:
  // converged columns ride the block resolve and only columns that still
  // separate new cuts pay scalar top-up rounds, so bounds match the scalar
  // sequence to floating-point tolerance (both converge the same cut
  // family) rather than bitwise. `want_h_opt` defaults to *false* here,
  // unlike Evaluate: batched callers are optimizer probe loops that only
  // want the bound values.
  std::vector<BoundResult> EvaluateBatch(
      std::span<const std::vector<double>> log_b_batch,
      bool want_h_opt = false);

  const BoundStructure& structure() const { return structure_; }
  const EvalCounters& counters() const { return counters_; }

 protected:
  explicit CompiledBound(BoundStructure structure)
      : structure_(std::move(structure)) {}
  virtual BoundResult EvaluateImpl(const std::vector<double>& log_b,
                                   bool want_h_opt) = 0;
  // Batch hook. The base implementation is the sequential scalar loop —
  // always correct, since the scalar sequence is the batch's contract; the
  // gamma engine overrides it to hand maximal runs of columns to the
  // tableau's multi-RHS resolve (full-lattice mode) or to share its cut
  // pool (cutting mode).
  virtual std::vector<BoundResult> EvaluateBatchImpl(
      std::span<const std::vector<double>> log_b_batch, bool want_h_opt);

  BoundStructure structure_;

 private:
  void Record(const BoundResult& result);

  EvalCounters counters_;
};

// A family of bounds: knows which structures it can soundly handle and how
// to compile them. Engines are stateless singletons owned by the registry.
class BoundEngine {
 public:
  virtual ~BoundEngine() = default;

  virtual std::string_view name() const = 0;
  // False when compiling this structure would yield an unsound bound
  // (e.g. the normal engine on non-simple shapes).
  virtual bool Supports(const BoundStructure& structure) const = 0;
  virtual std::unique_ptr<CompiledBound> Compile(
      const BoundStructure& structure,
      const EngineOptions& options = {}) const = 0;
};

// Registry. Engines: "gamma" (Γn), "normal" (Nn, simple shapes only),
// "auto" (normal when sound, else gamma — the advisor's default), and the
// shape-filtered classics "agm" ({1}) and "panda" ({1,∞}). Returns nullptr
// for unknown names.
const BoundEngine* FindBoundEngine(std::string_view name);
std::vector<std::string_view> BoundEngineNames();

}  // namespace lpb

#endif  // LPB_BOUNDS_BOUND_ENGINE_H_
