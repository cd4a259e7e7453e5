// CardinalityAdvisor: the paper's "future work" packaged as an API —
// a pessimistic cardinality estimation service for query optimizers.
//
// Three caches make the hot path cheap enough for optimizer traffic:
//   * statistics store — ℓp norms per (relation, conditional), computed
//     lazily (O(N log N) per degree sequence, footnote 1) and reused across
//     queries. The store is sharded by relation (estimator/norm_cache.h):
//     concurrent estimator threads looking up different relations take
//     different mutexes, and each shard is an LRU map under a byte budget,
//     so statistics memory stays bounded on wide catalogs (an evicted
//     entry is recomputed on the next lookup — eviction never changes
//     results).
//   * compiled-bound cache — the bound LP compiled once per *structure*
//     (variable count + statistic shapes; the query hypergraph enters the
//     LP only through those shapes) via bounds/bound_engine.h and
//     re-evaluated per statistics. For a repeated query template the
//     estimate is a statistics lookup plus a dual-witness dot product; the
//     Nn engine keeps up to 8 optimal bases per structure
//     (bounds/basis_pool.h), and the LP is re-solved (warm, then cold)
//     only when none of them is optimal for the new values. Footprint: one
//     sweep of the plan-drift benchmark compiles 3,838 structures. On the
//     dense backend each holds about 20 KB for the backend's copy of its
//     LpProblem and about 92 KB for the tableau on average, which shares
//     one exactly sized arena allocation with the row scratch; the basis
//     pool adds about 1 KB. plan-drift peaks at about 485 MB on the dense
//     backend and 452 MB on the revised one (4-core x86 VM, gcc 12); it
//     was 666 and 621 MB while every Build also took a zero-filled 64 KB
//     arena chunk for about 3 KB of row scratch. The Nn presolve
//     (bounds/normal_engine.h) keeps 25–35 columns per structure, not the
//     2^n − 1 step-function columns (2.6 GB on the dense backend when
//     every column was built).
//   * estimate memo — each compiled structure remembers the last 8 value
//     vectors it evaluated with their log2 bounds, most recently used
//     first, compared bitwise. The values are the LP's only per-estimate
//     input (the right-hand side of Eq. (36)), so (structure, values) is
//     its entire input and the optimum is a pure function of the key: an
//     entry can never be stale, and neither Invalidate nor any generation
//     tracking touches the memo — a relation whose data changed simply
//     produces new values, which miss. Without it, the one cached basis
//     per structure bounces between the subqueries that share it and
//     every exact repeat pays a basis-pool check or a warm re-solve; on the
//     plan-drift benchmark (perfbench/) 70% of optimizer probes repeat an
//     exact input. There 8 slots kept 94% of the hits an unbounded memo
//     got (81.5k vs 86.5k over one 396-plan run, at the same plans/s on a
//     4-core x86 VM), for about 9 MB. EstimateLog2 and the multi-query
//     EstimateLog2Batch read and fill it; Explain skips it (it needs
//     weights and h*, which the memo does not keep), and so does the
//     what-if overload (its values are made up by the caller and would
//     only push out real ones). A result that fell back to the product
//     bound (BoundResult::fallback) is never remembered.
//
// Batch evaluation: an optimizer probing a join-order search space asks
// for thousands of what-if estimates against the same compiled structure.
// EstimateLog2Batch amortizes the per-call machinery — statistics
// assembly, structure lookup, and the per-bound mutex are paid once per
// batch, and the value vectors flow through the compiled bound's batch
// path (bounds/bound_engine.h): the Nn engine's basis pool, where a repeat
// of the front basis's last values costs one compare, or the Γn engine's
// multi-RHS resolve (one cached LU factorization, shared dual witness).
//
// Malformed queries are refused, never undefined behaviour: a query over
// more than kMaxVars variables, or one with an atom whose relation the
// catalog lacks or whose arity exceeds the relation's, gets quiet NaN from
// every estimation entry point (Explain: bound.log2_bound) and counts in
// AdvisorMetrics::refused. The width check is one comparison per query;
// the catalog check runs only where a statistics-store miss reads the
// relation, so the hit path never pays for it.
//
// Thread safety: all estimation entry points may be called concurrently.
// The compiled cache is a hash map behind a shared_mutex: a lookup holds
// the shared lock for the find only, and compilation runs outside any
// lock, so readers wait at most for one O(1) insert. Publishing a newly
// compiled structure inserts its entry under the exclusive lock; if two
// threads compiled the same structure, the first insert wins and the
// other's copy is dropped. Entries are never erased and are held by
// unique_ptr, so a reference obtained under the lock stays valid. Each
// compiled bound carries its own mutex because Evaluate mutates the
// cached basis (a batch holds it for the whole block); the estimate memo
// lives under that same mutex. Invalidate may run concurrently with
// estimates.
#ifndef LPB_ESTIMATOR_ADVISOR_H_
#define LPB_ESTIMATOR_ADVISOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bounds/bound_engine.h"
#include "bounds/engine.h"
#include "estimator/norm_cache.h"
#include "query/query.h"
#include "relation/catalog.h"
#include "relation/degree_sequence.h"
#include "stats/statistic.h"

namespace lpb {

struct AdvisorOptions {
  // Norms maintained for every per-column degree sequence.
  std::vector<double> norms = {1.0, 2.0, 3.0, 4.0, kInfNorm};
  // Engine options for the occasional non-simple statistics set.
  EngineOptions engine;
  // Bound engine used for compiled bounds (see FindBoundEngine); "auto"
  // picks the normal engine when sound, the Γn engine otherwise.
  std::string bound_engine = "auto";
  // Sharding and eviction of the statistics store (see norm_cache.h):
  // relations hash onto `shards` LRU maps, each holding an even share of
  // `byte_budget` (0 = unbounded).
  NormCacheOptions norm_cache;
};

// Cumulative counters. Every estimate of a non-empty query falls into
// exactly one of memo/witness/warm/cold: a memo hit is answered from the
// estimate memo without touching the LP, the other three name how the LP
// was evaluated. Scalar estimates also split into exactly one of
// compiled hit/miss; a *batch* performs one compiled-cache lookup per
// structure group, so under batching `estimates` can exceed
// `compiled_hits + compiled_misses`.
struct AdvisorMetrics {
  uint64_t estimates = 0;        // bound evaluations served
  uint64_t batch_calls = 0;      // EstimateLog2Batch invocations (both forms)
  uint64_t batch_probes = 0;     // probes requested across those batches
  uint64_t compiled_hits = 0;    // structure found in the compiled cache
  uint64_t compiled_misses = 0;  // structure compiled on this call
  uint64_t memo_hits = 0;        // answered from the estimate memo
  uint64_t witness_hits = 0;     // cached dual witness reused (dot product)
  // Witness hits served by a pooled optimal basis of the Nn engine
  // (bounds/basis_pool.h) — a subset of witness_hits.
  uint64_t pool_hits = 0;
  uint64_t warm_resolves = 0;    // dual-simplex pivots from the cached basis
  uint64_t cold_solves = 0;      // full LP solve
  // LP failures answered with the product bound (BoundResult::fallback);
  // each is also counted in the path its failed evaluation took.
  uint64_t lp_fallbacks = 0;
  // Malformed queries answered NaN (see the header comment); not counted
  // in `estimates`.
  uint64_t refused = 0;
  uint64_t norm_evictions = 0;   // statistics-store LRU evictions
  // Statistics-store traffic (estimator/norm_cache.h): lookup hits and
  // misses (a miss is an O(N log N) degree-sequence recompute) and
  // data-path shard-mutex acquisitions. Batched assembly keeps the last
  // near "distinct shards touched per batch" instead of "statistics per
  // batch"; the bench JSON surfaces all three so cache efficacy is gated,
  // not guessed.
  uint64_t norm_hits = 0;
  uint64_t norm_misses = 0;
  uint64_t norm_shard_locks = 0;
  // LP solver work behind the estimates, summed from BoundResult::lp_stats
  // (lp/simplex.h): simplex pivots across all phases, basis
  // refactorizations, Forrest–Tomlin updates taken, and Devex reference
  // resets. bench_throughput surfaces these so the CI perf gate can assert
  // on iteration counts, not just wall-clock.
  uint64_t lp_pivots = 0;
  uint64_t lp_refactorizations = 0;
  uint64_t lp_ft_updates = 0;
  uint64_t lp_devex_resets = 0;
  // Cut-growth accounting for the Γn cutting-plane engine: rounds whose new
  // cut rows were appended onto the live basis (vs rebuilt cold), the dual
  // pivots spent repairing those appended rows, total rows appended, and
  // appends whose LU fill tripped an immediate refactorization.
  uint64_t lp_warm_cut_rounds = 0;
  uint64_t lp_dual_repair_pivots = 0;
  uint64_t lp_row_appends = 0;
  uint64_t lp_append_refactorizations = 0;
};

class CardinalityAdvisor {
 public:
  // The advisor keeps a reference to the catalog; it must outlive the
  // advisor. Statistics and compiled bounds are built lazily and cached.
  CardinalityAdvisor(const Catalog& catalog, AdvisorOptions options = {});

  // log2 upper bound on |Q(D)|; +infinity if the statistics cannot bound
  // the query (should not happen for full CQs with maintained norms); NaN
  // if the query is refused.
  double EstimateLog2(const Query& query);

  // Upper bound in linear space (2^EstimateLog2, saturating).
  double Estimate(const Query& query);

  // Batched what-if probing: bounds `query` under each hypothetical
  // statistics-value vector in `log_b_batch` (rows aligned with
  // Explain(query).stats — the advisor's own statistics assembly order;
  // a vector of any other size cannot be priced and yields +infinity).
  // Statistics assembly, the structure lookup, and the per-bound lock are
  // paid once; the values flow through the compiled bound's batch path
  // (bounds/bound_engine.h). Results are identical to overwriting the
  // stats' log_b and estimating one vector at a time. Bypasses the
  // estimate memo.
  std::vector<double> EstimateLog2Batch(
      const Query& query, std::span<const std::vector<double>> log_b_batch);

  // Batched estimation over many queries (e.g. every candidate join
  // prefix of one search step). Queries sharing a statistics structure —
  // the norm in template workloads — are grouped and evaluated under one
  // compiled-bound lock via the batch path; inputs the estimate memo holds
  // (or that repeat within the group) skip the LP. Returns log2 bounds
  // aligned with `queries`, equal to EstimateLog2 called on each query in
  // order — bitwise wherever CompiledBound::EvaluateBatch matches its
  // scalar sequence bitwise and no LP fails.
  std::vector<double> EstimateLog2Batch(const std::vector<Query>& queries);
  // Linear-space variant of the above (2^log2 per entry, saturating).
  std::vector<double> EstimateBatch(const std::vector<Query>& queries);

  // Batched front half of the estimate path: the statistics of many
  // queries assembled through ONE norm-store GetBatch over the distinct
  // (relation, U, V) degree-sequence keys of the whole batch (plus one
  // PutBatch for whatever had to be computed). Each statistic is an ℓp
  // norm of one atom's degree sequence, and an atom's keys depend only on
  // its relation and the rank pattern of its variables, so the keys are
  // enumerated once per distinct such atom signature in the batch; every
  // further atom costs one hash lookup, and its σ's are bit operations on
  // its variable set. Keys repeated across the batch's queries are
  // resolved once, and each touched cache shard's mutex is visited once
  // per batch instead of once per statistic. The scalar entry points
  // assemble through this same call over one query, so Explain(q).stats
  // is bitwise this function's answer for q. A 0-atom query yields an
  // empty vector, and so does a refused one; `refused`, when given,
  // receives per query whether it was refused.
  std::vector<std::vector<ConcreteStatistic>> AssembleStatisticsBatch(
      std::span<const Query> queries, std::vector<bool>* refused = nullptr);

  // Full result (certificate weights, optimal polymatroid) plus the
  // statistics it was computed from and a metrics snapshot taken after the
  // call — bound.eval_path says whether this particular estimate reused
  // the cached witness, warm-resolved, or solved cold (Explain always
  // evaluates: it bypasses the estimate memo), bound.fallback whether the
  // LP failed and the product bound answered, and lp_backend
  // names the LP solver backend ("dense" or "revised", lp/tableau.h;
  // selected via AdvisorOptions::engine.simplex.backend or
  // LPB_LP_BACKEND) that served it. A refused query gets a NaN
  // bound.log2_bound, no statistics and an empty lp_backend.
  struct Explanation {
    BoundResult bound;
    std::vector<ConcreteStatistic> stats;
    AdvisorMetrics metrics;
    std::string lp_backend;
  };
  Explanation Explain(const Query& query);

  // Number of distinct cached degree sequences (statistics maintenance
  // footprint) and their charged bytes.
  size_t CacheSize() const;
  size_t CacheBytes() const;
  // Number of distinct compiled bound structures.
  size_t CompiledCacheSize() const;
  // Number of estimates held by the estimate memos, over all structures.
  size_t MemoSize() const;

  // Snapshot of the cumulative evaluation counters.
  AdvisorMetrics metrics() const;

  // Drops cached statistics for one relation (call after updates). Only
  // that relation's shard is touched. Compiled bounds survive: they depend
  // only on structure, never on statistic values, so the next estimate
  // re-reads fresh norms and re-prices the cached basis against them. The
  // estimate memos survive too: fresh norms are a new key.
  void Invalidate(const std::string& relation);

 private:
  // The estimate memo of one compiled structure (see the header comment):
  // the last kCapacity value vectors evaluated, most recently used first.
  class EstimateMemo {
   public:
    static constexpr size_t kCapacity = 8;
    static constexpr size_t kSettled = SIZE_MAX;
    struct Slot {
      std::vector<double> values;
      double log2_bound = 0.0;
      // While a batch replays the memo: the index of the batch's miss
      // whose evaluation will supply log2_bound; kSettled otherwise.
      size_t pending = kSettled;
    };
    // The slot holding exactly `values` (bitwise), moved to the front;
    // nullptr when there is none.
    const Slot* Find(const std::vector<double>& values);
    // Enters `values` at the front, dropping the least recently used slot
    // when full.
    Slot& Insert(std::vector<double> values);
    // Fills every pending slot from `results` (indexed by miss); a slot
    // whose result fell back is dropped instead.
    void Settle(const std::vector<BoundResult>& results);
    size_t size() const { return slots_.size(); }

   private:
    std::vector<Slot> slots_;
  };

  // A compiled bound plus the mutex serializing Evaluate/EvaluateBatch on
  // it (both mutate the cached basis and, for Γn, the cut set) and guarding
  // its estimate memo. A batch holds the mutex for its whole block — the
  // locking contract callers rely on is per-*evaluation-sequence*, not
  // per-call.
  struct CompiledEntry {
    std::mutex mu;
    std::unique_ptr<CompiledBound> bound;
    EstimateMemo memo;
  };

  // The statistics-store miss: the key's norms computed from the catalog,
  // or nullopt when the key names a relation or column it lacks.
  std::optional<std::vector<double>> ComputeNorms(
      const ShardedNormCache::Key& key) const;

  // AssembleStatisticsBatch over one query; nullopt when it is refused.
  std::optional<std::vector<ConcreteStatistic>> AssembleStatistics(
      const Query& query);

  // Counts one refused query; returns the refusal answer, quiet NaN.
  double Refuse();

  // Finds or compiles the bound entry for the structure of `stats` over n
  // variables (whose canonical key is `key`), bumping the compiled
  // hit/miss counters once. The hit path holds the map's shared lock for
  // one hash lookup; only a miss builds the structure.
  CompiledEntry& LookupOrCompile(int n,
                                 const std::vector<ConcreteStatistic>& stats,
                                 const std::string& key);

  // Counts one estimate the compiled bound evaluated: its path, whether it
  // fell back, and the LP solver work behind it.
  void RecordEval(const BoundResult& result);

  const Catalog& catalog_;
  AdvisorOptions options_;

  ShardedNormCache norms_;

  // Compiled bounds by structure key; see the thread-safety note above.
  mutable std::shared_mutex compiled_mu_;
  std::unordered_map<std::string, std::unique_ptr<CompiledEntry>> compiled_;

  std::atomic<uint64_t> estimates_{0};
  std::atomic<uint64_t> batch_calls_{0};
  std::atomic<uint64_t> batch_probes_{0};
  std::atomic<uint64_t> compiled_hits_{0};
  std::atomic<uint64_t> compiled_misses_{0};
  std::atomic<uint64_t> memo_hits_{0};
  std::atomic<uint64_t> witness_hits_{0};
  std::atomic<uint64_t> pool_hits_{0};
  std::atomic<uint64_t> warm_resolves_{0};
  std::atomic<uint64_t> cold_solves_{0};
  std::atomic<uint64_t> lp_fallbacks_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> lp_pivots_{0};
  std::atomic<uint64_t> lp_refactorizations_{0};
  std::atomic<uint64_t> lp_ft_updates_{0};
  std::atomic<uint64_t> lp_devex_resets_{0};
  std::atomic<uint64_t> lp_warm_cut_rounds_{0};
  std::atomic<uint64_t> lp_dual_repair_pivots_{0};
  std::atomic<uint64_t> lp_row_appends_{0};
  std::atomic<uint64_t> lp_append_refactorizations_{0};
};

}  // namespace lpb

#endif  // LPB_ESTIMATOR_ADVISOR_H_
