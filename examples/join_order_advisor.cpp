// Domain example: join ordering driven by pessimistic bounds.
//
// For a JOB-style star query, runs the src/optimizer/ JoinOrderOptimizer
// (DPsize over connected subgraphs, one batched advisor call per DP
// level) twice — once with the ℓp-norm bound model and once with the
// traditional uniformity/independence model — plus the greedy baseline,
// executes all three plans through the hash-join evaluator, and reports
// the actual peak intermediate sizes. This is the paper's motivating
// application (Sec 1): optimizers pick plans by intermediate-size
// estimates, and underestimates cause bad plans.
//
// Every probe goes through one shared CardinalityAdvisor, which is
// exactly the workload the compile-once/evaluate-many pipeline targets:
// each DP level prices *all* its candidate subplans in ONE
// EstimateLog2Batch call, so candidates sharing a statistics structure
// are re-priced as one block under one lock. A final what-if sweep
// batches hypothetical statistics deltas against the query's compiled
// bound, the optimizer-integration pattern the batch API exists for. The
// advisor's counters at the end make the reuse visible.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "datagen/job_gen.h"
#include "estimator/advisor.h"
#include "estimator/traditional.h"
#include "exec/hash_join.h"
#include "optimizer/join_order.h"

using namespace lpb;

namespace {

uint64_t PeakIntermediate(const HashJoinStats& s) {
  uint64_t m = 0;
  for (uint64_t v : s.intermediate_sizes) m = std::max(m, v);
  return m;
}

void PrintOrder(const char* label, const Query& q,
                const std::vector<int>& order) {
  std::printf("%s", label);
  for (int a : order) std::printf("%s ", q.atom(a).relation.c_str());
  std::printf("\n");
}

}  // namespace

int main() {
  JobWorkloadOptions jopt;
  jopt.scale = 0.15;
  JobWorkload wl = GenerateJobWorkload(jopt);
  CardinalityAdvisor advisor(wl.catalog);
  const Query& q = wl.queries[8];  // q9: cast_info ⋈ movie_companies ⋈ ...
  std::printf("query %s: %s\n\n", q.name().c_str(), q.ToString().c_str());

  // Left-deep bottleneck DP: minimize the peak materialized intermediate,
  // the metric the executed HashJoinStats::intermediate_sizes measures.
  JoinOrderOptions opt;
  opt.left_deep = true;
  opt.objective = CostObjective::kPeakIntermediate;

  AdvisorCardinalityModel bound_model(advisor);
  JoinOrderOptimizer bound_dp(q, bound_model, opt);
  const JoinPlan& bound_plan = bound_dp.Optimize();

  TraditionalCardinalityModel trad_model(wl.catalog);
  JoinOrderOptimizer trad_dp(q, trad_model, opt);
  const JoinPlan& trad_plan = trad_dp.Optimize();

  // The greedy baseline rides the same module (and inherits its
  // cheapest-disconnected-extension fix).
  const std::vector<int> greedy_order = GreedyJoinOrder(q, bound_model);

  PrintOrder("bound-driven DP order:  ", q, bound_plan.AtomOrder());
  PrintOrder("traditional DP order:   ", q, trad_plan.AtomOrder());
  PrintOrder("greedy bound order:     ", q, greedy_order);
  std::printf("bound-driven plan: %s\n", bound_plan.ToString(q).c_str());
  std::printf(
      "DP: %d levels, %llu probes in %llu batches, %llu memo entries\n\n",
      bound_dp.stats().dp_levels,
      static_cast<unsigned long long>(bound_dp.stats().probes),
      static_cast<unsigned long long>(bound_dp.stats().batch_calls),
      static_cast<unsigned long long>(bound_dp.stats().memo_entries));

  // Execute all the plans and score what actually materialized.
  HashJoinStats bound_run = CountByHashJoin(q, wl.catalog,
                                            bound_plan.AtomOrder());
  HashJoinStats trad_run = CountByHashJoin(q, wl.catalog,
                                           trad_plan.AtomOrder());
  HashJoinStats greedy_run = CountByHashJoin(q, wl.catalog, greedy_order);
  HashJoinStats naive_run = CountByHashJoin(q, wl.catalog);
  if (!bound_run.ok || !trad_run.ok || !greedy_run.ok || !naive_run.ok) {
    std::printf("plan execution failed: %s\n",
                (!bound_run.ok   ? bound_run.error
                 : !trad_run.ok  ? trad_run.error
                 : !greedy_run.ok ? greedy_run.error
                                  : naive_run.error)
                    .c_str());
    return 1;
  }
  const bool agree = bound_run.output_count == trad_run.output_count &&
                     bound_run.output_count == greedy_run.output_count &&
                     bound_run.output_count == naive_run.output_count;
  std::printf("output size: %llu (all plans agree: %s)\n",
              static_cast<unsigned long long>(bound_run.output_count),
              agree ? "yes" : "NO");
  std::printf("peak intermediate, bound-driven DP plan:  %llu\n",
              static_cast<unsigned long long>(PeakIntermediate(bound_run)));
  std::printf("peak intermediate, traditional DP plan:   %llu\n",
              static_cast<unsigned long long>(PeakIntermediate(trad_run)));
  std::printf("peak intermediate, greedy bound plan:     %llu\n",
              static_cast<unsigned long long>(PeakIntermediate(greedy_run)));
  std::printf("peak intermediate, textual-order plan:    %llu\n",
              static_cast<unsigned long long>(PeakIntermediate(naive_run)));
  std::printf("traditional estimate of the output: %.0f (truth %llu)\n",
              TraditionalEstimate(q, wl.catalog),
              static_cast<unsigned long long>(bound_run.output_count));

  // Batched what-if probing: how sensitive is the plan's output bound to
  // each statistic? Scale every statistic down by 2x / 4x in turn (as if
  // a predicate filtered that relation) and bound all scenarios in ONE
  // advisor call — the per-structure batch path re-prices the whole block
  // through the compiled bound's cached factorization.
  {
    const auto explanation = advisor.Explain(q);
    const std::vector<double> base = ValuesOf(explanation.stats);
    std::vector<std::vector<double>> scenarios;
    std::vector<size_t> scenario_stat;
    scenarios.push_back(base);
    scenario_stat.push_back(0);
    for (size_t j = 0; j < base.size(); ++j) {
      if (base[j] < 2.0) continue;  // nothing left to filter away
      for (double delta : {-1.0, -2.0}) {  // log2 deltas: 2x and 4x smaller
        std::vector<double> values = base;
        values[j] += delta;
        scenarios.push_back(std::move(values));
        scenario_stat.push_back(j);
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<double> what_if = advisor.EstimateLog2Batch(q, scenarios);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf(
        "\nwhat-if sweep: %zu scenarios in %.2f ms (%.0f probes/s); base "
        "bound 2^%.1f",
        what_if.size(), secs * 1e3,
        static_cast<double>(what_if.size()) / secs, what_if[0]);
    if (what_if.size() > 1) {
      size_t most_sensitive = 1;
      for (size_t k = 2; k < what_if.size(); ++k) {
        if (what_if[k] < what_if[most_sensitive]) most_sensitive = k;
      }
      const size_t stat_idx = scenario_stat[most_sensitive];
      std::printf(", best 2^%.1f by shrinking stat #%zu (%s)",
                  what_if[most_sensitive], stat_idx,
                  explanation.stats[stat_idx].label.c_str());
    }
    std::printf("\n");
  }

  // One Explain for the backend name, *before* the metrics snapshot so the
  // counters printed below include it.
  const std::string lp_backend = advisor.Explain(q).lp_backend;
  const AdvisorMetrics m = advisor.metrics();
  std::printf(
      "\nadvisor: %llu estimates in %llu batches over %zu compiled "
      "structures (hits %llu / misses %llu); eval paths: memo=%llu "
      "witness=%llu warm=%llu cold=%llu; lp backend: %s\n",
      static_cast<unsigned long long>(m.estimates),
      static_cast<unsigned long long>(m.batch_calls),
      advisor.CompiledCacheSize(),
      static_cast<unsigned long long>(m.compiled_hits),
      static_cast<unsigned long long>(m.compiled_misses),
      static_cast<unsigned long long>(m.memo_hits),
      static_cast<unsigned long long>(m.witness_hits),
      static_cast<unsigned long long>(m.warm_resolves),
      static_cast<unsigned long long>(m.cold_solves), lp_backend.c_str());
  return 0;
}
