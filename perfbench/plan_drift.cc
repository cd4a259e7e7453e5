// plan-drift: a closed loop with one client that re-plans the 33 JOB
// templates while the data drifts underneath.
//
// Before each sweep over the templates the same thread appends 2% new rows
// to the next of the nine fact tables (round-robin) and invalidates that
// table's statistics. Every new row copies each column from an
// independently drawn existing row, so foreign keys stay valid while the
// degree sequences move. Mutation happens only between plans because the
// advisor reads relations without locks. The writes stop an exact-input
// memo from turning every sweep into hits; the warm LP re-solves and the
// optimizer's enumeration do most of the work.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>

#include "harness.h"
#include "lp/kernels.h"
#include "util/random.h"

namespace perfbench {
namespace {

constexpr double kWriteShare = 0.02;
// --seconds maps to a fixed sweep count: one 33-plan sweep per two
// seconds, the planning rate of the default build on a 4-core x86 box.
constexpr int kSecondsPerSweep = 2;

const char* const kFactTables[] = {
    "cast_info",      "movie_companies", "movie_keyword",
    "movie_info",     "movie_info_idx",  "movie_link",
    "aka_title",      "complete_cast",   "person_info"};
constexpr int kNumFactTables = 9;

struct Setup {
  std::unique_ptr<lpb::JobWorkload> workload;
  std::unique_ptr<lpb::CardinalityAdvisor> advisor;
  double seconds = 0.0;
};

// Catalog generation, advisor construction, and one planning sweep, which
// compiles every bound structure the run will touch (the writes change
// statistic values, never structures).
Setup BuildSetup() {
  const int64_t start = NowNs();
  Setup setup;
  setup.workload = MakeJobWorkload();
  setup.advisor =
      std::make_unique<lpb::CardinalityAdvisor>(setup.workload->catalog);
  PlanningSweep(*setup.advisor, setup.workload->queries);
  setup.seconds = SecondsSince(start);
  return setup;
}

// Forwards to the advisor model, recording one span per DP-level batch.
class TracedModel : public lpb::CardinalityModel {
 public:
  TracedModel(lpb::CardinalityAdvisor& advisor, SpanLog& log)
      : inner_(advisor), log_(log) {}
  void set_op(uint64_t op) { op_ = op; }
  std::vector<double> EstimateLog2Batch(
      const std::vector<lpb::Query>& probes) override {
    const int64_t start = NowNs();
    std::vector<double> out = inner_.EstimateLog2Batch(probes);
    log_.Record("estimator.estimate_batch", "optimizer.optimize", op_, start,
                NowNs());
    return out;
  }

 private:
  lpb::AdvisorCardinalityModel inner_;
  SpanLog& log_;
  uint64_t op_ = 0;
};

// Appends kWriteShare new rows to `table`; returns how many.
size_t AppendRows(lpb::Relation& table, lpb::Rng& rng) {
  const size_t rows = table.NumRows();
  const size_t add =
      static_cast<size_t>(std::ceil(kWriteShare * static_cast<double>(rows)));
  std::vector<lpb::Value> row(static_cast<size_t>(table.arity()));
  for (size_t r = 0; r < add; ++r) {
    for (int c = 0; c < table.arity(); ++c) {
      row[static_cast<size_t>(c)] = table.At(rng.Uniform(rows), c);
    }
    table.AddRow(row);
  }
  return add;
}

}  // namespace

int RunPlanDrift(const Args& args, Report& report) {
  const bool e2e = args.mode == Mode::kEndToEnd;
  std::vector<double> setup_seconds;
  Setup setup = RepeatSetup(e2e, BuildSetup, setup_seconds);
  lpb::Catalog& catalog = setup.workload->catalog;
  lpb::CardinalityAdvisor& advisor = *setup.advisor;
  const std::vector<lpb::Query>& templates = setup.workload->queries;

  SpanLog log(args.mode == Mode::kTraced);
  lpb::AdvisorCardinalityModel plain_model(advisor);
  TracedModel traced_model(advisor, log);
  lpb::CardinalityModel& model =
      log.enabled() ? static_cast<lpb::CardinalityModel&>(traced_model)
                    : plain_model;

  const int sweeps = std::max(1, args.seconds / kSecondsPerSweep);
  lpb::Rng rng(args.seed);
  std::map<std::string, uint64_t> write_epoch;
  std::unordered_set<std::string> seen_inputs;
  uint64_t probes_seen = 0, probes_repeated = 0;
  uint64_t probes = 0, model_calls = 0, rows_appended = 0;
  std::vector<double> plan_ms;
  std::vector<std::vector<double>> template_ms(templates.size());
  std::vector<double> sweep_rates;  // plans per second of each sweep
  const lpb::AdvisorMetrics before = advisor.metrics();
  const lpb::LpKernelCounters kernels_before = lpb::g_lp_kernel_counters;

  for (int sweep = 0; sweep < sweeps; ++sweep) {
    const char* table = kFactTables[sweep % kNumFactTables];
    const int64_t write_start = NowNs();
    rows_appended += AppendRows(*catalog.GetMutable(table), rng);
    advisor.Invalidate(table);
    const int64_t write_end = NowNs();
    // Writes take op ids of their own, past every plan id.
    log.Record("relation.write", nullptr, 1'000'000 + sweep, write_start,
               write_end);
    ++write_epoch[table];

    // Reference answers for this data version, outside every timed span.
    std::vector<double> expected;
    for (const lpb::Query& q : templates) {
      expected.push_back(ReferenceLog2(q, catalog));
    }

    double sweep_ms = 0.0;
    for (size_t t = 0; t < templates.size(); ++t) {
      const uint64_t op = static_cast<uint64_t>(sweep) * templates.size() + t;
      traced_model.set_op(op);
      const int64_t plan_start = NowNs();
      lpb::JoinOrderOptimizer optimizer(templates[t], model, PlanOptions());
      const int64_t optimize_start = NowNs();
      const lpb::JoinPlan& plan = optimizer.Optimize();
      const int64_t plan_end = NowNs();
      log.Record("optimizer.optimize", "plan", op, optimize_start, plan_end);
      log.Record("plan", nullptr, op, plan_start, plan_end);
      plan_ms.push_back(static_cast<double>(plan_end - plan_start) * 1e-6);
      sweep_ms += plan_ms.back();
      template_ms[t].push_back(plan_ms.back());

      ++report.attempted;
      if (!Matches(plan.log2_rows(), expected[t])) {
        ++report.failed;
        ++report.mismatched;
        std::printf("MISMATCH plan %llu (%s): %.12g vs reference %.12g\n",
                    static_cast<unsigned long long>(op),
                    templates[t].name().c_str(), plan.log2_rows(),
                    expected[t]);
      }
      probes += optimizer.stats().probes;
      model_calls += optimizer.stats().batch_calls;
      // Every probe is one memo entry; its exact input is the probe text
      // plus the write epochs of the relations it reads.
      for (const auto& [atoms, entry] : optimizer.memo()) {
        const lpb::Query sub = lpb::InducedSubquery(templates[t], atoms);
        std::string key = sub.ToString();
        std::set<std::string> relations;
        for (const lpb::Atom& atom : sub.atoms()) relations.insert(atom.relation);
        for (const std::string& r : relations) {
          key += '|' + std::to_string(write_epoch[r]);
        }
        ++probes_seen;
        if (!seen_inputs.insert(key).second) ++probes_repeated;
      }
    }
    sweep_rates.push_back(static_cast<double>(templates.size()) /
                          (sweep_ms * 1e-3));
  }

  const lpb::AdvisorMetrics after = advisor.metrics();
  const lpb::LpKernelCounters kernels_after = lpb::g_lp_kernel_counters;
  const double plans = static_cast<double>(plan_ms.size());
  double planning_ms = 0.0;
  for (double ms : plan_ms) planning_ms += ms;
  const double tail_q = TailQuantileFor(plan_ms.size());

  std::printf("plan-drift: %d sweeps, %zu plans, %llu rows appended, "
              "%llu/%llu plans matched the reference\n",
              sweeps, plan_ms.size(),
              static_cast<unsigned long long>(rows_appended),
              static_cast<unsigned long long>(report.attempted -
                                              report.failed),
              static_cast<unsigned long long>(report.attempted));

  if (e2e) {
    // The gated p50 is the median template's median plan time. The p50
    // of all plans falls where the slowest sweeps of the 16th-fastest
    // template meet the fastest sweeps of the 17th, ~8 and ~13 ms apart,
    // so it jumped by 15% between seeds on a steady host.
    std::vector<double> template_p50;
    for (const std::vector<double>& ms : template_ms) {
      template_p50.push_back(Median(ms));
    }
    const double p50 = Median(template_p50);
    const double tail = Quantile(plan_ms, tail_q);
    // A sweep's rate is one figure per data version; the median over the
    // sweeps is not moved by a host stall during one of its long plans.
    const double rate = Median(sweep_rates);
    std::printf("  set-up        %zu runs, median %.3f s\n"
                "  plans_per_s   %.3f 1/s (median over sweeps; all plans "
                "%.3f)\n  plan_ms_p50   %.3f ms (median template; all "
                "plans %.3f, n=%zu)\n"
                "  plan_ms_p%g   %.3f ms (n=%zu, %zu beyond)\n"
                "  failed_frac   %.6f\n",
                setup_seconds.size(), Median(setup_seconds), rate,
                plans / (planning_ms * 1e-3), p50, Quantile(plan_ms, 0.5),
                plan_ms.size(), tail_q * 100, tail, plan_ms.size(),
                static_cast<size_t>(plans * (1 - tail_q)),
                static_cast<double>(report.failed) / plans);
    report.Add("setup_s", Median(setup_seconds), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("latency_ms_p50", p50, "ms");
    report.Add("latency_ms_tail", tail, "ms");
    report.Add("throughput_per_s", rate, "1/s");
    return 0;
  }

  report.Add("trace.compare_ms", planning_ms, "ms");
  if (!log.enabled()) return 0;

  const auto spans = SummarizeSpans({&log}, args.spans_path);
  const double optimize_ms = Totals(spans, "optimizer.optimize").total_ms;
  const double batch_ms = Totals(spans, "estimator.estimate_batch").total_ms;
  report.Add("optimizer.optimize_ms", optimize_ms / plans, "ms");
  report.Add("optimizer.self_ms",
             Totals(spans, "optimizer.optimize").self_ms / plans, "ms");
  report.Add("optimizer.probes", static_cast<double>(probes) / plans, "count");
  report.Add("optimizer.model_calls", static_cast<double>(model_calls) / plans,
             "count");
  report.Add("estimator.batch_ms", batch_ms / plans, "ms");
  report.Add("estimator.exact_repeat_share",
             static_cast<double>(probes_repeated) /
                 static_cast<double>(probes_seen),
             "frac");
  AddAdvisorLayers(report, before, after, plans, advisor.CacheBytes());
  for (int k = 0; k < lpb::kNumLpKernels; ++k) {
    report.Add(std::string("lp.kernel.") +
                   lpb::LpKernelName(static_cast<lpb::LpKernelId>(k)) +
                   ".calls",
               static_cast<double>(kernels_after.calls[k] -
                                   kernels_before.calls[k]) /
                   plans,
               "count");
  }
  const SpanTotals& writes = Totals(spans, "relation.write");
  report.Add("relation.write_ms",
             writes.total_ms / static_cast<double>(writes.count), "ms");
  report.Add("relation.rows_appended",
             static_cast<double>(rows_appended) / sweeps, "count");
  std::printf("  per plan: optimize %.3f ms = self %.3f ms + estimator "
              "batches %.3f ms\n",
              optimize_ms / plans,
              Totals(spans, "optimizer.optimize").self_ms / plans,
              batch_ms / plans);
  return 0;
}

}  // namespace perfbench
