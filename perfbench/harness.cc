// perfbench harness entry point: argument parsing, the report line, and the
// helpers shared by the workloads (quantiles, RSS, reference bounds, span
// self times). See README.md for the workloads and the metric contract.
#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "bounds/normal_engine.h"
#include "stats/collector.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[idx];
}

double TailQuantileFor(size_t samples) {
  for (double q : {0.999, 0.99, 0.95, 0.90}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double SegmentedQuantile(const std::vector<double>& values, double q,
                         int segments) {
  const size_t per = values.size() / static_cast<size_t>(std::max(1, segments));
  if (segments <= 1 || static_cast<double>(per) * (1.0 - q) < 10.0) {
    return Quantile(values, q);
  }
  std::vector<double> slices;
  for (int s = 0; s < segments; ++s) {
    const auto begin = values.begin() + static_cast<ptrdiff_t>(per * s);
    slices.push_back(Quantile(
        std::vector<double>(begin, begin + static_cast<ptrdiff_t>(per)), q));
  }
  return Median(slices);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::unique_ptr<lpb::JobWorkload> MakeJobWorkload() {
  lpb::JobWorkloadOptions options;
  options.scale = 0.05;
  return std::make_unique<lpb::JobWorkload>(lpb::GenerateJobWorkload(options));
}

lpb::JoinOrderOptions PlanOptions() {
  lpb::JoinOrderOptions options;
  options.left_deep = true;
  options.objective = lpb::CostObjective::kPeakIntermediate;
  return options;
}

std::vector<lpb::Query> PlanningSweep(
    lpb::CardinalityAdvisor& advisor,
    const std::vector<lpb::Query>& templates) {
  lpb::AdvisorCardinalityModel model(advisor);
  std::unordered_set<std::string> seen;
  std::vector<lpb::Query> probed;
  for (const lpb::Query& q : templates) {
    lpb::JoinOrderOptimizer optimizer(q, model, PlanOptions());
    optimizer.Optimize();
    for (const auto& [atoms, entry] : optimizer.memo()) {
      lpb::Query sub = lpb::InducedSubquery(q, atoms);
      if (seen.insert(sub.ToString()).second) probed.push_back(std::move(sub));
    }
  }
  return probed;
}

double ReferenceLog2(const lpb::Query& query, const lpb::Catalog& catalog) {
  // The advisor's own norm list, so both sides bound with the same norms.
  lpb::CollectorOptions options;
  options.norms = lpb::AdvisorOptions{}.norms;
  return lpb::LpNormBound(query.num_vars(),
                          lpb::CollectStatistics(query, catalog, options))
      .log2_bound;
}

bool Matches(double got, double want) {
  if (std::isnan(got) || std::isnan(want)) return false;
  if (std::isinf(got) || std::isinf(want)) return got == want;
  return std::abs(got - want) <= 1e-6 * std::max(1.0, std::abs(want));
}

void AddAdvisorLayers(Report& report, const lpb::AdvisorMetrics& before,
                      const lpb::AdvisorMetrics& after, double ops,
                      size_t cache_bytes) {
  const auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  const auto per_op = [&](uint64_t a, uint64_t b) {
    return ops > 0 ? delta(a, b) / ops : 0.0;
  };
  const double batches = delta(before.batch_calls, after.batch_calls);
  report.Add("estimator.probes_per_batch",
             batches > 0 ? delta(before.batch_probes, after.batch_probes) /
                               batches
                         : 0.0,
             "count");
  const double hits = delta(before.norm_hits, after.norm_hits);
  const double misses = delta(before.norm_misses, after.norm_misses);
  report.Add("estimator.norm_hit_rate",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac");
  report.Add("estimator.norm_misses",
             per_op(before.norm_misses, after.norm_misses), "count");
  report.Add("estimator.norm_shard_locks",
             per_op(before.norm_shard_locks, after.norm_shard_locks), "count");
  report.Add("estimator.compiled_misses",
             delta(before.compiled_misses, after.compiled_misses), "count");
  report.Add("estimator.cache_bytes", static_cast<double>(cache_bytes),
             "bytes");
  const double witness = delta(before.witness_hits, after.witness_hits);
  const double warm = delta(before.warm_resolves, after.warm_resolves);
  const double cold = delta(before.cold_solves, after.cold_solves);
  report.Add("lp.witness_share",
             witness + warm + cold > 0 ? witness / (witness + warm + cold)
                                       : 0.0,
             "frac");
  report.Add("lp.warm_resolves",
             per_op(before.warm_resolves, after.warm_resolves), "count");
  report.Add("lp.cold_solves", per_op(before.cold_solves, after.cold_solves),
             "count");
  report.Add("lp.pivots", per_op(before.lp_pivots, after.lp_pivots), "count");
  report.Add("lp.refactorizations",
             per_op(before.lp_refactorizations, after.lp_refactorizations),
             "count");
}

// --- Span summary ----------------------------------------------------------

namespace {

// Sum of the lengths of `intervals` clipped to [lo, hi], overlaps counted
// once.
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>>& intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

}  // namespace

std::vector<std::pair<std::string, SpanTotals>> SummarizeSpans(
    const std::vector<const SpanLog*>& logs, const std::string& path) {
  // Children grouped by (op, parent name).
  std::map<std::pair<uint64_t, std::string>,
           std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.parent != nullptr) {
        children[{s.op, s.parent}].emplace_back(s.start_ns, s.end_ns);
      }
    }
  }
  std::map<std::string, SpanTotals> totals;
  std::vector<std::string> order;
  FILE* out = path.empty() ? nullptr : std::fopen(path.c_str(), "w");
  if (out != nullptr) std::fprintf(out, "name,parent,op,start_ns,end_ns\n");
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      auto [it, fresh] = totals.try_emplace(s.name);
      if (fresh) order.push_back(s.name);
      SpanTotals& t = it->second;
      const int64_t dur = s.end_ns - s.start_ns;
      int64_t covered = 0;
      auto kids = children.find({s.op, s.name});
      if (kids != children.end()) {
        covered = CoveredNs(kids->second, s.start_ns, s.end_ns);
      }
      ++t.count;
      t.total_ms += static_cast<double>(dur) * 1e-6;
      t.self_ms += static_cast<double>(dur - covered) * 1e-6;
      if (out != nullptr) {
        std::fprintf(out, "%s,%s,%llu,%lld,%lld\n", s.name,
                     s.parent == nullptr ? "" : s.parent,
                     static_cast<unsigned long long>(s.op),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
  }
  if (out != nullptr) std::fclose(out);

  std::vector<std::pair<std::string, SpanTotals>> table;
  std::printf("spans%s%s\n", path.empty() ? "" : " -> ", path.c_str());
  std::printf("  %-26s %10s %12s %12s %12s\n", "span", "count", "total_ms",
              "self_ms", "self_ms/span");
  for (const std::string& name : order) {
    const SpanTotals& t = totals[name];
    std::printf("  %-26s %10llu %12.3f %12.3f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_ms,
                t.self_ms, t.self_ms / static_cast<double>(t.count));
    table.emplace_back(name, t);
  }
  return table;
}

const SpanTotals& Totals(
    const std::vector<std::pair<std::string, SpanTotals>>& table,
    const std::string& name) {
  static const SpanTotals kNone;
  for (const auto& [n, t] : table) {
    if (n == name) return t;
  }
  return kNone;
}

}  // namespace perfbench

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_harness --workload "
               "plan-drift|serve-zipf|serve-distinct --seed N --seconds N "
               "--mode e2e|base|trace [--spans PATH]\n",
               why);
  std::exit(2);
}

perfbench::Args ParseArgs(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (flag == "--mode") {
        if (value == "e2e") {
          args.mode = perfbench::Mode::kEndToEnd;
        } else if (value == "base") {
          args.mode = perfbench::Mode::kBase;
        } else if (value == "trace") {
          args.mode = perfbench::Mode::kTraced;
        } else {
          Usage("unknown --mode");
        }
      } else if (flag == "--spans") {
        args.spans_path = value;
      } else {
        Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (args.seconds < 1 || args.seconds > 600) Usage("--seconds out of range");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = ParseArgs(argc, argv);
  perfbench::Report report;
  int code = 0;
  if (args.workload == "plan-drift") {
    code = perfbench::RunPlanDrift(args, report);
  } else if (args.workload == "serve-zipf" ||
             args.workload == "serve-distinct") {
    code = perfbench::RunServe(args, report);
  } else {
    Usage("unknown --workload");
  }
  if (code != 0) return code;

  std::printf("metrics (%s, seed %llu)\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"mismatched\": "
              "%llu, \"metrics\": {",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.mismatched));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    // A non-finite figure prints as null, which run.py refuses.
    if (std::isfinite(m.value)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.unit.c_str());
    }
  }
  std::printf("}}\n");
  return 0;
}
