// Shared pieces of the perfbench harness: run arguments, the metric
// report, latency summaries, and the in-memory span recorder.
//
// The harness drives the library only through its public headers
// (optimizer/, estimator/, serve/, relation/); every span is taken here,
// around those calls, never inside src/.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datagen/job_gen.h"
#include "estimator/advisor.h"
#include "optimizer/join_order.h"
#include "query/query.h"
#include "relation/catalog.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// How a process is run. kEndToEnd is the untraced run that yields the
// end-to-end metrics; kBase and kTraced are the untraced/traced pair the
// per-layer numbers and the tracing overhead come from.
enum class Mode { kEndToEnd, kBase, kTraced };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  Mode mode = Mode::kEndToEnd;
  std::string spans_path;  // kTraced: where the span log is written
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one process reports. The last stdout line is the JSON object
// {"correct", "attempted", "failed", "metrics"}; everything before it is
// for people.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // mismatched + NaN + rejected + unanswered
  uint64_t mismatched = 0;  // answers that disagree with the reference
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// The q-quantile (0..1) of `values` by nearest rank; 0 when empty.
double Quantile(std::vector<double> values, double q);

// The highest of p99.9 / p99 / p95 / p90 / p50 with at least ten samples
// beyond it, as a fraction (0.95 for p95).
double TailQuantileFor(size_t samples);

double Median(std::vector<double> values);

// The median, over `segments` consecutive equal slices of `values` (in
// arrival order), of each slice's q-quantile. A burst of host contention
// confined to one slice moves it little. Falls back to the plain quantile
// when a slice would leave fewer than ten samples beyond q.
double SegmentedQuantile(const std::vector<double>& values, double q,
                         int segments);

// Runs `build` several times and returns the last set-up, appending each
// one's duration (its `seconds` member) to `seconds`: at least twice, and
// again until half a second of set-up has run, at most nine times. Each
// discarded set-up is destroyed before the next starts, so peak RSS counts
// one. With `repeat` false it builds once.
template <typename Build>
auto RepeatSetup(bool repeat, Build build, std::vector<double>& seconds) {
  double total = 0.0;
  for (;;) {
    auto setup = build();
    seconds.push_back(setup.seconds);
    total += setup.seconds;
    const size_t n = seconds.size();
    if (!repeat || (n >= 2 && (total >= 0.5 || n >= 9))) return setup;
  }
}

double PeakRssMb();

// --- Tracing --------------------------------------------------------------

// One span. Spans of one plan or request share `op`; a span's parent is
// the span named `parent` with the same op (nullptr for a root).
struct Span {
  const char* name;
  const char* parent;
  uint64_t op;
  int64_t start_ns;
  int64_t end_ns;
};

// Spans of one thread, kept in memory until the process ends. A workload
// owns one log per recording thread, so recording takes no lock.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void Record(const char* name, const char* parent, uint64_t op,
              int64_t start_ns, int64_t end_ns) {
    if (enabled_) spans_.push_back({name, parent, op, start_ns, end_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Per span name: how many spans, their summed duration and their summed
// self time (duration minus the part covered by child spans).
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

// Self time per span name over all logs; writes every span to `path` as
// CSV (name,parent,op,start_ns,end_ns) and prints the self-time table.
std::vector<std::pair<std::string, SpanTotals>> SummarizeSpans(
    const std::vector<const SpanLog*>& logs, const std::string& path);

const SpanTotals& Totals(
    const std::vector<std::pair<std::string, SpanTotals>>& table,
    const std::string& name);

// --- Shared workload pieces ------------------------------------------------

// The JOB-style catalog and its 33 templates every workload runs on:
// scale 0.05 with the generator's default seed, so the database is the
// same in every run and --seed drives only the traffic.
std::unique_ptr<lpb::JobWorkload> MakeJobWorkload();

// Left-deep plans minimizing the peak intermediate: the optimizer setting
// of plan-drift and of the warm-up sweep.
lpb::JoinOrderOptions PlanOptions();

// The warm-up of plan-drift and serve-distinct: plans every template once,
// on this thread, which compiles every bound structure the DP probes.
// Returns the distinct probed subqueries in first-probed order. One thread
// keeps the order in which structures are first evaluated, and so the
// cached bases and every later count, the same in every run.
std::vector<lpb::Query> PlanningSweep(lpb::CardinalityAdvisor& advisor,
                                      const std::vector<lpb::Query>& templates);

// Independent reference for one estimate: a fresh LP over statistics
// collected straight from the catalog (stats/collector.h), never through
// the advisor's caches or compiled bounds.
double ReferenceLog2(const lpb::Query& query, const lpb::Catalog& catalog);

// True when `got` matches the reference to 1e-6 (relative above 1).
bool Matches(double got, double want);

// Adds the per-layer counters every workload reports from AdvisorMetrics
// deltas, normalised per operation (plan or request).
void AddAdvisorLayers(Report& report, const lpb::AdvisorMetrics& before,
                      const lpb::AdvisorMetrics& after, double ops,
                      size_t cache_bytes);

// Workloads. Each fills `report` and returns the process exit code.
int RunPlanDrift(const Args& args, Report& report);
int RunServe(const Args& args, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
