// serve-zipf and serve-distinct: traffic into an AdvisorService with
// default options except two unpinned workers.
//
// Threads: this thread generates load, one observer thread records
// completions, and the service runs two workers; four in all.
//
//   serve-zipf      Zipf(0.8) over the 33 full JOB templates, plus one
//                   Invalidate every 2 ms of scheduled time (issued by the
//                   generator, relations in a seeded shuffled order, so the
//                   churn sequence is the same in every run). Coalescing,
//                   dedup and the norm-store write path do the work.
//   serve-distinct  Uniform over the distinct connected subqueries the
//                   optimizer's DP probes for the 33 templates, read-only.
//                   Dedup finds nothing, so every request pays statistics
//                   assembly, the structure lookup and an LP evaluation.
//
// Each run has up to three phases on the same warm advisor:
//
//   reference  open-loop Poisson arrivals at the workload's reference
//              rate; latency runs from each request's scheduled send time
//              to its observed completion (est_ms_p50, est_ms_p99). The
//              per-layer metrics come from this phase.
//   ladder     (untraced run only) open-loop probes that search for
//              max_rate_at_slo.
//   capacity   (untraced run only) closed-loop rounds at a fixed number
//              of open requests, which keep both workers busy; the gated
//              throughput_per_s and latency_ms_p50 are medians over the
//              rounds. A busy worker never sleeps, so these figures follow
//              the service's work rather than how quickly a shared host
//              wakes idle threads, which moves the open-loop latencies by
//              more than any bound could allow.
//
// Completion times are observed by polling every outstanding future
// instead of waiting on them in order, so a slow request never delays the
// time recorded for a later one.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "harness.h"
#include "serve/advisor_service.h"
#include "util/random.h"
#include "util/zipf.h"

namespace perfbench {
namespace {

constexpr int kWorkers = 2;
constexpr double kSloMs = 10.0;
constexpr double kZipfTheta = 0.8;
constexpr int64_t kChurnPeriodNs = 2'000'000;
// The latency figures are taken at a fixed reference rate per workload;
// max_rate_at_slo searches a ladder of rates ref * kLadderStep^k, each
// rung run for kProbeSeconds of scheduled traffic.
constexpr double kLadderStep = 1.025;
constexpr int kLadderMinRung = -28;  // ~0.5x the reference rate
constexpr int kLadderMaxRung = 96;   // ~10.7x
constexpr double kProbeSeconds = 2.0;
constexpr int kProbeSlices = 4;
// A probe stops sending once the generator runs this late: the rung has
// failed and the rest of its schedule would only grow the backlog.
constexpr int64_t kAbortLagNs = 100'000'000;
// The reference phase's figures are marked invalid when the generator's
// own lateness would break the SLO (p99 lag above it) while SubmitLog2
// stayed quick: the generator, not the service, fell behind. A host stall
// that delays every thread for a few milliseconds does not reach that. No
// gated figure comes from that phase, so the run still completes.
// The observer sleeps at most this long between completion scans.
constexpr int64_t kObserverPollNs = 20'000;
// Traced runs record spans for every stride-th request, so that at most
// this many requests per second are traced.
constexpr double kTracedPerSecond = 4000.0;
// serve-distinct checks a seeded sample of subqueries against the
// reference (a fresh LP per subquery takes ~5 ms).
constexpr size_t kDistinctSample = 384;
// Capacity rounds keep this many requests open: four max_batch (64)
// batches per worker, so a worker still has work queued while the loop
// sleeps on the oldest request.
constexpr size_t kCapacityDepth = 512;
// Capacity rounds issue one Invalidate per this many requests: the
// reference phase's ratio (one per 2 ms at 20k req/s).
constexpr size_t kChurnEvery = 40;

struct Profile {
  bool distinct;
  double reference_rate;
  size_t round_requests;  // requests per capacity round (~0.5-1 s)
};

Profile ProfileFor(const std::string& workload) {
  if (workload == "serve-distinct") return {true, 3000.0, 5000};
  return {false, 20000.0, 50000};
}

struct Setup {
  std::unique_ptr<lpb::JobWorkload> workload;
  std::unique_ptr<lpb::CardinalityAdvisor> advisor;
  std::unique_ptr<lpb::AdvisorService> service;
  std::vector<std::shared_ptr<const lpb::Query>> queries;  // request pool
  double seconds = 0.0;
};

// Workers are left unpinned: a worker pinned to a core that another
// process on a shared host keeps busy cannot move away, and then the run
// measures that process (a spinning process on core 0 cut capacity by a
// third and multiplied the reference p50 by two to eight).
lpb::AdvisorServiceOptions ServiceOptions() {
  lpb::AdvisorServiceOptions options;
  options.workers = kWorkers;
  options.pin_workers = false;
  return options;
}

// Catalog generation, advisor construction, warm-up until every structure
// the requests touch is compiled, and service start.
Setup BuildSetup(const Profile& profile) {
  const int64_t start = NowNs();
  Setup setup;
  setup.workload = MakeJobWorkload();
  setup.advisor =
      std::make_unique<lpb::CardinalityAdvisor>(setup.workload->catalog);
  if (profile.distinct) {
    for (lpb::Query& sub :
         PlanningSweep(*setup.advisor, setup.workload->queries)) {
      setup.queries.push_back(
          std::make_shared<const lpb::Query>(std::move(sub)));
    }
  } else {
    for (const lpb::Query& q : setup.workload->queries) {
      setup.advisor->EstimateLog2(q);
      setup.queries.push_back(std::make_shared<const lpb::Query>(q));
    }
  }
  setup.service =
      std::make_unique<lpb::AdvisorService>(*setup.advisor, ServiceOptions());
  setup.seconds = SecondsSince(start);
  return setup;
}

// The relations serve-zipf invalidates, in seeded random order: each one
// once per cycle through the catalog, reshuffled every cycle, so equal
// stretches of a run do equal write work whatever the seed.
class ChurnOrder {
 public:
  ChurnOrder(std::vector<std::string> relations, uint64_t seed)
      : relations_(std::move(relations)), rng_(seed) {}
  const std::string& Next() {
    if (next_ == 0) {
      for (size_t i = relations_.size(); i > 1; --i) {
        std::swap(relations_[i - 1], relations_[rng_.Uniform(i)]);
      }
    }
    const std::string& relation = relations_[next_];
    next_ = (next_ + 1) % relations_.size();
    return relation;
  }

 private:
  std::vector<std::string> relations_;
  lpb::Rng rng_;
  size_t next_ = 0;
};

struct Request {
  int64_t due_ns = 0;   // scheduled send time
  int64_t sent_ns = 0;  // SubmitLog2 entered
  int64_t submitted_ns = 0;  // SubmitLog2 returned
  int64_t done_ns = 0;  // completion observed (0 = never sent)
  double value = std::nan("");
  uint32_t query = 0;
};

struct Phase {
  std::vector<Request> requests;
  size_t sent = 0;
  size_t max_outstanding = 0;
  size_t outstanding_at_end = 0;  // still open when sending finished
  double seconds = 0.0;
  lpb::AdvisorServiceMetrics service;
};

// Runs `count` Poisson arrivals at `rate` against `service`. Requests draw
// from `rng`; churn relations from `churn_order` (when `churn`).
Phase RunPhase(lpb::AdvisorService& service, const Setup& setup,
               const Profile& profile, double rate, size_t count,
               lpb::Rng& rng, ChurnOrder& churn_order, bool churn,
               bool abortable, SpanLog& send_log, SpanLog& done_log,
               uint64_t stride) {
  Phase phase;
  phase.requests.resize(count);
  const lpb::ZipfSampler zipf(setup.queries.size(), kZipfTheta);

  struct Pending {
    uint32_t id;
    std::future<double> result;
  };
  std::mutex inbox_mu;
  std::vector<Pending> inbox;  // guarded by inbox_mu
  bool sending_done = false;   // guarded by inbox_mu
  std::atomic<size_t> open{0};

  std::thread observer([&] {
    prctl(PR_SET_TIMERSLACK, 1UL);
    std::vector<Pending> pending, arrived;  // pending in send order
    for (;;) {
      bool finished = false;
      {
        std::lock_guard<std::mutex> lock(inbox_mu);
        arrived.swap(inbox);
        finished = sending_done;
      }
      for (Pending& p : arrived) pending.push_back(std::move(p));
      arrived.clear();
      phase.max_outstanding = std::max(phase.max_outstanding, pending.size());
      size_t kept = 0;
      for (size_t i = 0; i < pending.size(); ++i) {
        Pending& p = pending[i];
        if (p.result.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          if (kept != i) pending[kept] = std::move(p);
          ++kept;
          continue;
        }
        Request& r = phase.requests[p.id];
        r.done_ns = NowNs();
        r.value = p.result.get();
        if (p.id % stride == 0) {
          done_log.Record("serve.complete", "request", p.id, r.submitted_ns,
                          r.done_ns);
          done_log.Record("request", nullptr, p.id, r.due_ns, r.done_ns);
        }
        open.fetch_sub(1, std::memory_order_relaxed);
      }
      const bool progressed = kept < pending.size();
      pending.resize(kept);
      if (finished && pending.empty()) {
        std::lock_guard<std::mutex> lock(inbox_mu);
        if (inbox.empty()) break;
      }
      // Nothing finished this pass: sleep until the oldest request
      // completes or kObserverPollNs passes, whichever is first; later
      // requests that finish first are found by the next pass.
      if (!progressed) {
        if (pending.empty()) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(kObserverPollNs));
        } else {
          pending.front().result.wait_for(
              std::chrono::nanoseconds(kObserverPollNs));
        }
      }
    }
  });

  prctl(PR_SET_TIMERSLACK, 1UL);  // precise sleeps for the generator
  const double mean_gap_ns = 1e9 / rate;
  const int64_t start = NowNs() + 1'000'000;
  double due = 0.0;  // ns after start
  int64_t next_churn = kChurnPeriodNs;
  for (size_t i = 0; i < count; ++i) {
    due += -std::log1p(-rng.NextDouble()) * mean_gap_ns;
    const uint32_t query = static_cast<uint32_t>(
        profile.distinct ? rng.Uniform(setup.queries.size())
                         : zipf.Sample(rng));
    while (churn && next_churn <= due) {
      service.Invalidate(churn_order.Next());
      next_churn += kChurnPeriodNs;
    }
    const int64_t due_ns = start + static_cast<int64_t>(due);
    int64_t now = NowNs();
    if (due_ns > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
      now = NowNs();
    }
    if (abortable && now - due_ns > kAbortLagNs) break;
    Request& r = phase.requests[i];
    r.due_ns = due_ns;
    r.query = query;
    r.sent_ns = now;
    std::future<double> result = service.SubmitLog2(setup.queries[query]);
    r.submitted_ns = NowNs();
    if (i % stride == 0) {
      send_log.Record("loadgen.send", "request", i, r.due_ns, r.sent_ns);
      send_log.Record("serve.submit", "request", i, r.sent_ns,
                      r.submitted_ns);
    }
    open.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(inbox_mu);
    inbox.push_back({static_cast<uint32_t>(i), std::move(result)});
    phase.sent = i + 1;
  }
  phase.outstanding_at_end = open.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(inbox_mu);
    sending_done = true;
  }
  observer.join();
  phase.seconds = SecondsSince(start);
  phase.service = service.metrics();
  return phase;
}

// One closed-loop round: this thread keeps kCapacityDepth requests open,
// submitting a new one whenever it finds one complete, until `count` have
// completed. Under serve-zipf it also issues one Invalidate (the next
// relation of `churn_order`) every kChurnEvery requests, the reference
// phase's ratio of writes to reads. Latency runs from SubmitLog2 entry to the observed
// completion. Each pass stamps every open request it finds complete; when
// none is, the loop sleeps until the oldest one completes, so a request
// that completed meanwhile is stamped up to one batch late.
struct Round {
  double seconds = 0.0;
  std::vector<double> latency_ms;  // +inf for a failed request
  uint64_t failed = 0;
  uint64_t mismatched = 0;
};

Round RunRound(lpb::AdvisorService& service, const Setup& setup,
               const Profile& profile, size_t count,
               const std::vector<double>& expected, lpb::Rng& rng,
               ChurnOrder& churn_order, bool churn) {
  Round round;
  round.latency_ms.reserve(count);
  const lpb::ZipfSampler zipf(setup.queries.size(), kZipfTheta);
  struct Open {
    uint32_t query;
    int64_t sent_ns;
    std::future<double> result;
  };
  std::vector<Open> open;
  open.reserve(kCapacityDepth);
  size_t sent = 0, completed = 0;
  const int64_t start = NowNs();
  while (completed < count) {
    while (open.size() < kCapacityDepth && sent < count) {
      if (churn && sent % kChurnEvery == 0) {
        service.Invalidate(churn_order.Next());
      }
      const uint32_t query = static_cast<uint32_t>(
          profile.distinct ? rng.Uniform(setup.queries.size())
                           : zipf.Sample(rng));
      const int64_t sent_ns = NowNs();
      open.push_back(
          {query, sent_ns, service.SubmitLog2(setup.queries[query])});
      ++sent;
    }
    size_t kept = 0;
    for (size_t i = 0; i < open.size(); ++i) {
      Open& o = open[i];
      if (o.result.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        if (kept != i) open[kept] = std::move(o);
        ++kept;
        continue;
      }
      const int64_t done_ns = NowNs();
      const double value = o.result.get();
      const double want = expected[o.query];
      bool ok = !std::isnan(value);
      if (ok && !std::isnan(want) && !Matches(value, want)) {
        ok = false;
        ++round.mismatched;
      }
      if (!ok) ++round.failed;
      round.latency_ms.push_back(
          ok ? static_cast<double>(done_ns - o.sent_ns) * 1e-6
             : std::numeric_limits<double>::infinity());
      ++completed;
    }
    const bool progressed = kept < open.size();
    open.resize(kept);
    // Nothing finished: block until the oldest request does. Spinning here
    // would take a core from the workers, and then the round measures this
    // loop rather than the service.
    if (!progressed && !open.empty()) open.front().result.wait();
  }
  round.seconds = SecondsSince(start);
  return round;
}

// Latencies (ms) of every scheduled request; a request that failed or was
// never sent counts as +infinity, i.e. as missing the SLO.
std::vector<double> LatenciesMs(const Phase& phase,
                                const std::vector<double>& expected) {
  std::vector<double> out;
  out.reserve(phase.requests.size());
  for (const Request& r : phase.requests) {
    const bool ok = r.done_ns != 0 && !std::isnan(r.value) &&
                    (std::isnan(expected[r.query]) ||
                     Matches(r.value, expected[r.query]));
    out.push_back(ok ? static_cast<double>(r.done_ns - r.due_ns) * 1e-6
                     : std::numeric_limits<double>::infinity());
  }
  return out;
}

double LagP99Ms(const Phase& phase) {
  std::vector<double> lag;
  lag.reserve(phase.sent);
  for (size_t i = 0; i < phase.sent; ++i) {
    const Request& r = phase.requests[i];
    lag.push_back(static_cast<double>(r.sent_ns - r.due_ns) * 1e-6);
  }
  return Quantile(lag, 0.99);
}

}  // namespace

int RunServe(const Args& args, Report& report) {
  const Profile profile = ProfileFor(args.workload);
  const bool churn = !profile.distinct;
  const bool e2e = args.mode == Mode::kEndToEnd;
  std::vector<double> setup_seconds;
  Setup setup = RepeatSetup(
      e2e, [&] { return BuildSetup(profile); }, setup_seconds);

  // Reference answers, outside set-up and every timed span. NaN marks a
  // query outside the checked sample.
  std::vector<double> expected(setup.queries.size(), std::nan(""));
  {
    std::vector<size_t> check(setup.queries.size());
    for (size_t i = 0; i < check.size(); ++i) check[i] = i;
    if (profile.distinct && check.size() > kDistinctSample) {
      lpb::Rng pick(args.seed ^ 0x5eed5eedULL);
      for (size_t i = 0; i < kDistinctSample; ++i) {
        std::swap(check[i], check[i + pick.Uniform(check.size() - i)]);
      }
      check.resize(kDistinctSample);
    }
    for (size_t i : check) {
      expected[i] = ReferenceLog2(*setup.queries[i], setup.workload->catalog);
    }
    std::printf("%s: %zu request queries, %zu checked against the "
                "reference\n",
                args.workload.c_str(), setup.queries.size(), check.size());
  }

  lpb::Rng rng(args.seed);
  ChurnOrder churn_order(setup.workload->catalog.Names(),
                         args.seed * 0x9e3779b97f4a7c15ULL + 1);
  const bool traced = args.mode == Mode::kTraced;
  SpanLog send_log(traced), done_log(traced);
  const uint64_t stride = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(profile.reference_rate / kTracedPerSecond)));
  // The reference phase takes half of --seconds, the capacity rounds
  // about the other half.
  const size_t count = static_cast<size_t>(
      profile.reference_rate * static_cast<double>(args.seconds) / 2);

  const lpb::AdvisorMetrics before = setup.advisor->metrics();
  const Phase phase =
      RunPhase(*setup.service, setup, profile, profile.reference_rate, count,
               rng, churn_order, churn, /*abortable=*/false, send_log,
               done_log, stride);
  setup.service->Shutdown();
  const lpb::AdvisorMetrics after = setup.advisor->metrics();

  // Verify every answer of the reference phase.
  uint64_t mismatched = 0;
  std::vector<double> submit_us;
  for (const Request& r : phase.requests) {
    ++report.attempted;
    submit_us.push_back(static_cast<double>(r.submitted_ns - r.sent_ns) *
                        1e-3);
    if (r.done_ns == 0 || std::isnan(r.value)) {
      ++report.failed;
    } else if (!std::isnan(expected[r.query]) &&
               !Matches(r.value, expected[r.query])) {
      ++report.failed;
      ++mismatched;
    }
  }
  const std::vector<double> latency = LatenciesMs(phase, expected);
  const double lag_p99 = LagP99Ms(phase);
  const double submit_p99_ms = Quantile(submit_us, 0.99) * 1e-3;
  // Reported latencies are medians over ~2-second slices of the phase.
  const int segments = std::max(1, args.seconds / 4);
  const double est_p50 = SegmentedQuantile(latency, 0.5, segments);
  const double est_p99 = SegmentedQuantile(latency, 0.99, segments);
  std::printf("set-up: %zu runs, median %.3f s\n"
              "reference phase: %zu requests at %.0f/s over %.3f s; "
              "failed %llu (mismatched %llu)\n"
              "  est_ms_p50 %.4f  est_ms_p99 %.4f (n=%zu, median of %d "
              "slices; whole phase %.4f / %.4f)\n"
              "  serve.internal_ms_p50 %.4f  serve.internal_ms_p99 %.4f "
              "(service histogram, whole phase)\n"
              "  loadgen.lag_ms_p99 %.4f  submit_ms_p99 %.4f  backlog %zu\n",
              setup_seconds.size(), Median(setup_seconds), phase.sent,
              profile.reference_rate, phase.seconds,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(mismatched), est_p50, est_p99,
              latency.size(), segments, Quantile(latency, 0.5),
              Quantile(latency, 0.99), phase.service.latency.p50_ns * 1e-6,
              phase.service.latency.p99_ns * 1e-6, lag_p99, submit_p99_ms,
              phase.max_outstanding);
  if (lag_p99 > kSloMs && submit_p99_ms < lag_p99 / 2) {
    std::printf("  INVALID reference phase: the load generator fell behind "
                "(lag p99 %.3f ms)\n",
                lag_p99);
  }

  if (e2e) {
    // Peak RSS of set-up plus the reference phase; the ladder's own
    // request records would otherwise add a search-path-dependent amount.
    const double peak_rss_mb = PeakRssMb();
    // max_rate_at_slo: binary search for the highest ladder rung that
    // meets the SLO with no growing backlog, bracketed by the reference
    // phase. A probe's p99 is the median p99 of kProbeSlices half-second
    // slices of it,
    // so one short host stall does not fail a rung; failed requests count
    // as misses, and a probe the generator had to abort fails.
    const auto passes = [&](const Phase& p, double rate, int slices) {
      return p.sent == p.requests.size() &&
             SegmentedQuantile(LatenciesMs(p, expected), 0.99, slices) <=
                 kSloMs &&
             static_cast<double>(p.outstanding_at_end) <=
                 rate * kSloMs * 1e-3;
    };
    int lo = kLadderMinRung - 1, hi = kLadderMaxRung + 1;
    (passes(phase, profile.reference_rate, segments) ? lo : hi) = 0;
    SpanLog off(false);
    const auto probe_passes = [&](int rung) {
      const double rate = profile.reference_rate * std::pow(kLadderStep, rung);
      lpb::AdvisorService service(*setup.advisor, ServiceOptions());
      const Phase probe = RunPhase(
          service, setup, profile, rate,
          static_cast<size_t>(rate * kProbeSeconds), rng, churn_order,
          churn, /*abortable=*/true, off, off, 1);
      service.Shutdown();
      for (const Request& r : probe.requests) {
        if (r.done_ns != 0 && !std::isnan(r.value) &&
            !std::isnan(expected[r.query]) &&
            !Matches(r.value, expected[r.query])) {
          ++mismatched;
        }
      }
      const bool ok = passes(probe, rate, kProbeSlices);
      std::printf("  ladder rung %+d: %.0f req/s -> p99 %.3f ms (slices), "
                  "backlog %zu, %s\n",
                  rung, rate,
                  SegmentedQuantile(LatenciesMs(probe, expected), 0.99,
                                    kProbeSlices),
                  probe.outstanding_at_end, ok ? "pass" : "fail");
      return ok;
    };
    while (hi - lo > 1) {
      const int mid = lo + (hi - lo) / 2;
      // A failed rung is probed once more before the search turns down:
      // host stalls spanning most of a probe do happen on shared machines.
      const bool ok = probe_passes(mid) || probe_passes(mid);
      (ok ? lo : hi) = mid;
    }
    const double max_rate =
        profile.reference_rate * std::pow(kLadderStep, lo);
    std::printf("  max_rate_at_slo %.1f req/s\n", max_rate);

    // Capacity: one warm-up round, then seconds / 2 counted rounds, every
    // answer verified.
    lpb::AdvisorService service(*setup.advisor, ServiceOptions());
    const int rounds = std::max(3, args.seconds / 2);
    std::vector<double> rates, p50s, p99s;
    for (int i = 0; i <= rounds; ++i) {
      const Round round =
          RunRound(service, setup, profile, profile.round_requests, expected,
                   rng, churn_order, churn);
      report.attempted += round.latency_ms.size();
      report.failed += round.failed;
      mismatched += round.mismatched;
      if (i == 0) continue;
      rates.push_back(static_cast<double>(round.latency_ms.size()) /
                      round.seconds);
      p50s.push_back(Quantile(round.latency_ms, 0.5));
      p99s.push_back(Quantile(round.latency_ms, 0.99));
    }
    service.Shutdown();
    std::printf("capacity: %d rounds of %zu requests, %zu open, ", rounds,
                profile.round_requests, kCapacityDepth);
    if (churn) {
      std::printf("one Invalidate per %zu requests\n", kChurnEvery);
    } else {
      std::printf("read-only\n");
    }
    std::printf("  capacity_per_s %.1f  capacity_ms_p50 %.4f  "
                "capacity_ms_p99 %.4f (medians over rounds)\n"
                "  rounds req/s min %.1f max %.1f\n"
                "  failed_frac %.6f\n",
                Median(rates), Median(p50s), Median(p99s),
                *std::min_element(rates.begin(), rates.end()),
                *std::max_element(rates.begin(), rates.end()),
                static_cast<double>(report.failed) /
                    static_cast<double>(report.attempted));
    report.mismatched = mismatched;
    report.Add("setup_s", Median(setup_seconds), "s");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    report.Add("latency_ms_p50", Median(p50s), "ms");
    report.Add("latency_ms_tail", Median(p99s), "ms");
    report.Add("throughput_per_s", Median(rates), "1/s");
    return 0;
  }

  report.mismatched = mismatched;
  double mean_ms = 0.0;
  for (double ms : latency) mean_ms += ms;
  report.Add("trace.compare_ms", mean_ms / static_cast<double>(latency.size()),
             "ms");
  if (!traced) return 0;

  SummarizeSpans({&send_log, &done_log}, args.spans_path);
  const double requests = static_cast<double>(phase.sent);
  std::unordered_set<uint32_t> seen;
  uint64_t repeats = 0;
  for (const Request& r : phase.requests) {
    if (!seen.insert(r.query).second) ++repeats;
  }
  report.Add("estimator.exact_repeat_share",
             static_cast<double>(repeats) / requests, "frac");
  AddAdvisorLayers(report, before, after, requests,
                   setup.advisor->CacheBytes());
  double submit_sum = 0.0;
  for (double us : submit_us) submit_sum += us;
  const lpb::AdvisorServiceMetrics& sm = phase.service;
  report.Add("serve.submit_us", submit_sum / requests, "us");
  report.Add("serve.internal_ms_p50", sm.latency.p50_ns * 1e-6, "ms");
  report.Add("serve.internal_ms_p99", sm.latency.p99_ns * 1e-6, "ms");
  report.Add("serve.mean_batch", sm.MeanBatchSize(), "count");
  report.Add("serve.dedup_factor", sm.DedupFactor(), "ratio");
  report.Add("serve.distinct_evals_per_s",
             static_cast<double>(sm.evaluated) / phase.seconds, "1/s");
  report.Add("serve.max_queue_depth", static_cast<double>(sm.max_queue_depth),
             "count");
  report.Add("serve.rejected", static_cast<double>(sm.rejected), "count");
  report.Add("loadgen.lag_ms_p99", lag_p99, "ms");
  report.Add("loadgen.backlog", static_cast<double>(phase.max_outstanding),
             "count");
  return 0;
}

}  // namespace perfbench
