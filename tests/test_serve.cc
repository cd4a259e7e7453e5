// AdvisorService behavior: serving correctness (a submitted estimate equals
// the direct advisor call), admission-batch coalescing, the shutdown
// contract (queued requests drain to completion, later submits are rejected
// with quiet NaN), the advisor batch-path edge cases the service leans on,
// the refusal of malformed queries at both boundaries, and a 16-client
// stress with concurrent invalidation churn — the serving half of what the
// CI TSan lane runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "estimator/advisor.h"
#include "query/parser.h"
#include "serve/advisor_service.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lpb {
namespace {

// Queries sharing a compiled structure may be served from whichever
// alternate optimal basis a racing thread cached — mathematically equal,
// bitwise not guaranteed (see test_advisor_concurrent.cc).
bool Mismatch(double got, double want) {
  if (std::isinf(want)) return !std::isinf(got);
  return std::abs(got - want) > 1e-8 * std::max(1.0, std::abs(want));
}

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.has_value());
  return *q;
}

Catalog ServeDb(uint64_t seed = 17) {
  Catalog db;
  Rng rng(seed);
  ZipfSampler zipf(31, 0.6);
  for (const char* name : {"R", "S", "T", "U", "V", "W"}) {
    Relation r(name, {"a", "b"});
    for (int i = 0; i < 200; ++i) {
      r.AddRow({zipf.Sample(rng), zipf.Sample(rng)});
    }
    r.Deduplicate();
    db.Add(std::move(r));
  }
  return db;
}

std::vector<Query> ServeQueries() {
  std::vector<Query> queries;
  for (const char* text :
       {"R(X,Y), S(Y,Z)", "R(X,Y), S(Y,Z), T(Z,X)", "T(X,Y), U(Y,Z)",
        "U(X,Y), V(Y,Z), W(Z,X)", "R(X,Y), V(Y,Z)", "S(X,Y), W(Y,X)",
        "R(X,Y), S(Y,Z), T(Z,W), U(W,V2)"}) {
    queries.push_back(Parse(text));
  }
  return queries;
}

TEST(AdvisorService, SubmittedEstimatesMatchDirectCalls) {
  Catalog db = ServeDb();
  const std::vector<Query> queries = ServeQueries();
  CardinalityAdvisor reference(db);
  std::vector<double> expected;
  for (const Query& q : queries) expected.push_back(reference.EstimateLog2(q));

  CardinalityAdvisor advisor(db);
  AdvisorServiceOptions options;
  options.workers = 2;
  AdvisorService service(advisor, options);
  // Mix of sync and future-based submission, repeated so both the cold
  // (compile) and warm (witness) paths flow through the service.
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_FALSE(Mismatch(service.EstimateLog2(queries[i]), expected[i]));
    }
    std::vector<std::future<double>> futures;
    for (const Query& q : queries) futures.push_back(service.SubmitLog2(q));
    for (size_t i = 0; i < futures.size(); ++i) {
      EXPECT_FALSE(Mismatch(futures[i].get(), expected[i]));
    }
  }
  service.Shutdown();
  const AdvisorServiceMetrics m = service.metrics();
  EXPECT_EQ(m.submitted, 6u * queries.size());
  EXPECT_EQ(m.completed, m.submitted);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.coalesced, m.completed);
  EXPECT_EQ(m.latency.count, m.completed);
  // Dedup bookkeeping: every batch evaluates at least one distinct query
  // and never more than its request count.
  EXPECT_GE(m.evaluated, m.batches);
  EXPECT_LE(m.evaluated, m.coalesced);
  EXPECT_GE(m.DedupFactor(), 1.0);
}

TEST(AdvisorService, IdenticalQueriesInOneBatchShareOneEvaluation) {
  Catalog db = ServeDb();
  const std::vector<Query> queries = ServeQueries();
  CardinalityAdvisor reference(db);
  const double expected = reference.EstimateLog2(queries[0]);

  CardinalityAdvisor advisor(db);
  advisor.EstimateLog2(queries[0]);  // pre-compile
  // One worker and a generous window so one pipelined burst of the SAME
  // query lands in one admission batch.
  AdvisorServiceOptions options;
  options.workers = 1;
  options.max_batch = 64;
  options.batch_window_us = 20000;
  AdvisorService service(advisor, options);

  constexpr int kBurst = 48;
  std::vector<std::future<double>> inflight;
  for (int k = 0; k < kBurst; ++k) {
    inflight.push_back(service.SubmitLog2(queries[0]));
  }
  for (std::future<double>& f : inflight) {
    EXPECT_FALSE(Mismatch(f.get(), expected));
  }
  service.Shutdown();

  const AdvisorServiceMetrics m = service.metrics();
  EXPECT_EQ(m.completed, static_cast<uint64_t>(kBurst));
  // All repeats of a query within one admission batch share one
  // evaluation, so distinct evaluations equal the batch count here.
  EXPECT_EQ(m.evaluated, m.batches);
  EXPECT_LT(m.evaluated, m.completed);
  EXPECT_GT(m.DedupFactor(), 1.0);
}

TEST(AdvisorService, PipelinedSubmitsCoalesceIntoBatches) {
  Catalog db = ServeDb();
  const std::vector<Query> queries = ServeQueries();
  CardinalityAdvisor advisor(db);
  for (const Query& q : queries) advisor.EstimateLog2(q);  // pre-compile

  // One worker and a generous microbatch window: everything submitted
  // while the worker is busy (or waiting out the window) must coalesce.
  AdvisorServiceOptions options;
  options.workers = 1;
  options.max_batch = 64;
  options.batch_window_us = 20000;
  AdvisorService service(advisor, options);

  constexpr int kRounds = 4;
  constexpr int kPipeline = 32;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<double>> inflight;
    for (int k = 0; k < kPipeline; ++k) {
      inflight.push_back(service.SubmitLog2(queries[k % queries.size()]));
    }
    for (std::future<double>& f : inflight) EXPECT_TRUE(std::isfinite(f.get()));
  }
  service.Shutdown();

  const AdvisorServiceMetrics m = service.metrics();
  EXPECT_EQ(m.completed, static_cast<uint64_t>(kRounds * kPipeline));
  // Coalescing must actually engage: far fewer advisor calls than
  // requests, a >1 mean, and some batch beyond a singleton.
  EXPECT_LT(m.batches, m.completed);
  EXPECT_GT(m.MeanBatchSize(), 1.0);
  EXPECT_GT(m.max_coalesced, 1u);
  EXPECT_LE(m.max_coalesced, static_cast<uint64_t>(options.max_batch));
}

TEST(AdvisorService, ShutdownDrainsQueuedRequests) {
  Catalog db = ServeDb();
  const std::vector<Query> queries = ServeQueries();
  CardinalityAdvisor reference(db);
  std::vector<double> expected;
  for (const Query& q : queries) expected.push_back(reference.EstimateLog2(q));

  CardinalityAdvisor advisor(db);
  // A long window keeps the worker dwelling in PopBatch, so Shutdown runs
  // with requests genuinely in flight / queued.
  AdvisorServiceOptions options;
  options.workers = 1;
  options.batch_window_us = 50000;
  AdvisorService service(advisor, options);

  std::vector<std::future<double>> inflight;
  for (int round = 0; round < 8; ++round) {
    for (const Query& q : queries) inflight.push_back(service.SubmitLog2(q));
  }
  service.Shutdown();
  // Every accepted request must still resolve to the real estimate — the
  // close-then-drain contract — with no hang and no dropped future.
  for (size_t i = 0; i < inflight.size(); ++i) {
    EXPECT_FALSE(Mismatch(inflight[i].get(), expected[i % queries.size()]));
  }
  const AdvisorServiceMetrics m = service.metrics();
  EXPECT_EQ(m.completed + m.rejected, static_cast<uint64_t>(inflight.size()));

  // Post-shutdown submissions complete immediately with quiet NaN.
  std::future<double> late = service.SubmitLog2(queries[0]);
  EXPECT_TRUE(std::isnan(late.get()));
  EXPECT_TRUE(std::isnan(service.EstimateLog2(queries[0])));
  EXPECT_GE(service.metrics().rejected, 2u);

  // Shutdown is idempotent (the destructor will run it again too).
  service.Shutdown();
}

TEST(AdvisorService, DestructorWithInFlightRequestsCompletesFutures) {
  Catalog db = ServeDb();
  const std::vector<Query> queries = ServeQueries();
  CardinalityAdvisor advisor(db);
  std::vector<std::future<double>> inflight;
  {
    AdvisorServiceOptions options;
    options.workers = 1;
    options.batch_window_us = 50000;
    AdvisorService service(advisor, options);
    for (const Query& q : queries) inflight.push_back(service.SubmitLog2(q));
  }
  // The destructor drained the queue; every future is resolved and real.
  for (std::future<double>& f : inflight) EXPECT_TRUE(std::isfinite(f.get()));
}

TEST(AdvisorBatchEdgeCases, EmptyQueryVectorYieldsEmptyResult) {
  Catalog db = ServeDb();
  CardinalityAdvisor advisor(db);
  EXPECT_TRUE(advisor.EstimateLog2Batch(std::vector<Query>{}).empty());
  EXPECT_TRUE(advisor.EstimateBatch(std::vector<Query>{}).empty());
  EXPECT_TRUE(advisor.AssembleStatisticsBatch({}).empty());
  EXPECT_EQ(advisor.metrics().estimates, 0u);
}

TEST(AdvisorBatchEdgeCases, EmptyLogBBatchYieldsEmptyResult) {
  Catalog db = ServeDb();
  CardinalityAdvisor advisor(db);
  const Query q = Parse("R(X,Y), S(Y,Z)");
  EXPECT_TRUE(advisor.EstimateLog2Batch(q, {}).empty());
}

TEST(AdvisorBatchEdgeCases, ZeroAtomQueriesServeTrivialBound) {
  Catalog db = ServeDb();
  CardinalityAdvisor advisor(db);
  const Query empty;  // 0 atoms: |Q(D)| = 1, log2 = 0
  EXPECT_DOUBLE_EQ(advisor.EstimateLog2(empty), 0.0);
  // Mixed into a multi-query batch, and assembled batch-wise.
  const std::vector<Query> mixed = {Parse("R(X,Y), S(Y,Z)"), empty};
  const std::vector<double> got = advisor.EstimateLog2Batch(mixed);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[1], 0.0);
  EXPECT_DOUBLE_EQ(got[0], advisor.EstimateLog2(mixed[0]));
  const auto stats = advisor.AssembleStatisticsBatch(mixed);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_FALSE(stats[0].empty());
  EXPECT_TRUE(stats[1].empty());
}

TEST(AdvisorBatchEdgeCases, MisSizedWhatIfVectorsYieldInfinity) {
  Catalog db = ServeDb();
  CardinalityAdvisor advisor(db);
  const Query q = Parse("R(X,Y), S(Y,Z)");
  const auto stats = advisor.Explain(q).stats;
  const double expected = advisor.EstimateLog2(q);
  std::vector<std::vector<double>> batch;
  batch.push_back(ValuesOf(stats));                      // well-sized
  batch.push_back({});                                   // too short
  batch.push_back(std::vector<double>(stats.size() + 3,  // too long
                                      1.0));
  const std::vector<double> got = advisor.EstimateLog2Batch(q, batch);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_FALSE(Mismatch(got[0], expected));
  EXPECT_TRUE(std::isinf(got[1]));
  EXPECT_TRUE(std::isinf(got[2]));
}

// Malformed queries: an atom over a relation the catalog lacks, an atom
// wider than its relation, and a query over more than kMaxVars variables.
// Each is refused with quiet NaN and counted, on every entry point, and
// never reaches Catalog::Get (which only asserts).
Query UnknownRelationQuery() { return Parse("R(X,Y), Missing(Y,Z)"); }
Query TooWideAtomQuery() { return Parse("R(X,Y), S(Y,Z,W)"); }

#ifdef NDEBUG
// A chain over kMaxVars + 2 variables. Query::AddVar asserts the limit, so
// such a query exists only in NDEBUG builds — the ones where the advisor's
// refusal is the only guard.
Query OverWideQuery() {
  Query q;
  for (int i = 0; i <= kMaxVars; ++i) {
    q.AddAtom("R", {"X" + std::to_string(i), "X" + std::to_string(i + 1)});
  }
  return q;
}
#endif

TEST(AdvisorRefusal, ScalarEntryPointsRefuseMalformedQueries) {
  Catalog db = ServeDb();
  CardinalityAdvisor advisor(db);
  std::vector<Query> malformed = {UnknownRelationQuery(), TooWideAtomQuery()};
#ifdef NDEBUG
  malformed.push_back(OverWideQuery());
#endif
  uint64_t refused = 0;
  for (const Query& q : malformed) {
    SCOPED_TRACE(q.ToString());
    EXPECT_TRUE(std::isnan(advisor.EstimateLog2(q)));
    EXPECT_TRUE(std::isnan(advisor.Estimate(q)));
    const CardinalityAdvisor::Explanation ex = advisor.Explain(q);
    EXPECT_TRUE(std::isnan(ex.bound.log2_bound));
    EXPECT_TRUE(ex.stats.empty());
    const std::vector<double> what_if =
        advisor.EstimateLog2Batch(q, std::vector<std::vector<double>>(2));
    ASSERT_EQ(what_if.size(), 2u);
    EXPECT_TRUE(std::isnan(what_if[0]) && std::isnan(what_if[1]));
    refused += 4;
    EXPECT_EQ(advisor.metrics().refused, refused);
  }
  // Refusals are not estimates, and nothing about them was cached.
  EXPECT_EQ(advisor.metrics().estimates, 0u);
  EXPECT_EQ(advisor.CompiledCacheSize(), 0u);
  // A well-formed query is still served.
  EXPECT_TRUE(std::isfinite(advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z)"))));
}

TEST(AdvisorRefusal, MultiQueryBatchRefusesOnlyTheMalformedQueries) {
  Catalog db = ServeDb();
  CardinalityAdvisor advisor(db);
  CardinalityAdvisor reference(db);
  std::vector<Query> batch = {Parse("R(X,Y), S(Y,Z)"), UnknownRelationQuery(),
                              Parse("T(X,Y), U(Y,Z)"), TooWideAtomQuery(),
                              Parse("R(X,Y), S(Y,Z)"), UnknownRelationQuery()};
  std::vector<bool> malformed = {false, true, false, true, false, true};
#ifdef NDEBUG
  batch.push_back(OverWideQuery());
  malformed.push_back(true);
#endif
  const std::vector<double> got = advisor.EstimateLog2Batch(batch);
  ASSERT_EQ(got.size(), batch.size());
  uint64_t refused = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    if (malformed[i]) {
      EXPECT_TRUE(std::isnan(got[i]));
      ++refused;
    } else {
      EXPECT_EQ(got[i], reference.EstimateLog2(batch[i]));
    }
  }
  EXPECT_EQ(advisor.metrics().refused, refused);

  std::vector<bool> flags;
  const auto stats = advisor.AssembleStatisticsBatch(batch, &flags);
  EXPECT_EQ(flags, malformed);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(stats[i].empty(), malformed[i]) << i;
  }
}

TEST(AdvisorRefusal, ServiceSubmitsOfMalformedQueriesResolveToNaN) {
  Catalog db = ServeDb();
  CardinalityAdvisor advisor(db);
  CardinalityAdvisor reference(db);
  AdvisorServiceOptions sopt;
  sopt.workers = 2;
  sopt.pin_workers = false;
  AdvisorService service(advisor, sopt);
  std::vector<Query> queries = ServeQueries();
  const size_t valid = queries.size();
  queries.push_back(UnknownRelationQuery());
  queries.push_back(TooWideAtomQuery());
#ifdef NDEBUG
  queries.push_back(OverWideQuery());
#endif
  std::vector<std::future<double>> futures;
  for (int round = 0; round < 4; ++round) {
    for (const Query& q : queries) futures.push_back(service.SubmitLog2(q));
  }
  for (size_t k = 0; k < futures.size(); ++k) {
    const size_t i = k % queries.size();
    const double got = futures[k].get();
    if (i < valid) {
      EXPECT_FALSE(Mismatch(got, reference.EstimateLog2(queries[i]))) << i;
    } else {
      EXPECT_TRUE(std::isnan(got)) << i;
    }
  }
  service.Shutdown();
  EXPECT_EQ(service.metrics().completed, futures.size());
  EXPECT_EQ(service.metrics().rejected, 0u);
  // Each worker batch refuses its distinct malformed queries once.
  EXPECT_GE(advisor.metrics().refused, queries.size() - valid);
  EXPECT_LE(advisor.metrics().refused, 4 * (queries.size() - valid));
  // The synchronous path rides the same refusal.
  AdvisorService again(advisor, sopt);
  EXPECT_TRUE(std::isnan(again.EstimateLog2(UnknownRelationQuery())));
}

TEST(AdvisorService, SixteenClientStressWithInvalidationChurn) {
  Catalog db = ServeDb(23);
  const std::vector<Query> queries = ServeQueries();
  CardinalityAdvisor reference(db);
  std::vector<double> expected;
  for (const Query& q : queries) expected.push_back(reference.EstimateLog2(q));

  // Eviction-prone statistics store + invalidation churn: recomputation
  // races the ticker while 16 clients pipeline submissions.
  AdvisorOptions aopt;
  aopt.norm_cache.shards = 4;
  aopt.norm_cache.byte_budget = 64 << 10;
  CardinalityAdvisor advisor(db, aopt);
  AdvisorServiceOptions sopt;
  sopt.workers = 2;
  sopt.max_batch = 32;
  sopt.batch_window_us = 200;
  AdvisorService service(advisor, sopt);

  constexpr int kClients = 16;
  constexpr int kRounds = 8;
  constexpr int kPipeline = 8;
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients + 1);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(500 + c);
      std::vector<std::future<double>> inflight;
      std::vector<size_t> picked;
      for (int round = 0; round < kRounds; ++round) {
        inflight.clear();
        picked.clear();
        for (int k = 0; k < kPipeline; ++k) {
          const size_t i = rng.Uniform(queries.size());
          picked.push_back(i);
          inflight.push_back(service.SubmitLog2(queries[i]));
        }
        for (int k = 0; k < kPipeline; ++k) {
          if (Mismatch(inflight[k].get(), expected[picked[k]])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  threads.emplace_back([&] {
    Rng rng(77);
    const char* names[] = {"R", "S", "T", "U", "V", "W"};
    while (!stop.load(std::memory_order_relaxed)) {
      service.Invalidate(names[rng.Uniform(6)]);
      std::this_thread::yield();
    }
  });
  for (int c = 0; c < kClients; ++c) threads[c].join();
  stop.store(true);
  threads.back().join();
  service.Shutdown();

  EXPECT_EQ(mismatches.load(), 0u);
  const AdvisorServiceMetrics m = service.metrics();
  const uint64_t want = uint64_t{kClients} * kRounds * kPipeline;
  EXPECT_EQ(m.submitted, want);
  EXPECT_EQ(m.completed, want);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.coalesced, m.completed);
  EXPECT_EQ(m.latency.count, m.completed);
  EXPECT_LE(m.max_coalesced, static_cast<uint64_t>(sopt.max_batch));
  // Worker-side dedup: the advisor evaluates one distinct query per
  // repeat group, never more than the request count, and its own books
  // reconcile against exactly that evaluated count.
  EXPECT_GE(m.evaluated, m.batches);
  EXPECT_LE(m.evaluated, want);
  const AdvisorMetrics am = advisor.metrics();
  EXPECT_EQ(am.estimates, m.evaluated);
  EXPECT_EQ(am.memo_hits + am.witness_hits + am.warm_resolves +
                am.cold_solves,
            m.evaluated);
  EXPECT_EQ(am.norm_hits + am.norm_misses > 0, true);
}

}  // namespace
}  // namespace lpb
