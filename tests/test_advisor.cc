#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "datagen/job_gen.h"
#include "exec/generic_join.h"
#include "exec/yannakakis.h"
#include "query/parser.h"
#include "bounds/normal_engine.h"
#include "estimator/advisor.h"
#include "stats/collector.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lpb {
namespace {

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.has_value());
  return *q;
}

Catalog SmallDb(uint64_t seed = 3) {
  Catalog db;
  Rng rng(seed);
  ZipfSampler zipf(15, 0.5);
  for (const char* name : {"R", "S", "T"}) {
    Relation r(name, {"a", "b"});
    for (int i = 0; i < 100; ++i) {
      r.AddRow({zipf.Sample(rng), zipf.Sample(rng)});
    }
    r.Deduplicate();
    db.Add(std::move(r));
  }
  return db;
}

TEST(Advisor, MatchesCollectorPipeline) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  for (const char* text :
       {"R(X,Y), S(Y,Z)", "R(X,Y), S(Y,Z), T(Z,X)", "R(X,Y), R(Y,Z)"}) {
    Query q = Parse(text);
    CollectorOptions copt;
    copt.norms = AdvisorOptions{}.norms;
    auto stats = CollectStatistics(q, db, copt);
    auto expected = LpNormBound(q.num_vars(), stats);
    EXPECT_NEAR(advisor.EstimateLog2(q), expected.log2_bound, 1e-9) << text;
  }
}

TEST(Advisor, EstimatesAreSound) {
  Catalog db = SmallDb(7);
  CardinalityAdvisor advisor(db);
  for (const char* text :
       {"R(X,Y), S(Y,Z)", "R(X,Y), S(Y,Z), T(Z,W)", "R(X,Y), T(Y,X)"}) {
    Query q = Parse(text);
    const uint64_t truth = CountJoin(q, db);
    if (truth == 0) continue;
    EXPECT_GE(advisor.EstimateLog2(q),
              std::log2(static_cast<double>(truth)) - 1e-6)
        << text;
  }
}

TEST(Advisor, CacheIsSharedAcrossQueries) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z)"));
  const size_t after_first = advisor.CacheSize();
  EXPECT_GT(after_first, 0u);
  // The triangle reuses R's and S's sequences; only T's are new.
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z), T(Z,X)"));
  const size_t after_second = advisor.CacheSize();
  EXPECT_GT(after_second, after_first);
  // Re-running adds nothing.
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z), T(Z,X)"));
  EXPECT_EQ(advisor.CacheSize(), after_second);
}

TEST(Advisor, SelfJoinSharesCacheEntries) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  advisor.EstimateLog2(Parse("R(X,Y), R(Y,Z)"));
  // Two atoms over the same relation with the same column splits: the
  // cache holds entries for R only (cardinality + two conditionals).
  EXPECT_LE(advisor.CacheSize(), 3u);
}

TEST(Advisor, InvalidateDropsOnlyThatRelation) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z)"));
  const size_t full = advisor.CacheSize();
  advisor.Invalidate("R");
  EXPECT_LT(advisor.CacheSize(), full);
  EXPECT_GT(advisor.CacheSize(), 0u);  // S entries survive
}

TEST(Advisor, ExplainProducesCertificate) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z)");
  auto explanation = advisor.Explain(q);
  ASSERT_TRUE(explanation.bound.ok());
  double certified = 0.0;
  for (size_t i = 0; i < explanation.stats.size(); ++i) {
    certified +=
        explanation.bound.weights[i] * explanation.stats[i].log_b;
    EXPECT_FALSE(explanation.stats[i].label.empty());
  }
  EXPECT_NEAR(certified, explanation.bound.log2_bound, 1e-5);
}

TEST(Advisor, JobWorkloadThroughput) {
  JobWorkloadOptions opt;
  opt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(opt);
  CardinalityAdvisor advisor(wl.catalog);
  int sound = 0;
  for (const Query& q : wl.queries) {
    const double est = advisor.EstimateLog2(q);
    auto truth = CountAcyclic(q, wl.catalog);
    ASSERT_TRUE(truth.has_value());
    if (*truth == 0 ||
        est >= std::log2(static_cast<double>(*truth)) - 1e-6) {
      ++sound;
    }
  }
  EXPECT_EQ(sound, static_cast<int>(wl.queries.size()));
  // The cache holds one entry per (relation, column split), far fewer than
  // 33 x per-query statistics.
  EXPECT_LT(advisor.CacheSize(), 100u);
}

TEST(Advisor, RepeatedTemplatesReuseCompiledWitness) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z), T(Z,X)");
  const double first = advisor.EstimateLog2(q);
  AdvisorMetrics m = advisor.metrics();
  EXPECT_EQ(m.estimates, 1u);
  EXPECT_EQ(m.compiled_misses, 1u);
  EXPECT_EQ(m.cold_solves, 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(advisor.EstimateLog2(q), first, 1e-9);
  }
  m = advisor.metrics();
  EXPECT_EQ(m.estimates, 6u);
  EXPECT_EQ(m.compiled_hits, 5u);
  // Unchanged statistics are an exact repeat: the estimate memo answers.
  EXPECT_EQ(m.memo_hits, 5u);
  EXPECT_EQ(m.witness_hits, 0u);
  // The what-if overload bypasses the memo; at the real values the cached
  // basis is still optimal: pure witness reuse.
  const std::vector<std::vector<double>> real = {
      ValuesOf(advisor.Explain(q).stats)};
  const AdvisorMetrics before_what_if = advisor.metrics();
  EXPECT_NEAR(advisor.EstimateLog2Batch(q, real)[0], first, 1e-9);
  m = advisor.metrics();
  EXPECT_EQ(m.witness_hits - before_what_if.witness_hits, 1u);
  EXPECT_EQ(m.memo_hits, 5u);
  EXPECT_EQ(advisor.CompiledCacheSize(), 1u);
}

TEST(Advisor, SameStructureDifferentRelationsSharesCompiledBound) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  // Same hypergraph + statistic shapes over different relations: one
  // compiled structure, two statistics snapshots.
  advisor.EstimateLog2(Parse("R(X,Y), S(Y,Z)"));
  advisor.EstimateLog2(Parse("S(X,Y), T(Y,Z)"));
  EXPECT_EQ(advisor.CompiledCacheSize(), 1u);
  const AdvisorMetrics m = advisor.metrics();
  EXPECT_EQ(m.compiled_misses, 1u);
  EXPECT_EQ(m.compiled_hits, 1u);
}

TEST(Advisor, ExplainReportsEvalPathAndMetrics) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z)");
  auto cold = advisor.Explain(q);
  EXPECT_EQ(cold.bound.eval_path, LpEvalPath::kCold);
  EXPECT_EQ(cold.metrics.compiled_misses, 1u);
  auto warm = advisor.Explain(q);
  EXPECT_EQ(warm.bound.eval_path, LpEvalPath::kWitness);
  EXPECT_EQ(warm.metrics.witness_hits, 1u);
  EXPECT_NEAR(warm.bound.log2_bound, cold.bound.log2_bound, 1e-9);
}

TEST(Advisor, InvalidateRefreshesValuesButKeepsCompiledBounds) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z)");
  const double before = advisor.EstimateLog2(q);
  advisor.Invalidate("R");
  EXPECT_EQ(advisor.CompiledCacheSize(), 1u);  // structure cache survives
  EXPECT_NEAR(advisor.EstimateLog2(q), before, 1e-9);  // same data: same bound
}

TEST(Advisor, ConcurrentEstimatesAreConsistent) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  const std::vector<std::string> texts = {
      "R(X,Y), S(Y,Z)", "R(X,Y), S(Y,Z), T(Z,X)", "R(X,Y), R(Y,Z)",
      "S(X,Y), T(Y,Z)"};
  std::vector<double> expected;
  for (const auto& text : texts) expected.push_back(
      advisor.EstimateLog2(Parse(text)));

  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const size_t qi = (t + i) % texts.size();
        const double est = advisor.EstimateLog2(Parse(texts[qi]));
        if (std::abs(est - expected[qi]) > 1e-9) ++mismatches[t];
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  const AdvisorMetrics m = advisor.metrics();
  EXPECT_EQ(m.estimates,
            static_cast<uint64_t>(kThreads * kIters + texts.size()));
  EXPECT_EQ(m.compiled_hits + m.compiled_misses, m.estimates);
  EXPECT_GT(m.witness_hits, 0u);
}

// Five relations over the same value domain: every ordered pair (A, B)
// gives a chain A(X,Y), B(Y,Z) of one bound structure with its own values.
Catalog WideDb() {
  Catalog db;
  Rng rng(5);
  ZipfSampler zipf(15, 0.5);
  for (const char* name : {"R0", "R1", "R2", "R3", "R4"}) {
    Relation r(name, {"a", "b"});
    for (int i = 0; i < 100; ++i) {
      r.AddRow({zipf.Sample(rng), zipf.Sample(rng)});
    }
    r.Deduplicate();
    db.Add(std::move(r));
  }
  return db;
}

std::vector<Query> WideChains(const Catalog& db) {
  std::vector<Query> chains;
  for (const std::string& a : db.Names()) {
    for (const std::string& b : db.Names()) {
      chains.push_back(Parse(a + "(X,Y), " + b + "(Y,Z)"));
    }
  }
  return chains;
}

TEST(AdvisorMemo, InvalidatedDataIsANewKey) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  const Query q = Parse("R(X,Y), S(Y,Z)");
  const double before = advisor.EstimateLog2(q);
  EXPECT_EQ(advisor.EstimateLog2(q), before);
  EXPECT_EQ(advisor.metrics().memo_hits, 1u);

  Relation& r = *db.GetMutable("R");
  for (Value v = 0; v < 40; ++v) r.AddRow({v, 1});
  advisor.Invalidate("R");
  const double after = advisor.EstimateLog2(q);
  EXPECT_EQ(advisor.metrics().memo_hits, 1u);
  EXPECT_NE(after, before);
  CardinalityAdvisor fresh(db);
  EXPECT_EQ(after, fresh.EstimateLog2(q));
}

TEST(AdvisorMemo, HoldsEightEntriesPerStructure) {
  Catalog db = WideDb();
  const std::vector<Query> chains = WideChains(db);
  ASSERT_GE(chains.size(), 9u);
  CardinalityAdvisor advisor(db);
  for (const Query& q : chains) {
    const double got = advisor.EstimateLog2(q);
    CardinalityAdvisor fresh(db);
    EXPECT_NEAR(got, fresh.EstimateLog2(q), 1e-9) << q.ToString();
  }
  EXPECT_EQ(advisor.CompiledCacheSize(), 1u);
  EXPECT_EQ(advisor.MemoSize(), 8u);
  // The first chain was pushed out long ago; the last is still held.
  const AdvisorMetrics before = advisor.metrics();
  advisor.EstimateLog2(chains.front());
  EXPECT_EQ(advisor.metrics().memo_hits, before.memo_hits);
  advisor.EstimateLog2(chains.back());
  EXPECT_EQ(advisor.metrics().memo_hits, before.memo_hits + 1);
  EXPECT_EQ(advisor.MemoSize(), 8u);
}

TEST(AdvisorMemo, BatchReplaysEvictionsOfTheScalarSequence) {
  // More distinct inputs than the memo holds, then repeats of both evicted
  // and held ones, all in one structure group: the batch answers bitwise
  // what the scalar sequence answers and takes the same memo hits.
  Catalog db = WideDb();
  std::vector<Query> queries = WideChains(db);
  const size_t distinct = queries.size();
  for (size_t i = 0; i < distinct; i += 3) queries.push_back(queries[i]);
  for (size_t i = distinct - 1; i >= distinct - 4; --i) {
    queries.push_back(queries[i]);
  }
  CardinalityAdvisor scalar_advisor(db);
  CardinalityAdvisor batch_advisor(db);
  std::vector<double> expected;
  for (const Query& q : queries) {
    expected.push_back(scalar_advisor.EstimateLog2(q));
  }
  const std::vector<double> got = batch_advisor.EstimateLog2Batch(queries);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << i << ": " << queries[i].ToString();
  }
  const AdvisorMetrics s = scalar_advisor.metrics();
  const AdvisorMetrics b = batch_advisor.metrics();
  EXPECT_GT(s.memo_hits, 0u);
  EXPECT_LT(s.memo_hits, queries.size() - distinct);
  EXPECT_EQ(b.memo_hits, s.memo_hits);
  EXPECT_EQ(b.witness_hits, s.witness_hits);
  EXPECT_EQ(b.warm_resolves, s.warm_resolves);
  EXPECT_EQ(b.cold_solves, s.cold_solves);
  EXPECT_EQ(batch_advisor.MemoSize(), scalar_advisor.MemoSize());
}

AdvisorOptions OneIterationLps() {
  AdvisorOptions options;
  options.engine.simplex.max_iterations = 1;
  return options;
}

TEST(AdvisorMemo, FallbackIsNeverMemoized) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db, OneIterationLps());
  const Query q = Parse("R(X,Y), S(Y,Z), T(Z,X)");
  const double first = advisor.EstimateLog2(q);
  ASSERT_EQ(advisor.metrics().lp_fallbacks, 1u);
  EXPECT_EQ(advisor.MemoSize(), 0u);
  EXPECT_EQ(advisor.EstimateLog2(q), first);
  EXPECT_EQ(advisor.EstimateLog2Batch(std::vector<Query>{q})[0], first);
  const AdvisorMetrics m = advisor.metrics();
  EXPECT_EQ(m.memo_hits, 0u);
  EXPECT_EQ(m.lp_fallbacks, 3u);
  EXPECT_EQ(m.estimates, 3u);
  EXPECT_EQ(advisor.MemoSize(), 0u);
}

TEST(AdvisorFallback, FailedLpsAnswerWithASoundBound) {
  JobWorkloadOptions opt;
  opt.scale = 0.05;
  JobWorkload wl = GenerateJobWorkload(opt);
  CardinalityAdvisor failing(wl.catalog, OneIterationLps());
  CardinalityAdvisor unrestricted(wl.catalog);
  for (size_t i = 0; i < 5; ++i) {
    const Query& q = wl.queries[i];
    const double est = failing.EstimateLog2(q);
    const auto explanation = failing.Explain(q);
    EXPECT_TRUE(explanation.bound.fallback) << q.name();
    EXPECT_EQ(explanation.bound.log2_bound, est) << q.name();
    EXPECT_GE(est, unrestricted.EstimateLog2(q) - 1e-9) << q.name();
    const uint64_t truth = CountJoin(q, wl.catalog);
    if (truth > 0) {
      EXPECT_GE(est, std::log2(static_cast<double>(truth)) - 1e-6)
          << q.name();
    }
  }
  const AdvisorMetrics m = failing.metrics();
  EXPECT_EQ(m.lp_fallbacks, 10u);
  EXPECT_EQ(m.memo_hits, 0u);
}

TEST(Advisor, EstimateLinearSpace) {
  Catalog db = SmallDb();
  CardinalityAdvisor advisor(db);
  Query q = Parse("R(X,Y), S(Y,Z)");
  EXPECT_NEAR(std::log2(advisor.Estimate(q)), advisor.EstimateLog2(q), 1e-9);
}

}  // namespace
}  // namespace lpb
