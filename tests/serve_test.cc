#include "src/serve/engine.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/deadline.h"
#include "src/core/fault_injection.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/graph/corrupt.h"
#include "src/graph/generators.h"
#include "src/models/model_factory.h"
#include "src/serve/cache.h"
#include "src/serve/forward.h"
#include "src/serve/registry.h"
#include "src/serve/snapshot.h"

namespace rgae {
namespace {

using serve::AdmissionStats;
using serve::ForwardEngine;
using serve::ModelSnapshot;
using serve::QueryResult;
using serve::QueryStatus;
using serve::ServeEngine;
using serve::ServeOptions;
using serve::ServeRegistry;

AttributedGraph TinyGraph(uint64_t seed = 1) {
  CitationLikeOptions o;
  o.num_nodes = 60;
  o.num_clusters = 3;
  o.feature_dim = 40;
  o.topic_words = 10;
  o.intra_degree = 4.0;
  o.inter_degree = 0.5;
  Rng rng(seed);
  return MakeCitationLike(o, rng);
}

// Larger and sparser than TinyGraph, so an edge flip's 2-hop neighborhood
// stays well short of the whole graph — the precision assertions below
// (partial invalidation, partial recompute) need that headroom.
AttributedGraph SparseGraph(uint64_t seed = 2) {
  CitationLikeOptions o;
  o.num_nodes = 200;
  o.num_clusters = 4;
  o.feature_dim = 40;
  o.topic_words = 10;
  o.intra_degree = 3.0;
  o.inter_degree = 0.1;
  Rng rng(seed);
  return MakeCitationLike(o, rng);
}

ModelOptions TinyModelOptions() {
  ModelOptions o;
  o.hidden_dim = 10;
  o.latent_dim = 5;
  o.seed = 5;
  return o;
}

std::unique_ptr<GaeModel> MakeModel(const std::string& name,
                                    const AttributedGraph& g) {
  auto model = CreateModel(name, g, TinyModelOptions());
  const CsrMatrix adj = g.Adjacency();
  TrainContext ctx;
  ctx.recon = MakeReconTarget(&adj);
  ctx.include_clustering = false;
  for (int i = 0; i < 3; ++i) model->TrainStep(ctx);
  if (model->has_clustering_head()) {
    Rng rng(3);
    model->InitClusteringHead(g.num_clusters(), rng);
  }
  return model;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "entry " << i;
  }
}

void ExpectRowEq(const std::vector<double>& got, const Matrix& want,
                 int row) {
  ASSERT_EQ(static_cast<int>(got.size()), want.cols()) << "row " << row;
  for (int c = 0; c < want.cols(); ++c) {
    EXPECT_EQ(got[static_cast<size_t>(c)], want(row, c))
        << "row " << row << " col " << c;
  }
}

// The snapshot a mutated serving graph would freeze to: same weights and
// head, the mutated graph's features and filter. FullForward over it is the
// from-scratch reference every incremental path must match bit for bit.
ModelSnapshot WithGraph(ModelSnapshot snapshot, const AttributedGraph& g) {
  snapshot.features = g.features();
  snapshot.filter = g.NormalizedAdjacency();
  return snapshot;
}

TEST(ForwardEngineTest, FullForwardMatchesEmbedForAllSixModels) {
  const AttributedGraph g = TinyGraph();
  for (const std::string& name : AllModelNames()) {
    SCOPED_TRACE(name);
    const auto model = MakeModel(name, g);
    const ModelSnapshot snapshot = model->ExportSnapshot();
    // Tape-free forward == training-path forward, exactly — no tolerance.
    ExpectBitIdentical(ForwardEngine::FullForward(snapshot), model->Embed());
    ForwardEngine engine(snapshot);
    ExpectBitIdentical(engine.Z(), model->Embed());
  }
}

TEST(ForwardEngineTest, EmbedRowsReturnsExactZRows) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("DGAE", g);
  ForwardEngine engine(model->ExportSnapshot());
  const Matrix z = ForwardEngine::FullForward(engine.snapshot());

  const std::vector<int> nodes = {3, 0, 59, 3, 17};  // Duplicates allowed.
  const Matrix rows = engine.EmbedRows(nodes);
  ASSERT_EQ(rows.rows(), static_cast<int>(nodes.size()));
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int c = 0; c < z.cols(); ++c) {
      EXPECT_EQ(rows(static_cast<int>(i), c), z(nodes[i], c));
    }
  }
  const Matrix p = engine.AssignRows(nodes);
  const Matrix p_full = SoftAssignRows(engine.snapshot(), z);
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int c = 0; c < p_full.cols(); ++c) {
      EXPECT_EQ(p(static_cast<int>(i), c), p_full(nodes[i], c));
    }
  }
}

TEST(ForwardEngineTest, UnchangedGraphIsANoop) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GAE", g);
  ForwardEngine engine(model->ExportSnapshot());
  EXPECT_TRUE(engine.UpdateGraph(g).empty());
  EXPECT_EQ(engine.last_update().xw0_rows, 0);
  EXPECT_EQ(engine.last_update().h_rows, 0);
  EXPECT_EQ(engine.last_update().z_rows, 0);
}

TEST(ForwardEngineTest, IncrementalUpdateMatchesFromScratchForward) {
  const AttributedGraph g = SparseGraph();
  const auto model = MakeModel("DGAE", g);
  ForwardEngine engine(model->ExportSnapshot());

  AttributedGraph current = g;
  Rng rng(11);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    AttributedGraph next = current;
    AddRandomEdges(&next, 2, rng);
    DropRandomEdges(&next, 1, rng);

    const std::vector<int> invalidated = engine.UpdateGraph(next);
    EXPECT_TRUE(std::is_sorted(invalidated.begin(), invalidated.end()));
    EXPECT_EQ(engine.last_update().z_rows,
              static_cast<int>(invalidated.size()));
    // An edge flip must not force a whole-graph recompute on this sparse
    // graph — the point of the 2-hop incremental path.
    EXPECT_LT(engine.last_update().h_rows, g.num_nodes());

    ExpectBitIdentical(engine.Z(),
                       ForwardEngine::FullForward(engine.snapshot()));
    ExpectBitIdentical(
        engine.Z(),
        ForwardEngine::FullForward(WithGraph(engine.snapshot(), next)));
    current = next;
  }
}

TEST(ForwardEngineTest, FeatureMutationsRecomputeExactly) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("VGAE", g);
  ForwardEngine engine(model->ExportSnapshot());

  AttributedGraph next = g;
  Rng rng(13);
  AddFeatureNoise(&next, 0.1, rng);  // Dirties every feature row.
  const std::vector<int> invalidated = engine.UpdateGraph(next);
  EXPECT_EQ(static_cast<int>(invalidated.size()), g.num_nodes());
  EXPECT_EQ(engine.last_update().xw0_rows, g.num_nodes());
  ExpectBitIdentical(engine.Z(),
                     ForwardEngine::FullForward(WithGraph(engine.snapshot(),
                                                          next)));
}

TEST(ServeEngineTest, AnswersMatchTheReferenceForward) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("DGAE", g);
  const ModelSnapshot snapshot = model->ExportSnapshot();
  const Matrix z = ForwardEngine::FullForward(snapshot);
  const Matrix p = SoftAssignRows(snapshot, z);

  ServeOptions options;
  options.num_workers = 2;
  options.cache_capacity = g.num_nodes();
  ServeEngine engine(model->ExportSnapshot(), options);
  ASSERT_TRUE(engine.has_head());

  for (int node = 0; node < engine.num_nodes(); ++node) {
    const serve::QueryResult r = engine.QueryBlocking(node);
    EXPECT_EQ(r.node, node);
    ExpectRowEq(r.embedding, z, node);
    ExpectRowEq(r.assignment, p, node);
  }
  // Every node is now cached: the second pass is all hits, same bits.
  for (int node = 0; node < engine.num_nodes(); ++node) {
    const serve::QueryResult r = engine.QueryBlocking(node);
    EXPECT_TRUE(r.cache_hit) << "node " << node;
    ExpectRowEq(r.embedding, z, node);
  }
  const serve::ServeStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 2 * g.num_nodes());
  EXPECT_EQ(stats.cache.hits, g.num_nodes());
  EXPECT_EQ(stats.cache.misses, g.num_nodes());
  EXPECT_EQ(stats.cache.evictions, 0);
}

TEST(ServeEngineTest, HeadlessSnapshotServesEmptyAssignments) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GAE", g);
  ServeEngine engine(model->ExportSnapshot());
  EXPECT_FALSE(engine.has_head());
  const serve::QueryResult r = engine.QueryBlocking(5);
  EXPECT_FALSE(r.embedding.empty());
  EXPECT_TRUE(r.assignment.empty());
}

TEST(ServeEngineTest, DisabledCacheStillAnswersCorrectly) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("DGAE", g);
  const Matrix z = ForwardEngine::FullForward(model->ExportSnapshot());

  ServeOptions options;
  options.cache_capacity = 0;
  ServeEngine engine(model->ExportSnapshot(), options);
  for (int pass = 0; pass < 2; ++pass) {
    for (int node = 0; node < engine.num_nodes(); ++node) {
      const serve::QueryResult r = engine.QueryBlocking(node);
      EXPECT_FALSE(r.cache_hit);
      ExpectRowEq(r.embedding, z, node);
    }
  }
  EXPECT_EQ(engine.stats().cache.hits, 0);
}

// Cache coherence: after a mutation, cached answers for untouched nodes are
// served as hits and remain correct; answers inside the invalidated 2-hop
// neighborhood are recomputed — nothing stale survives.
TEST(ServeEngineTest, MutationInvalidatesExactlyTheAffectedEntries) {
  const AttributedGraph g = SparseGraph();
  const auto model = MakeModel("DGAE", g);

  ServeOptions options;
  options.cache_capacity = g.num_nodes();
  ServeEngine engine(model->ExportSnapshot(), options);
  for (int node = 0; node < engine.num_nodes(); ++node) {
    engine.QueryBlocking(node);  // Fill the cache.
  }

  AttributedGraph mutated = engine.CurrentGraph();
  Rng rng(19);
  AddRandomEdges(&mutated, 1, rng);
  DropRandomEdges(&mutated, 1, rng);
  const std::vector<int> invalidated = engine.MutateGraph(mutated);
  ASSERT_FALSE(invalidated.empty());
  ASSERT_LT(static_cast<int>(invalidated.size()), g.num_nodes())
      << "mutation invalidated everything; the precision claim is vacuous";
  const std::set<int> dropped(invalidated.begin(), invalidated.end());

  const ModelSnapshot reference =
      WithGraph(model->ExportSnapshot(), mutated);
  const Matrix z = ForwardEngine::FullForward(reference);
  const Matrix p = SoftAssignRows(reference, z);
  for (int node = 0; node < engine.num_nodes(); ++node) {
    const serve::QueryResult r = engine.QueryBlocking(node);
    EXPECT_EQ(r.cache_hit, dropped.count(node) == 0) << "node " << node;
    ExpectRowEq(r.embedding, z, node);
    ExpectRowEq(r.assignment, p, node);
  }
  const serve::CacheCounters cache = engine.stats().cache;
  EXPECT_EQ(cache.invalidations, static_cast<int64_t>(dropped.size()));
}

// Concurrency smoke for tsan: issuers hammer the engine while the main
// thread applies edge mutations. Afterwards every answer must equal the
// from-scratch forward of the final graph.
TEST(ServeEngineTest, ConcurrentQueriesAndMutationsStayCoherent) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GMM-VGAE", g);

  ServeOptions options;
  options.num_workers = 3;
  options.max_batch = 8;
  options.cache_capacity = g.num_nodes() / 2;  // Force evictions too.
  ServeEngine engine(model->ExportSnapshot(), options);

  constexpr int kIssuers = 4;
  constexpr int kQueriesPerIssuer = 150;
  std::vector<std::thread> issuers;
  for (int t = 0; t < kIssuers; ++t) {
    issuers.emplace_back([&engine, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      for (int q = 0; q < kQueriesPerIssuer; ++q) {
        const serve::QueryResult r =
            engine.QueryBlocking(rng.UniformInt(engine.num_nodes()));
        ASSERT_FALSE(r.embedding.empty());
      }
    });
  }
  Rng mut_rng(7);
  for (int m = 0; m < 10; ++m) {
    AttributedGraph next = engine.CurrentGraph();
    AddRandomEdges(&next, 2, mut_rng);
    DropRandomEdges(&next, 1, mut_rng);
    engine.MutateGraph(next);
  }
  for (std::thread& t : issuers) t.join();

  const ModelSnapshot reference =
      WithGraph(model->ExportSnapshot(), engine.CurrentGraph());
  const Matrix z = ForwardEngine::FullForward(reference);
  const Matrix p = SoftAssignRows(reference, z);
  for (int node = 0; node < engine.num_nodes(); ++node) {
    const serve::QueryResult r = engine.QueryBlocking(node);
    ExpectRowEq(r.embedding, z, node);
    ExpectRowEq(r.assignment, p, node);
  }
  EXPECT_EQ(engine.stats().queries,
            kIssuers * kQueriesPerIssuer + g.num_nodes());
  EXPECT_GE(engine.stats().batches, 1);
}

TEST(TokenBucketTest, FiringSequenceIsAFunctionOfTheOfferedTimestamps) {
  serve::TokenBucket bucket(10.0, 2.0);  // 10 tokens/s, burst of 2.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(bucket.TryAcquire(t0));   // Burst token 1.
  EXPECT_TRUE(bucket.TryAcquire(t0));   // Burst token 2.
  EXPECT_FALSE(bucket.TryAcquire(t0));  // Empty.
  const auto t1 = t0 + std::chrono::milliseconds(100);  // Refills 1 token.
  EXPECT_TRUE(bucket.TryAcquire(t1));
  EXPECT_FALSE(bucket.TryAcquire(t1));
  const auto t2 = t1 + std::chrono::milliseconds(50);  // 0.5 tokens: short.
  EXPECT_FALSE(bucket.TryAcquire(t2));
  const auto t3 = t2 + std::chrono::milliseconds(50);  // Now a full token.
  EXPECT_TRUE(bucket.TryAcquire(t3));

  serve::TokenBucket unlimited(0.0, 0.0);
  EXPECT_TRUE(unlimited.unlimited());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(unlimited.TryAcquire(t0));
}

TEST(TokenBucketTest, ZeroCapacityClampsToASaneDefault) {
  // burst <= 0 falls back to max(1, rate): a "zero capacity" config can
  // never build a bucket that rejects everything forever.
  serve::TokenBucket bucket(10.0, 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(t0)) << "token " << i;
  }
  EXPECT_FALSE(bucket.TryAcquire(t0));

  // Sub-1 rates still get one token of headroom.
  serve::TokenBucket slow(0.5, 0.0);
  EXPECT_TRUE(slow.TryAcquire(t0));
  EXPECT_FALSE(slow.TryAcquire(t0));
}

TEST(TokenBucketTest, ZeroRefillRateMeansUnlimited) {
  // rate <= 0 is the documented "rate limiting off" switch — even with an
  // explicit burst, every acquire succeeds and no state is consulted.
  serve::TokenBucket bucket(0.0, 5.0);
  EXPECT_TRUE(bucket.unlimited());
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(bucket.TryAcquire(t0));
  serve::TokenBucket negative(-3.0, 5.0);
  EXPECT_TRUE(negative.unlimited());
  EXPECT_TRUE(negative.TryAcquire(t0));
}

TEST(TokenBucketTest, CallerClockRegressionNeverMintsNegativeTokens) {
  serve::TokenBucket bucket(10.0, 2.0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_FALSE(bucket.TryAcquire(t0));  // Empty at t0.
  // A caller clock that runs backwards must clamp: no negative refill that
  // drives tokens below zero, no refill bookkeeping moving backwards.
  const auto back = t0 - std::chrono::seconds(5);
  EXPECT_FALSE(bucket.TryAcquire(back));
  EXPECT_FALSE(bucket.TryAcquire(back));
  // Refill still accrues against the original (not regressed) timestamp:
  // +100ms from t0 is exactly one token, which a negative-token balance
  // would have swallowed.
  const auto t1 = t0 + std::chrono::milliseconds(100);
  EXPECT_TRUE(bucket.TryAcquire(t1));
  EXPECT_FALSE(bucket.TryAcquire(t1));
}

TEST(TokenBucketTest, BurstExactlyAtCapacity) {
  serve::TokenBucket bucket(10.0, 3.0);
  const auto t0 = std::chrono::steady_clock::now();
  // Exactly `burst` tokens are available cold — not one more.
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_TRUE(bucket.TryAcquire(t0));
  EXPECT_FALSE(bucket.TryAcquire(t0));
  // A long idle stretch refills to the cap, never past it.
  const auto t1 = t0 + std::chrono::hours(1);
  EXPECT_TRUE(bucket.TryAcquire(t1));
  EXPECT_TRUE(bucket.TryAcquire(t1));
  EXPECT_TRUE(bucket.TryAcquire(t1));
  EXPECT_FALSE(bucket.TryAcquire(t1));
}

// ---------------------------------------------------------------------------
// Stale side-store bounds (DESIGN.md §8.6): LRU eviction + counter, so a
// long mutation stream cannot grow the degraded-serving store without
// limit.

serve::CachedEntry EntryFor(double v) {
  serve::CachedEntry e;
  e.embedding = {v};
  return e;
}

TEST(EmbeddingCacheTest, StaleStoreEvictsLeastRecentlyUsedAndCountsIt) {
  serve::EmbeddingCache cache(2);
  cache.Put(1, EntryFor(1.0));
  cache.Put(2, EntryFor(2.0));
  cache.Invalidate({1});  // stale: [1]
  cache.Put(3, EntryFor(3.0));
  cache.Invalidate({2});  // stale: [2, 1]
  EXPECT_EQ(cache.stale_size(), 2);
  EXPECT_EQ(cache.counters().stale_evictions, 0);

  // A degraded probe refreshes the stale row's recency...
  serve::CachedEntry out;
  bool stale = false;
  ASSERT_TRUE(cache.PeekAny(1, &out, &stale));
  EXPECT_TRUE(stale);
  EXPECT_EQ(out.embedding[0], 1.0);

  // ...so the next stale insert evicts node 2 (now least recent), not 1.
  cache.Put(4, EntryFor(4.0));
  cache.Invalidate({3});  // stale: [3, 1] after evicting 2.
  EXPECT_EQ(cache.stale_size(), 2);
  EXPECT_EQ(cache.counters().stale_evictions, 1);
  EXPECT_FALSE(cache.PeekAny(2, &out, &stale));
  ASSERT_TRUE(cache.PeekAny(1, &out, &stale));
  EXPECT_TRUE(stale);
  ASSERT_TRUE(cache.PeekAny(3, &out, &stale));
  EXPECT_TRUE(stale);
}

TEST(EmbeddingCacheTest, LongMutationStreamKeepsTheStaleStoreBounded) {
  constexpr int kCapacity = 8;
  serve::EmbeddingCache cache(kCapacity);
  // Alternate Put/Invalidate far past capacity: the side-store must stay
  // bounded with every drop accounted.
  for (int i = 0; i < 100; ++i) {
    cache.Put(i, EntryFor(static_cast<double>(i)));
    cache.Invalidate({i});
  }
  EXPECT_LE(cache.stale_size(), kCapacity);
  const serve::CacheCounters counters = cache.counters();
  EXPECT_EQ(counters.stale_evictions, 100 - kCapacity);
  EXPECT_EQ(counters.invalidations, 100);
}

TEST(EmbeddingCacheTest, FreshPutSupersedesTheStaleCopyWithoutEviction) {
  serve::EmbeddingCache cache(4);
  cache.Put(1, EntryFor(1.0));
  cache.Invalidate({1});
  cache.Put(1, EntryFor(1.5));  // Recompute: drops the stale copy.
  EXPECT_EQ(cache.stale_size(), 0);
  EXPECT_EQ(cache.counters().stale_evictions, 0);  // Superseded, not evicted.
  serve::CachedEntry out;
  bool stale = true;
  ASSERT_TRUE(cache.PeekAny(1, &out, &stale));
  EXPECT_FALSE(stale);
  EXPECT_EQ(out.embedding[0], 1.5);
}

TEST(ServeFaultInjectorTest, FiresOnDeterministicTriggerOrdinals) {
  ServeFaultInjector injector({
      {ServeFault::Type::kWorkerStall, /*every_n=*/2, /*after=*/1,
       /*magnitude=*/5.0, /*once=*/false},
      {ServeFault::Type::kQueueBurst, /*every_n=*/1, /*after=*/0,
       /*magnitude=*/3.0, /*once=*/true},
      {ServeFault::Type::kSnapshotCorruptOnSwap, /*every_n=*/1, /*after=*/0,
       /*magnitude=*/0.0, /*once=*/true},
  });
  // Batches 1..5: the warm-up skips ordinal 1, then every 2nd fires.
  const double stalls[5] = {injector.OnBatch(), injector.OnBatch(),
                            injector.OnBatch(), injector.OnBatch(),
                            injector.OnBatch()};
  EXPECT_EQ(stalls[0], 0.0);
  EXPECT_EQ(stalls[1], 0.0);
  EXPECT_EQ(stalls[2], 5.0);
  EXPECT_EQ(stalls[3], 0.0);
  EXPECT_EQ(stalls[4], 5.0);
  // One-shot burst fires on the first offer only.
  EXPECT_EQ(injector.OnOffer(), 3);
  EXPECT_EQ(injector.OnOffer(), 0);
  // One-shot corruption fires on the first swap only.
  EXPECT_TRUE(injector.OnSwap());
  EXPECT_FALSE(injector.OnSwap());

  const ServeFaultCounts counts = injector.counts();
  EXPECT_EQ(counts.stalls, 2);
  EXPECT_EQ(counts.burst_requests, 3);
  EXPECT_EQ(counts.corrupted_swaps, 1);
  EXPECT_EQ(injector.log().size(), 4u);
}

// Overload: with the only worker stalled, offers past the queue bound are
// rejected immediately — the producer is never blocked — and every future
// still resolves with an accounted disposition.
TEST(ServeEngineTest, QueueFullOffersAreShedNotBlocked) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GAE", g);

  ServeFaultInjector faults({{ServeFault::Type::kWorkerStall, /*every_n=*/1,
                              /*after=*/0, /*magnitude=*/300.0,
                              /*once=*/true}});
  ServeOptions options;
  options.num_workers = 1;
  options.max_batch = 64;
  options.cache_capacity = 0;  // No cache: no degraded fallback possible.
  options.admission.queue_capacity = 4;
  options.admission.allow_degraded = false;
  options.faults = &faults;

  std::vector<std::future<QueryResult>> futures;
  ServeEngine engine(model->ExportSnapshot(), options);
  futures.push_back(engine.Query(0));  // Pulls the worker into the stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 1; i <= 7; ++i) futures.push_back(engine.Query(i));

  int served = 0, shed = 0;
  for (auto& f : futures) {
    const QueryResult r = f.get();
    if (r.ok()) {
      ++served;
      EXPECT_FALSE(r.embedding.empty());
    } else {
      ++shed;
      EXPECT_EQ(r.status, QueryStatus::kShedOverload);
      EXPECT_TRUE(r.embedding.empty());
    }
  }
  EXPECT_EQ(served + shed, 8);
  // At least 7 - capacity = 3 offers found the queue full (exactly 3 when
  // the stalled worker had already taken the first request).
  EXPECT_GE(shed, 3);
  const AdmissionStats stats = engine.stats().admission;
  EXPECT_EQ(stats.offered, 8);
  EXPECT_EQ(stats.shed_queue_full, shed);
  EXPECT_EQ(stats.settled(), stats.offered);
}

// Deadlines: an admitted request whose deadline expires before a worker
// reaches it is shed without executing — not served late.
TEST(ServeEngineTest, ExpiredDeadlinesAreShedBeforeExecution) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("DGAE", g);
  ServeOptions options;
  options.num_workers = 1;
  ServeEngine engine(model->ExportSnapshot(), options);

  constexpr int kDead = 16;
  std::vector<std::future<QueryResult>> doomed;
  for (int i = 0; i < kDead; ++i) {
    doomed.push_back(engine.Submit(i, Deadline::After(1e-9)));
  }
  for (auto& f : doomed) {
    const QueryResult r = f.get();
    EXPECT_EQ(r.status, QueryStatus::kShedDeadline);
    EXPECT_TRUE(r.embedding.empty());
    EXPECT_GE(r.serve_us, 0.0);
  }
  // A generous deadline serves normally through the same path.
  const QueryResult ok = engine.Submit(3, Deadline::After(60.0)).get();
  EXPECT_EQ(ok.status, QueryStatus::kOk);
  EXPECT_FALSE(ok.embedding.empty());

  const AdmissionStats stats = engine.stats().admission;
  EXPECT_EQ(stats.offered, kDead + 1);
  EXPECT_EQ(stats.shed_deadline, kDead);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.settled(), stats.offered);
}

// Degraded mode: once the token bucket is exhausted, queries are answered
// from the cache — including rows a mutation moved to the stale store —
// instead of being rejected, and the staleness is labeled.
TEST(ServeEngineTest, RateLimitedQueriesDegradeToCachedAndStaleRows) {
  const AttributedGraph g = SparseGraph();
  const auto model = MakeModel("DGAE", g);
  const Matrix z_before = ForwardEngine::FullForward(model->ExportSnapshot());

  ServeOptions options;
  options.cache_capacity = g.num_nodes();
  // Burst covers exactly one fresh pass over the graph; the refill rate is
  // negligible, so everything after that pass hits the degraded path.
  options.admission.rate_limit_qps = 1e-6;
  options.admission.rate_limit_burst = g.num_nodes();
  ServeEngine engine(model->ExportSnapshot(), options);

  for (int node = 0; node < engine.num_nodes(); ++node) {
    ASSERT_EQ(engine.QueryBlocking(node).status, QueryStatus::kOk);
  }
  AttributedGraph mutated = engine.CurrentGraph();
  Rng rng(23);
  AddRandomEdges(&mutated, 1, rng);
  const std::vector<int> invalidated = engine.MutateGraph(mutated);
  ASSERT_FALSE(invalidated.empty());
  const std::set<int> stale_nodes(invalidated.begin(), invalidated.end());

  for (int node = 0; node < engine.num_nodes(); ++node) {
    const QueryResult r = engine.QueryBlocking(node);
    EXPECT_EQ(r.status, QueryStatus::kDegraded) << "node " << node;
    EXPECT_TRUE(r.cache_hit);
    EXPECT_EQ(r.stale, stale_nodes.count(node) > 0) << "node " << node;
    // Degraded answers are the pre-mutation rows: bit-exact for untouched
    // nodes and the invalidation-time value for stale ones.
    ExpectRowEq(r.embedding, z_before, node);
  }
  const AdmissionStats stats = engine.stats().admission;
  EXPECT_EQ(stats.offered, 2 * g.num_nodes());
  EXPECT_EQ(stats.admitted, g.num_nodes());
  EXPECT_EQ(stats.degraded, g.num_nodes());
  EXPECT_EQ(stats.shed(), 0);
  // Degraded probes must not perturb the cache accounting that ties
  // hits + misses to admitted queries.
  const serve::CacheCounters cache = engine.stats().cache;
  EXPECT_EQ(cache.hits + cache.misses, stats.admitted);
}

TEST(ServeEngineTest, RateLimitRejectsOutrightWhenDegradedDisallowed) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GAE", g);
  ServeOptions options;
  options.cache_capacity = g.num_nodes();
  options.admission.rate_limit_qps = 1e-6;
  options.admission.rate_limit_burst = 5;
  options.admission.allow_degraded = false;
  ServeEngine engine(model->ExportSnapshot(), options);

  int served = 0, shed = 0;
  for (int i = 0; i < 10; ++i) {
    const QueryResult r = engine.QueryBlocking(i % 5);
    (r.ok() ? served : shed)++;
  }
  EXPECT_EQ(served, 5);
  EXPECT_EQ(shed, 5);
  EXPECT_EQ(engine.stats().admission.shed_rate_limited, 5);
}

// A queue-burst fault amplifies one offer into synthetic extras that run
// the full admission path and are fully accounted.
TEST(ServeEngineTest, QueueBurstFaultOffersAreAccounted) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GAE", g);
  ServeFaultInjector faults({{ServeFault::Type::kQueueBurst, /*every_n=*/1,
                              /*after=*/0, /*magnitude=*/2.0,
                              /*once=*/true}});
  ServeOptions options;
  options.faults = &faults;
  ServeEngine engine(model->ExportSnapshot(), options);

  EXPECT_TRUE(engine.QueryBlocking(7).ok());
  EXPECT_TRUE(engine.QueryBlocking(8).ok());  // No fault: 1 offer.
  EXPECT_EQ(faults.counts().burst_requests, 2);
  const AdmissionStats stats = engine.stats().admission;
  EXPECT_EQ(stats.offered, 4);  // 1 + 2 synthetic + 1.
  EXPECT_EQ(stats.settled(), 4);
  EXPECT_EQ(engine.stats().queries, 4);
}

// Shutdown under a requested global stop: the backlog is shed, not
// computed; every future resolves; teardown cannot deadlock.
TEST(ServeEngineTest, GlobalStopShedsTheBacklogAtShutdown) {
  struct StopGuard {
    ~StopGuard() { ClearGlobalStop(); }
  } guard;
  ClearGlobalStop();

  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GAE", g);
  ServeFaultInjector faults({{ServeFault::Type::kWorkerStall, /*every_n=*/1,
                              /*after=*/0, /*magnitude=*/200.0,
                              /*once=*/true}});
  ServeOptions options;
  options.num_workers = 1;
  options.max_batch = 4;  // The stalled first batch can't swallow the lot.
  options.cache_capacity = 0;
  options.faults = &faults;

  constexpr int kSubmitted = 30;
  std::vector<std::future<QueryResult>> futures;
  int64_t offered = 0;
  {
    ServeEngine engine(model->ExportSnapshot(), options);
    for (int i = 0; i < kSubmitted; ++i) {
      futures.push_back(engine.Query(i % engine.num_nodes()));
    }
    RequestGlobalStop();
    offered = engine.stats().admission.offered;
  }  // Destructor: backlog shed as kShedShutdown, workers joined.
  EXPECT_EQ(offered, kSubmitted);

  int served = 0, shed = 0;
  for (auto& f : futures) {
    const QueryResult r = f.get();
    if (r.status == QueryStatus::kShedShutdown) {
      EXPECT_TRUE(r.embedding.empty());
      ++shed;
    } else {
      ASSERT_EQ(r.status, QueryStatus::kOk);
      EXPECT_FALSE(r.embedding.empty());
      ++served;
    }
  }
  EXPECT_EQ(served + shed, kSubmitted);  // Zero lost requests.
  EXPECT_GE(shed, 1) << "the stalled backlog should have been shed";
}

// Hot swap under load: a swap mid-traffic never fails an in-flight query,
// and the registry serves the new generation coherently afterwards.
TEST(ServeRegistryTest, HotSwapUnderConcurrentQueriesAndMutations) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("DGAE", g);
  ServeOptions options;
  options.num_workers = 3;
  options.cache_capacity = g.num_nodes();
  ServeRegistry registry(model->ExportSnapshot(), options);

  constexpr int kIssuers = 4;
  constexpr int kQueriesPerIssuer = 200;
  std::vector<std::thread> issuers;
  for (int t = 0; t < kIssuers; ++t) {
    issuers.emplace_back([&registry, t] {
      Rng rng(300 + static_cast<uint64_t>(t));
      for (int q = 0; q < kQueriesPerIssuer; ++q) {
        // Pin the generation for one query, as serving clients do.
        auto engine = registry.engine();
        const QueryResult r =
            engine->QueryBlocking(rng.UniformInt(engine->num_nodes()));
        ASSERT_TRUE(r.ok()) << serve::QueryStatusName(r.status);
        ASSERT_FALSE(r.embedding.empty());
      }
    });
  }

  Rng mut_rng(31);
  for (int m = 0; m < 6; ++m) {
    AttributedGraph next = registry.CurrentGraph();
    AddRandomEdges(&next, 2, mut_rng);
    registry.MutateGraph(next);
    if (m == 2) {
      // Mid-run hot swap to a candidate frozen off the live generation.
      std::string error;
      ASSERT_TRUE(registry.Swap(registry.engine()->SnapshotCopy(), &error))
          << error;
    }
  }
  for (std::thread& t : issuers) t.join();

  const serve::RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.swaps, 1);
  EXPECT_EQ(stats.rejected_swaps, 0);
  EXPECT_EQ(stats.version, 2);
  EXPECT_EQ(stats.mutations, 6);

  const ModelSnapshot reference =
      WithGraph(model->ExportSnapshot(), registry.CurrentGraph());
  const Matrix z = ForwardEngine::FullForward(reference);
  auto engine = registry.engine();
  for (int node = 0; node < engine->num_nodes(); ++node) {
    ExpectRowEq(engine->QueryBlocking(node).embedding, z, node);
  }
}

// Regression (registry-aware invalidation): a mutation issued after the
// flip must land on the new generation — never invalidate rows in the
// outgoing engine's cache.
TEST(ServeRegistryTest, MutationsAfterTheFlipLandOnTheNewGeneration) {
  const AttributedGraph g = SparseGraph();
  const auto model = MakeModel("DGAE", g);
  ServeOptions options;
  options.cache_capacity = g.num_nodes();
  ServeRegistry registry(model->ExportSnapshot(), options);

  // Warm the boot generation's cache, then pin it across the swap.
  auto old_engine = registry.engine();
  for (int node = 0; node < old_engine->num_nodes(); ++node) {
    old_engine->QueryBlocking(node);
  }
  ASSERT_TRUE(registry.Swap(old_engine->SnapshotCopy()));
  ASSERT_NE(registry.engine(), old_engine);
  // Warm the new generation too, so its invalidations are observable.
  for (int node = 0; node < g.num_nodes(); ++node) {
    registry.engine()->QueryBlocking(node);
  }

  AttributedGraph mutated = registry.CurrentGraph();
  Rng rng(37);
  AddRandomEdges(&mutated, 1, rng);
  registry.MutateGraph(mutated);

  // The outgoing engine kept its cache; the new generation took the
  // invalidations and serves the mutated graph.
  EXPECT_EQ(old_engine->stats().cache.invalidations, 0);
  EXPECT_GT(registry.engine()->stats().cache.invalidations, 0);
  const Matrix z = ForwardEngine::FullForward(
      WithGraph(model->ExportSnapshot(), mutated));
  ExpectRowEq(registry.engine()->QueryBlocking(0).embedding, z, 0);
  // The pinned old generation still answers (its pre-mutation graph).
  EXPECT_TRUE(old_engine->QueryBlocking(0).ok());
}

// A corrupt candidate must be rejected by validation, leaving the serving
// generation untouched and still answering.
TEST(ServeRegistryTest, CorruptSnapshotSwapIsRejected) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("DGAE", g);
  ServeFaultInjector faults({{ServeFault::Type::kSnapshotCorruptOnSwap,
                              /*every_n=*/1, /*after=*/0, /*magnitude=*/0.0,
                              /*once=*/true}});
  ServeOptions options;
  options.faults = &faults;
  ServeRegistry registry(model->ExportSnapshot(), options);

  // First attempt: the one-shot fault corrupts the candidate; validation
  // must catch the non-finite weight and refuse the flip.
  std::string error;
  EXPECT_FALSE(registry.Swap(model->ExportSnapshot(), &error));
  EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
  EXPECT_EQ(faults.counts().corrupted_swaps, 1);
  EXPECT_EQ(registry.stats().rejected_swaps, 1);
  EXPECT_EQ(registry.stats().version, 1);
  EXPECT_TRUE(registry.engine()->QueryBlocking(0).ok());

  // Second attempt: the fault is consumed; the same candidate swaps in.
  EXPECT_TRUE(registry.Swap(model->ExportSnapshot(), &error)) << error;
  EXPECT_EQ(registry.stats().swaps, 1);
  EXPECT_EQ(registry.stats().version, 2);

  // An unreadable artifact is a rejected swap too, via the LoadSnapshot
  // contract.
  const std::string bad_path =
      ::testing::TempDir() + "/rgae_bad_snapshot.bin";
  { std::ofstream(bad_path) << "not a snapshot"; }
  EXPECT_FALSE(registry.SwapFromFile(bad_path, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(registry.stats().rejected_swaps, 2);
  EXPECT_EQ(registry.stats().version, 2);
}

TEST(ServeEngineTest, DestructorDrainsPendingQueries) {
  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GAE", g);
  std::vector<std::future<serve::QueryResult>> pending;
  {
    ServeOptions options;
    options.num_workers = 1;
    ServeEngine engine(model->ExportSnapshot(), options);
    pending.reserve(20);
    for (int i = 0; i < 20; ++i) pending.push_back(engine.Query(i));
  }
  // The engine shut down only after answering everything it accepted.
  for (auto& f : pending) {
    EXPECT_FALSE(f.get().embedding.empty());
  }
}

TEST(ServeEngineTest, WorkerPoolTraceWritesStayConsistent) {
  // Serve workers and issuer threads all write spans into the global
  // Profiler and TraceCollector concurrently; both must come out
  // consistent (every span closed, parents on the same thread, nothing
  // torn). This test is the tsan and lockcheck target for the obs/serve
  // seam, concurrent profiler scopes included.
  obs::MetricsRegistry::Global().Reset();
  obs::TraceCollector::Global().Clear();
  obs::Profiler::Global().Reset();
  obs::SetEnabled(true);
  obs::SetProfileEnabled(true);
  obs::SetTraceEnabled(true);

  const AttributedGraph g = TinyGraph();
  const auto model = MakeModel("GAE", g);
  {
    ServeOptions options;
    options.num_workers = 4;
    options.max_batch = 8;
    ServeEngine engine(model->ExportSnapshot(), options);
    constexpr int kIssuers = 3;
    constexpr int kQueriesPerIssuer = 120;
    std::vector<std::thread> issuers;
    for (int t = 0; t < kIssuers; ++t) {
      issuers.emplace_back([&engine, t] {
        Rng rng(500 + static_cast<uint64_t>(t));
        for (int q = 0; q < kQueriesPerIssuer; ++q) {
          const serve::QueryResult r =
              engine.QueryBlocking(rng.UniformInt(engine.num_nodes()));
          ASSERT_EQ(r.status, QueryStatus::kOk);
        }
      });
    }
    for (std::thread& t : issuers) t.join();
  }  // Engine (and its worker spans) fully shut down before the checks.

  const std::vector<obs::TraceEvent> events =
      obs::TraceCollector::Global().Snapshot();
  EXPECT_FALSE(events.empty());
  int64_t batch_spans = 0;
  for (const obs::TraceEvent& e : events) {
    EXPECT_GE(e.dur_us, 0) << e.name;  // Closed, never torn.
    if (e.parent >= 0) {
      ASSERT_LT(static_cast<size_t>(e.parent), events.size());
      EXPECT_EQ(events[static_cast<size_t>(e.parent)].tid, e.tid) << e.name;
    }
    if (e.name == "serve.batch") ++batch_spans;
  }
  EXPECT_GT(batch_spans, 0);
  // The profile tree counted every one of those spans, whichever worker
  // opened it.
  int64_t batch_calls = 0;
  for (const obs::ProfileNode& root : obs::Profiler::Global().Snapshot()) {
    if (root.name == "serve.batch") batch_calls += root.calls;
  }
  EXPECT_EQ(batch_calls, batch_spans);

  // The admission/engine counters surfaced through the registry
  // (offered = admitted here: nothing was shed in this drill).
  const auto* offered =
      obs::MetricsRegistry::Global().GetCounter("serve.offered");
  const auto* batches =
      obs::MetricsRegistry::Global().GetCounter("serve.batches");
  EXPECT_EQ(offered->value(), 3 * 120);
  EXPECT_GE(batches->value(), 1);

  obs::SetTraceEnabled(false);
  obs::SetProfileEnabled(false);
  obs::SetEnabled(false);
  obs::MetricsRegistry::Global().Reset();
  obs::TraceCollector::Global().Clear();
  obs::Profiler::Global().Reset();
}

}  // namespace
}  // namespace rgae
