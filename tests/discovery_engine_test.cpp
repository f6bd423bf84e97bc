// Batch discovery (RunDiscoveryBatch): MateSearch fanned out over a thread
// pool must be bit-identical to the serial loop at any thread count.

#include "core/discovery_engine.h"

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/query_gen.h"
#include "workload/vocabulary.h"

namespace mate {
namespace {

struct Fixture {
  Corpus corpus;
  std::vector<QueryCase> queries;
  std::unique_ptr<InvertedIndex> index;
};

// A corpus with planted joins so the batch has nontrivial top-k lists,
// pruning activity, and row-filter traffic.
Fixture MakeFixture(size_t num_queries = 8) {
  Fixture f;
  Rng rng(7);
  Vocabulary vocab = Vocabulary::Generate(120, Vocabulary::Style::kWords, 11);
  for (size_t t = 0; t < 24; ++t) {
    Table table("t" + std::to_string(t));
    size_t cols = 3 + rng.Uniform(3);
    for (size_t c = 0; c < cols; ++c) table.AddColumn("c" + std::to_string(c));
    size_t rows = 4 + rng.Uniform(16);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::string> cells;
      for (size_t c = 0; c < cols; ++c) {
        cells.push_back(vocab.word(rng.Uniform(vocab.size())));
      }
      (void)table.AppendRow(std::move(cells));
    }
    f.corpus.AddTable(std::move(table));
  }
  QuerySetSpec spec;
  spec.num_queries = num_queries;
  spec.query_rows = 20;
  spec.query_columns = 4;
  spec.key_size = 2;
  spec.planted_tables = 6;
  spec.seed = 3;
  f.queries = GenerateQueries(&f.corpus, vocab, spec);
  auto index = BuildIndex(f.corpus, IndexBuildOptions{});
  EXPECT_TRUE(index.ok());
  f.index = std::move(*index);
  return f;
}

// MATE over every fixture query, fanned out on a `num_threads` pool.
BatchResult RunMateBatch(const Fixture& f, const DiscoveryOptions& options,
                         unsigned num_threads) {
  const MateSearch search(&f.corpus, f.index.get());
  ThreadPool pool(num_threads);
  return RunDiscoveryBatch(
      f.queries.size(),
      [&](size_t i) {
        const QueryCase& qc = f.queries[i];
        return search.Discover(qc.query, qc.key_columns, options);
      },
      &pool);
}

// Everything except the wall-clock fields must match the serial path.
void ExpectSameResult(const DiscoveryResult& serial,
                      const DiscoveryResult& batched, size_t query_idx) {
  ASSERT_EQ(serial.top_k.size(), batched.top_k.size()) << query_idx;
  for (size_t i = 0; i < serial.top_k.size(); ++i) {
    EXPECT_EQ(serial.top_k[i].table_id, batched.top_k[i].table_id)
        << query_idx;
    EXPECT_EQ(serial.top_k[i].joinability, batched.top_k[i].joinability)
        << query_idx;
    EXPECT_EQ(serial.top_k[i].best_mapping, batched.top_k[i].best_mapping)
        << query_idx;
  }
  EXPECT_EQ(serial.stats.pl_items_fetched, batched.stats.pl_items_fetched);
  EXPECT_EQ(serial.stats.candidate_tables, batched.stats.candidate_tables);
  EXPECT_EQ(serial.stats.tables_evaluated, batched.stats.tables_evaluated);
  EXPECT_EQ(serial.stats.rows_checked, batched.stats.rows_checked);
  EXPECT_EQ(serial.stats.rows_sent_to_verification,
            batched.stats.rows_sent_to_verification);
  EXPECT_EQ(serial.stats.rows_true_positive, batched.stats.rows_true_positive);
  EXPECT_EQ(serial.stats.value_comparisons, batched.stats.value_comparisons);
}

void CheckBatchMatchesSequential(unsigned num_threads) {
  Fixture f = MakeFixture();
  MateSearch serial_engine(&f.corpus, f.index.get());
  DiscoveryOptions options;
  options.k = 5;

  std::vector<DiscoveryResult> serial;
  for (const QueryCase& qc : f.queries) {
    serial.push_back(serial_engine.Discover(qc.query, qc.key_columns, options));
  }

  BatchResult batch = RunMateBatch(f, options, num_threads);

  ASSERT_EQ(batch.results.size(), serial.size());
  for (size_t q = 0; q < serial.size(); ++q) {
    ExpectSameResult(serial[q], batch.results[q], q);
  }

  // Aggregates are index-ordered sums, so they are deterministic too.
  uint64_t pl = 0, verified = 0, tp = 0;
  for (const DiscoveryResult& r : serial) {
    pl += r.stats.pl_items_fetched;
    verified += r.stats.rows_sent_to_verification;
    tp += r.stats.rows_true_positive;
  }
  EXPECT_EQ(batch.stats.queries, serial.size());
  EXPECT_EQ(batch.stats.pl_items_fetched, pl);
  EXPECT_EQ(batch.stats.rows_sent_to_verification, verified);
  EXPECT_EQ(batch.stats.rows_true_positive, tp);
  EXPECT_GT(batch.stats.wall_seconds, 0.0);
  EXPECT_GE(batch.stats.latency_max_s, batch.stats.latency_p50_s);
}

TEST(DiscoveryEngineTest, BatchMatchesSequentialOneThread) {
  CheckBatchMatchesSequential(1);
}

TEST(DiscoveryEngineTest, BatchMatchesSequentialFourThreads) {
  CheckBatchMatchesSequential(4);
}

TEST(DiscoveryEngineTest, BatchMatchesSequentialHardwareThreads) {
  CheckBatchMatchesSequential(0);  // 0 = hardware concurrency
}

TEST(DiscoveryEngineTest, EmptyBatch) {
  Fixture f = MakeFixture(1);
  f.queries.clear();
  BatchResult batch = RunMateBatch(f, DiscoveryOptions{}, 4);
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.stats.queries, 0u);
  EXPECT_EQ(batch.stats.QueriesPerSecond(), 0.0);  // no inf/NaN on 0 queries
  EXPECT_EQ(batch.stats.latency_p99_s, 0.0);
}

TEST(DiscoveryEngineTest, KZeroYieldsEmptyTopKPerQuery) {
  Fixture f = MakeFixture(4);
  DiscoveryOptions options;
  options.k = 0;
  BatchResult batch = RunMateBatch(f, options, 2);
  ASSERT_EQ(batch.results.size(), f.queries.size());
  for (const DiscoveryResult& r : batch.results) {
    EXPECT_TRUE(r.top_k.empty());
  }
  EXPECT_EQ(batch.stats.queries, f.queries.size());
}

TEST(DiscoveryEngineTest, GenericBatchKeepsResultsIndexAligned) {
  // Slot i must hold run_one(i)'s result regardless of which worker ran it.
  const size_t n = 64;
  ThreadPool pool(4);
  BatchResult batch = RunDiscoveryBatch(
      n,
      [](size_t i) {
        DiscoveryResult r;
        TableResult tr;
        tr.table_id = static_cast<TableId>(i);
        tr.joinability = static_cast<int64_t>(i);
        r.top_k.push_back(tr);
        r.stats.rows_checked = i;
        return r;
      },
      &pool);
  ASSERT_EQ(batch.results.size(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(batch.results[i].top_k.size(), 1u);
    EXPECT_EQ(batch.results[i].top_k[0].joinability,
              static_cast<int64_t>(i));
  }
  EXPECT_EQ(batch.stats.rows_checked, n * (n - 1) / 2);
}

TEST(DiscoveryEngineTest, RunnerSystemsAgreeAcrossThreadCounts) {
  // The five SystemKinds ride the same fan-out; spot-check the SCR shape
  // of MATE's options across pool widths.
  Fixture f = MakeFixture(6);
  DiscoveryOptions options;
  options.k = 3;
  options.use_row_filter = false;  // SCR shape
  BatchResult a = RunMateBatch(f, options, 1);
  BatchResult b = RunMateBatch(f, options, 4);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t q = 0; q < a.results.size(); ++q) {
    ExpectSameResult(a.results[q], b.results[q], q);
  }
}

}  // namespace
}  // namespace mate
