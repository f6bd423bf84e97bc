// Exact verification must not touch the heap once its scratch is warm: this
// binary replaces the global operator new with a counting one and checks
// that a second verification pass over the same rows allocates nothing.
// It lives in its own test binary so the replacement affects no other test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/joinability.h"
#include "index/index_builder.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedMalloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// Every form the library may call, nothrow ones included (std::stable_sort
// takes its buffer with nothrow new), so no allocation escapes the count
// and every free matches its malloc.
void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mate {
namespace {

// Two tables of different widths with whitespace/case noise and repeated
// values, so the pass exercises several mappings per row and a fixed column.
Corpus MakeCorpus() {
  Corpus corpus;
  Table a("a");
  for (const char* name : {"f", "l", "c", "x", "y"}) a.AddColumn(name);
  (void)a.AppendRow({" Muhammad", "LEE ", "us", "lee", "pad"});
  (void)a.AppendRow({"Ansel", "Adams", "UK", "adams", "Ansel "});
  (void)a.AppendRow({"nobody", "Lee", "US", "x", "y"});
  corpus.AddTable(std::move(a));
  Table b("b");
  for (const char* name : {"p", "q", "r"}) b.AddColumn(name);
  (void)b.AppendRow({"lee", " muhammad ", "US"});
  (void)b.AppendRow({"adams", "ansel", "uk"});
  corpus.AddTable(std::move(b));
  return corpus;
}

// One pass: every row against every combo, free and — as the executor does
// — with position 1 fixed to each column its posting list names in the row,
// then the per-table summary. `lists` holds each combo's posting lists,
// combo-major, resolved before the pass.
int64_t VerifyAll(const Corpus& corpus,
                  const std::vector<const PostingList*>& lists, size_t m,
                  RowVerifier* verifier, MappingAccumulator* acc,
                  uint64_t* comparisons) {
  const size_t num_combos = lists.size() / m;
  int64_t total = 0;
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    const Table& table = corpus.table(t);
    acc->Clear();
    for (RowId r = 0; r < table.NumRows(); ++r) {
      for (uint32_t id = 0; id < num_combos; ++id) {
        const std::span<const PostingList* const> combo =
            std::span(lists).subspan(id * m, m);
        verifier->VerifyCombo(combo, id, t, r, table.NumColumns(),
                              kInvalidColumnId, 0, acc, comparisons);
        if (combo[1] == nullptr) continue;
        for (const PostingEntry& e : *combo[1]) {
          if (e.table_id != t || e.row_id != r) continue;
          verifier->VerifyCombo(combo, id, t, r, table.NumColumns(),
                                e.column_id, 1, acc, comparisons);
        }
      }
    }
    total += acc->MaxJoinability();
  }
  return total;
}

TEST(VerifyAllocTest, WarmedScratchAllocatesNothing) {
  const Corpus corpus = MakeCorpus();
  auto index = BuildIndex(corpus, IndexBuildOptions{});
  ASSERT_TRUE(index.ok());
  const std::vector<std::vector<std::string>> combos = {
      {"muhammad", "lee", "us"},
      {"ansel", "adams", "uk"},
      {"lee", "lee", "us"}};
  std::vector<const PostingList*> lists;
  for (const auto& combo : combos) {
    for (const std::string& v : combo) lists.push_back((*index)->Lookup(v));
  }
  const size_t m = combos[0].size();
  RowVerifier verifier;
  MappingAccumulator acc;
  uint64_t warm_comparisons = 0;
  const int64_t warm = VerifyAll(corpus, lists, m, &verifier, &acc,
                                 &warm_comparisons);
  ASSERT_GT(warm, 0);

  uint64_t comparisons = 0;
  g_allocations.store(0);
  g_counting.store(true);
  const int64_t second = VerifyAll(corpus, lists, m, &verifier, &acc,
                                   &comparisons);
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(second, warm);
  EXPECT_EQ(comparisons, warm_comparisons);
}

TEST(VerifyAllocTest, CounterSeesAllocations) {
  // Guards the test above against a replacement that is never called.
  g_allocations.store(0);
  g_counting.store(true);
  static std::atomic<std::vector<int>*> escaped{nullptr};
  escaped.store(new std::vector<int>(100));  // escapes: cannot be elided
  g_counting.store(false);
  delete escaped.exchange(nullptr);
  EXPECT_GE(g_allocations.load(), 2u);
}

}  // namespace
}  // namespace mate
