// Exact verification must not touch the heap once its scratch is warm: this
// binary replaces the global operator new with a counting one and checks
// that a second verification pass over the same rows allocates nothing.
// It lives in its own test binary so the replacement affects no other test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/joinability.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mate {
namespace {

// Two tables of different widths with whitespace/case noise and repeated
// values, so the pass exercises trimming, folding, several mappings per
// row and a fixed column.
std::vector<Table> MakeTables() {
  std::vector<Table> tables;
  Table a("a");
  for (const char* name : {"f", "l", "c", "x", "y"}) a.AddColumn(name);
  (void)a.AppendRow({" Muhammad", "LEE ", "us", "lee", "pad"});
  (void)a.AppendRow({"Ansel", "Adams", "UK", "adams", "Ansel "});
  (void)a.AppendRow({"nobody", "Lee", "US", "x", "y"});
  tables.push_back(std::move(a));
  Table b("b");
  for (const char* name : {"p", "q", "r"}) b.AddColumn(name);
  (void)b.AppendRow({"lee", " muhammad ", "US"});
  (void)b.AppendRow({"adams", "ansel", "uk"});
  tables.push_back(std::move(b));
  return tables;
}

// One pass: every row against every combo, free and with a fixed column,
// then the per-table summary.
int64_t VerifyAll(const std::vector<Table>& tables,
                  const std::vector<std::vector<std::string>>& combos,
                  RowVerifier* verifier, MappingAccumulator* acc,
                  uint64_t* comparisons) {
  int64_t total = 0;
  for (const Table& table : tables) {
    acc->Clear();
    for (RowId r = 0; r < table.NumRows(); ++r) {
      verifier->LoadRow(table, r);
      for (uint32_t id = 0; id < combos.size(); ++id) {
        verifier->VerifyCombo(combos[id], id, kInvalidColumnId, 0, acc,
                              comparisons);
        verifier->VerifyCombo(combos[id], id, /*fixed_column=*/0, 1, acc,
                              comparisons);
      }
    }
    total += acc->MaxJoinability();
  }
  return total;
}

TEST(VerifyAllocTest, WarmedScratchAllocatesNothing) {
  const std::vector<Table> tables = MakeTables();
  const std::vector<std::vector<std::string>> combos = {
      {"muhammad", "lee", "us"},
      {"ansel", "adams", "uk"},
      {"lee", "lee", "us"}};
  RowVerifier verifier;
  MappingAccumulator acc;
  uint64_t warm_comparisons = 0;
  const int64_t warm = VerifyAll(tables, combos, &verifier, &acc,
                                 &warm_comparisons);
  ASSERT_GT(warm, 0);

  uint64_t comparisons = 0;
  g_allocations.store(0);
  g_counting.store(true);
  const int64_t second = VerifyAll(tables, combos, &verifier, &acc,
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
