#include "util/char_frequency.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

namespace mate {
namespace {

TEST(NormalizeCharTest, LettersFoldCase) {
  EXPECT_EQ(NormalizeChar('a'), 0);
  EXPECT_EQ(NormalizeChar('A'), 0);
  EXPECT_EQ(NormalizeChar('z'), 25);
  EXPECT_EQ(NormalizeChar('Z'), 25);
}

TEST(NormalizeCharTest, Digits) {
  EXPECT_EQ(NormalizeChar('0'), 26);
  EXPECT_EQ(NormalizeChar('9'), 35);
}

TEST(NormalizeCharTest, EverythingElseIsTheBucket) {
  for (char c : {' ', '-', '.', '_', '\t', '\xC3'}) {
    EXPECT_EQ(NormalizeChar(c), kOtherCharId) << static_cast<int>(c);
  }
}

TEST(NormalizeCharTest, AlphabetSymbolRoundTrip) {
  for (int id = 0; id < kAlphabetSize; ++id) {
    if (id == kOtherCharId) {
      EXPECT_EQ(AlphabetSymbol(id), '*');
    } else {
      EXPECT_EQ(NormalizeChar(AlphabetSymbol(id)), id);
    }
  }
}

TEST(CharFrequencyTest, EnglishRanksCommonLettersFirst) {
  const CharFrequencyTable& t = CharFrequencyTable::English();
  // 'e' is the most frequent letter; 'z' among the rarest.
  EXPECT_EQ(t.rank(NormalizeChar('e')), 0);
  EXPECT_GT(t.rank(NormalizeChar('z')), t.rank(NormalizeChar('e')));
  EXPECT_GT(t.rank(NormalizeChar('q')), t.rank(NormalizeChar('t')));
}

TEST(CharFrequencyTest, RarerPrefersLowFrequency) {
  const CharFrequencyTable& t = CharFrequencyTable::English();
  EXPECT_TRUE(t.Rarer(NormalizeChar('z'), NormalizeChar('e')));
  EXPECT_FALSE(t.Rarer(NormalizeChar('e'), NormalizeChar('z')));
}

TEST(CharFrequencyTest, RarerBreaksTiesLexicographically) {
  // All digits share one frequency in the English table; smaller id wins.
  const CharFrequencyTable& t = CharFrequencyTable::English();
  EXPECT_TRUE(t.Rarer(NormalizeChar('3'), NormalizeChar('7')));
  EXPECT_FALSE(t.Rarer(NormalizeChar('7'), NormalizeChar('3')));
}

TEST(CharFrequencyTest, CountCharacters) {
  std::array<uint64_t, kAlphabetSize> counts{};
  CharFrequencyTable::CountCharacters("ab1 a", &counts);
  EXPECT_EQ(counts[NormalizeChar('a')], 2u);
  EXPECT_EQ(counts[NormalizeChar('b')], 1u);
  EXPECT_EQ(counts[NormalizeChar('1')], 1u);
  EXPECT_EQ(counts[kOtherCharId], 1u);
}

TEST(CharFrequencyTest, FromCountsRanksByObservedFrequency) {
  std::array<uint64_t, kAlphabetSize> counts{};
  counts[NormalizeChar('x')] = 1000;  // x is common in this "corpus"
  counts[NormalizeChar('e')] = 1;     // e is rare
  CharFrequencyTable t = CharFrequencyTable::FromCounts(counts);
  EXPECT_EQ(t.rank(NormalizeChar('x')), 0);
  EXPECT_TRUE(t.Rarer(NormalizeChar('e'), NormalizeChar('x')));
}

TEST(CharFrequencyTest, FromCountsHandlesZeroTotal) {
  std::array<uint64_t, kAlphabetSize> counts{};
  CharFrequencyTable t = CharFrequencyTable::FromCounts(counts);
  // All symbols equally (epsilon) frequent; ranks are total via id order.
  EXPECT_TRUE(t.Rarer(0, 1));
  EXPECT_FALSE(t.Rarer(1, 0));
}

TEST(CharFrequencyTest, RanksAreAPermutation) {
  const CharFrequencyTable& t = CharFrequencyTable::English();
  std::array<bool, kAlphabetSize> seen{};
  for (int id = 0; id < kAlphabetSize; ++id) {
    int r = t.rank(id);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, kAlphabetSize);
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }
}

TEST(CharFrequencyTest, RarityOrderEqualsSortingByRarer) {
  // Tied counts: zero-count symbols share the epsilon floor, and a, e and
  // the digits share nonzero counts.
  std::array<uint64_t, kAlphabetSize> tied_counts{};
  tied_counts[NormalizeChar('a')] = 40;
  tied_counts[NormalizeChar('e')] = 40;
  for (char d = '0'; d <= '9'; ++d) tied_counts[NormalizeChar(d)] = 3;
  tied_counts[kOtherCharId] = 100;
  const CharFrequencyTable tied = CharFrequencyTable::FromCounts(tied_counts);
  const CharFrequencyTable all_zero = CharFrequencyTable::FromCounts({});
  for (const CharFrequencyTable* t :
       {&CharFrequencyTable::English(), &tied, &all_zero}) {
    std::array<int, kAlphabetSize> by_rarer;
    for (int id = 0; id < kAlphabetSize; ++id) by_rarer[id] = id;
    std::sort(by_rarer.begin(), by_rarer.end(),
              [t](int a, int b) { return t->Rarer(a, b); });
    for (int pos = 0; pos < kAlphabetSize; ++pos) {
      EXPECT_EQ(t->rarity(by_rarer[pos]), pos) << "symbol " << by_rarer[pos];
    }
  }
  // The English digits tie at 1.20: '0' is picked before '9', which is the
  // opposite of what reversing rank() would give.
  const CharFrequencyTable& english = CharFrequencyTable::English();
  EXPECT_LT(english.rarity(NormalizeChar('0')),
            english.rarity(NormalizeChar('9')));
  EXPECT_LT(english.rank(NormalizeChar('0')),
            english.rank(NormalizeChar('9')));
}

TEST(NormalizeCharTest, TableCoversEveryByte) {
  for (int b = 0; b < 256; ++b) {
    const int id = kCharIds[b];
    if (b >= 'a' && b <= 'z') {
      EXPECT_EQ(id, b - 'a');
    } else if (b >= 'A' && b <= 'Z') {
      EXPECT_EQ(id, b - 'A');
    } else if (b >= '0' && b <= '9') {
      EXPECT_EQ(id, 26 + (b - '0'));
    } else {
      EXPECT_EQ(id, kOtherCharId) << b;
    }
    EXPECT_EQ(NormalizeChar(static_cast<char>(b)), id);
  }
}

}  // namespace
}  // namespace mate
