#include "util/char_frequency.h"

#include <algorithm>
#include <cctype>
#include <numeric>

namespace mate {

char AlphabetSymbol(int id) {
  if (id >= 0 && id < 26) return static_cast<char>('a' + id);
  if (id >= 26 && id < 36) return static_cast<char>('0' + (id - 26));
  return '*';
}

CharFrequencyTable::CharFrequencyTable(
    const std::array<double, kAlphabetSize>& freq)
    : freq_(freq) {
  std::array<int, kAlphabetSize> order;
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    if (freq_[a] != freq_[b]) return freq_[a] > freq_[b];
    return a < b;
  });
  for (int pos = 0; pos < kAlphabetSize; ++pos) rank_[order[pos]] = pos;

  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return Rarer(a, b); });
  for (int pos = 0; pos < kAlphabetSize; ++pos) {
    rarity_[order[pos]] = static_cast<uint8_t>(pos);
  }
}

const CharFrequencyTable& CharFrequencyTable::English() {
  // Letter percentages from standard English frequency tables; digits and
  // the catch-all bucket get flat mid-range mass typical of web tables.
  static const CharFrequencyTable* kTable = [] {
    std::array<double, kAlphabetSize> f{};
    constexpr double kLetters[26] = {
        8.17,  /* a */ 1.49, /* b */ 2.78, /* c */ 4.25,  /* d */
        12.70, /* e */ 2.23, /* f */ 2.02, /* g */ 6.09,  /* h */
        6.97,  /* i */ 0.15, /* j */ 0.77, /* k */ 4.03,  /* l */
        2.41,  /* m */ 6.75, /* n */ 7.51, /* o */ 1.93,  /* p */
        0.10,  /* q */ 5.99, /* r */ 6.33, /* s */ 9.06,  /* t */
        2.76,  /* u */ 0.98, /* v */ 2.36, /* w */ 0.15,  /* x */
        1.97,  /* y */ 0.07 /* z */};
    for (int i = 0; i < 26; ++i) f[i] = kLetters[i];
    for (int d = 0; d < 10; ++d) f[26 + d] = 1.20;  // digits
    f[kOtherCharId] = 2.50;                         // space & punctuation
    return new CharFrequencyTable(f);
  }();
  return *kTable;
}

CharFrequencyTable CharFrequencyTable::FromCounts(
    const std::array<uint64_t, kAlphabetSize>& counts) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  std::array<double, kAlphabetSize> f{};
  constexpr double kEpsilon = 1e-9;
  for (int i = 0; i < kAlphabetSize; ++i) {
    f[i] = total == 0
               ? kEpsilon
               : std::max(kEpsilon, static_cast<double>(counts[i]) /
                                        static_cast<double>(total));
  }
  return CharFrequencyTable(f);
}

void CharFrequencyTable::CountCharacters(
    std::string_view value, std::array<uint64_t, kAlphabetSize>* counts) {
  for (char c : value) ++(*counts)[NormalizeChar(c)];
}

}  // namespace mate
