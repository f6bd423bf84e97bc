#include "util/bitvector.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace mate {
namespace {

TEST(BitVectorTest, StartsZeroed) {
  BitVector v(128);
  EXPECT_EQ(v.num_bits(), 128u);
  EXPECT_EQ(v.num_words(), 2u);
  EXPECT_TRUE(v.IsZero());
  EXPECT_EQ(v.CountOnes(), 0u);
}

TEST(BitVectorTest, SetTestClearBit) {
  BitVector v(128);
  v.SetBit(0);
  v.SetBit(63);
  v.SetBit(64);
  v.SetBit(127);
  EXPECT_TRUE(v.TestBit(0));
  EXPECT_TRUE(v.TestBit(63));
  EXPECT_TRUE(v.TestBit(64));
  EXPECT_TRUE(v.TestBit(127));
  EXPECT_FALSE(v.TestBit(1));
  EXPECT_EQ(v.CountOnes(), 4u);
  v.ClearBit(63);
  EXPECT_FALSE(v.TestBit(63));
  EXPECT_EQ(v.CountOnes(), 3u);
}

TEST(BitVectorTest, ResizeClearsContent) {
  BitVector v(64);
  v.SetBit(5);
  v.Resize(128);
  EXPECT_TRUE(v.IsZero());
  EXPECT_EQ(v.num_bits(), 128u);
}

TEST(BitVectorTest, OrAndXor) {
  BitVector a(128), b(128);
  a.SetBit(1);
  a.SetBit(70);
  b.SetBit(2);
  b.SetBit(70);
  BitVector or_ab = a;
  or_ab.OrWith(b);
  EXPECT_TRUE(or_ab.TestBit(1));
  EXPECT_TRUE(or_ab.TestBit(2));
  EXPECT_TRUE(or_ab.TestBit(70));
  EXPECT_EQ(or_ab.CountOnes(), 3u);

  BitVector and_ab = a;
  and_ab.AndWith(b);
  EXPECT_EQ(and_ab.CountOnes(), 1u);
  EXPECT_TRUE(and_ab.TestBit(70));

  BitVector xor_ab = a;
  xor_ab.XorWith(b);
  EXPECT_EQ(xor_ab.CountOnes(), 2u);
  EXPECT_FALSE(xor_ab.TestBit(70));
}

TEST(BitVectorTest, SubsetSemantics) {
  BitVector small(128), big(128);
  small.SetBit(3);
  small.SetBit(100);
  big.SetBit(3);
  big.SetBit(100);
  big.SetBit(50);
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.IsSubsetOf(small));
  BitVector empty(128);
  EXPECT_TRUE(empty.IsSubsetOf(small));
  EXPECT_FALSE(small.IsSubsetOf(empty));
}

TEST(BitVectorTest, SubsetIsTheSuperKeyMaskEquation) {
  // (q | sk) == sk  <=>  q.IsSubsetOf(sk): the §6.3 membership test.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    BitVector q(128), sk(128);
    for (int i = 0; i < 10; ++i) sk.SetBit(rng.Uniform(128));
    for (int i = 0; i < 4; ++i) q.SetBit(rng.Uniform(128));
    BitVector or_result = q;
    or_result.OrWith(sk);
    EXPECT_EQ(or_result == sk, q.IsSubsetOf(sk));
  }
}

TEST(BitVectorTest, BinaryStringRoundTrip) {
  Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    BitVector v(128);
    for (int i = 0; i < 12; ++i) v.SetBit(rng.Uniform(128));
    auto parsed = BitVector::FromBinaryString(v.ToBinaryString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, v);
  }
}

TEST(BitVectorTest, FromBinaryStringRejectsJunk) {
  EXPECT_FALSE(BitVector::FromBinaryString("01x0").ok());
  EXPECT_FALSE(BitVector::FromBinaryString(std::string(600, '0')).ok());
}

TEST(BitVectorTest, SerializationRoundTrip) {
  Rng rng(23);
  for (size_t bits : {64u, 128u, 256u, 512u}) {
    BitVector v(bits);
    for (int i = 0; i < 20; ++i) v.SetBit(rng.Uniform(bits));
    std::string buffer;
    v.AppendToString(&buffer);
    std::string_view cursor = buffer;
    auto parsed = BitVector::ParseFrom(&cursor);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, v);
    EXPECT_TRUE(cursor.empty());
  }
}

TEST(BitVectorTest, ParseRejectsTruncation) {
  BitVector v(128);
  v.SetBit(5);
  std::string buffer;
  v.AppendToString(&buffer);
  std::string_view cursor = std::string_view(buffer).substr(0, 4);
  EXPECT_FALSE(BitVector::ParseFrom(&cursor).ok());
}

TEST(BitVectorTest, HexString) {
  BitVector v(64);
  v.SetBit(0);
  v.SetBit(4);
  EXPECT_EQ(v.ToHexString(), "0000000000000011");
}

TEST(BitVectorTest, NonWordMultipleWidthKeepsTailZero) {
  BitVector v(100);
  v.SetBit(99);
  EXPECT_EQ(v.CountOnes(), 1u);
  v.set_word(1, ~uint64_t{0});
  // Word 1 covers bits 64..99 once the tail is masked: 36 bits.
  EXPECT_EQ(v.CountOnes(), 36u);
}

}  // namespace
}  // namespace mate
