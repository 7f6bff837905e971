#include "compress/huffman.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>

#include <gtest/gtest.h>

#include "common/random.h"

namespace dstore {
namespace {

double KraftSum(const std::vector<int>& lengths) {
  double sum = 0;
  for (int l : lengths) {
    if (l > 0) sum += std::pow(2.0, -l);
  }
  return sum;
}

TEST(HuffmanLengthsTest, AllZeroFrequencies) {
  auto lengths = BuildHuffmanCodeLengths({0, 0, 0}, 15);
  EXPECT_EQ(lengths, (std::vector<int>{0, 0, 0}));
}

TEST(HuffmanLengthsTest, SingleSymbolGetsLengthOne) {
  auto lengths = BuildHuffmanCodeLengths({0, 42, 0}, 15);
  EXPECT_EQ(lengths, (std::vector<int>{0, 1, 0}));
}

TEST(HuffmanLengthsTest, TwoEqualSymbols) {
  auto lengths = BuildHuffmanCodeLengths({5, 5}, 15);
  EXPECT_EQ(lengths, (std::vector<int>{1, 1}));
}

TEST(HuffmanLengthsTest, SkewedFrequenciesGiveShorterCodesToCommonSymbols) {
  auto lengths = BuildHuffmanCodeLengths({100, 10, 10, 1}, 15);
  EXPECT_LE(lengths[0], lengths[1]);
  EXPECT_LE(lengths[1], lengths[3]);
}

TEST(HuffmanLengthsTest, RespectsMaxBits) {
  // Fibonacci-like frequencies force deep trees without a limit.
  std::vector<uint64_t> freqs = {1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144};
  for (int max_bits : {4, 5, 7, 15}) {
    auto lengths = BuildHuffmanCodeLengths(freqs, max_bits);
    for (int l : lengths) EXPECT_LE(l, max_bits);
    EXPECT_LE(KraftSum(lengths), 1.0 + 1e-9);
  }
}

TEST(HuffmanLengthsTest, KraftEqualityForCompleteCodes) {
  // With >= 2 symbols, package-merge produces a complete code.
  auto lengths = BuildHuffmanCodeLengths({3, 9, 27, 81, 243}, 15);
  EXPECT_NEAR(KraftSum(lengths), 1.0, 1e-12);
}

TEST(HuffmanLengthsTest, RandomizedKraftAndOptimalityProperty) {
  Random rng(777);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 2 + rng.Uniform(60);
    std::vector<uint64_t> freqs(n);
    for (auto& f : freqs) f = rng.Uniform(1000);
    // Ensure at least two nonzero so a real code exists.
    freqs[0] = 1 + freqs[0];
    freqs[1] = 1 + freqs[1];
    auto lengths = BuildHuffmanCodeLengths(freqs, 15);
    EXPECT_LE(KraftSum(lengths), 1.0 + 1e-9);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(lengths[i] == 0, freqs[i] == 0);
    }
  }
}

// The original package-merge, kept as the oracle for the production one:
// every package carries the leaf symbols it contains, so a symbol's length
// is simply how many of the selected packages contain it. Quadratic in
// copies, but obviously right.
struct OraclePackage {
  uint64_t weight;
  std::vector<int> symbols;
};

bool OracleWeightLess(const OraclePackage& a, const OraclePackage& b) {
  return a.weight < b.weight;
}

std::vector<int> OracleCodeLengths(const std::vector<uint64_t>& freqs,
                                   int max_bits) {
  const size_t n = freqs.size();
  std::vector<int> lengths(n, 0);
  std::vector<OraclePackage> leaves;
  for (size_t i = 0; i < n; ++i) {
    if (freqs[i] > 0) leaves.push_back({freqs[i], {static_cast<int>(i)}});
  }
  if (leaves.empty()) return lengths;
  if (leaves.size() == 1) {
    lengths[leaves[0].symbols[0]] = 1;
    return lengths;
  }
  std::sort(leaves.begin(), leaves.end(), OracleWeightLess);

  std::vector<OraclePackage> current = leaves;
  for (int level = 1; level < max_bits; ++level) {
    std::vector<OraclePackage> paired;
    for (size_t i = 0; i + 1 < current.size(); i += 2) {
      OraclePackage merged;
      merged.weight = current[i].weight + current[i + 1].weight;
      merged.symbols = current[i].symbols;
      merged.symbols.insert(merged.symbols.end(),
                            current[i + 1].symbols.begin(),
                            current[i + 1].symbols.end());
      paired.push_back(std::move(merged));
    }
    std::vector<OraclePackage> next;
    std::merge(paired.begin(), paired.end(), leaves.begin(), leaves.end(),
               std::back_inserter(next), OracleWeightLess);
    current = std::move(next);
  }
  const size_t take = 2 * (leaves.size() - 1);
  for (size_t i = 0; i < take && i < current.size(); ++i) {
    for (int sym : current[i].symbols) ++lengths[sym];
  }
  return lengths;
}

// Frequency vectors of the shapes DEFLATE produces and the edge cases of
// the algorithm: many ties, zeros, one or two used symbols, and skews
// steep enough that the length limit binds.
std::vector<uint64_t> OracleFrequencies(Random* rng, size_t n, int shape) {
  std::vector<uint64_t> freqs(n, 0);
  switch (shape) {
    case 0:  // small counts: mostly ties and zeros
      for (auto& f : freqs) f = rng->Uniform(4);
      break;
    case 1:  // wide uniform counts
      for (auto& f : freqs) f = rng->Uniform(100000);
      break;
    case 2:  // geometric skew: forces the max_bits limit
      for (size_t i = 0; i < n; ++i) {
        freqs[i] = 1 + (uint64_t{1} << std::min<size_t>(40, rng->Uniform(41)));
      }
      break;
    case 3:  // every symbol equally frequent
      for (auto& f : freqs) f = 7;
      break;
    case 4:  // a single used symbol
      freqs[rng->Uniform(n)] = 1 + rng->Uniform(1000);
      break;
    default:  // Fibonacci-like, sparse
      for (size_t i = 0, a = 1, b = 1; i < n; ++i) {
        if (rng->Uniform(3) != 0) {
          freqs[i] = a;
          const size_t sum = a + b;
          a = b;
          b = sum;
        }
      }
      break;
  }
  return freqs;
}

TEST(HuffmanLengthsTest, MatchesPackageMergeOracle) {
  Random rng(20240612);
  int compared = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    const int max_bits = trial % 2 == 0 ? 15 : 7;
    // A 7-bit limit fits at most 128 used symbols (the code-length
    // alphabet has 19); the 15-bit limit covers the full litlen alphabet.
    const size_t max_n = max_bits == 7 ? 128 : 286;
    const size_t n = trial < 12 ? max_n : 1 + rng.Uniform(max_n);
    const auto freqs = OracleFrequencies(&rng, n, trial % 6);
    ASSERT_EQ(BuildHuffmanCodeLengths(freqs, max_bits),
              OracleCodeLengths(freqs, max_bits))
        << "trial " << trial << " n=" << n << " max_bits=" << max_bits;
    ++compared;
  }
  EXPECT_EQ(compared, 1200);
}

TEST(CanonicalCodesTest, MatchesRfc1951Example) {
  // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) -> codes
  // (010,011,100,101,110,00,1110,1111).
  std::vector<int> lengths = {3, 3, 3, 3, 3, 2, 4, 4};
  auto codes = BuildCanonicalCodes(lengths);
  EXPECT_EQ(codes[5], 0b00u);
  EXPECT_EQ(codes[0], 0b010u);
  EXPECT_EQ(codes[1], 0b011u);
  EXPECT_EQ(codes[2], 0b100u);
  EXPECT_EQ(codes[3], 0b101u);
  EXPECT_EQ(codes[4], 0b110u);
  EXPECT_EQ(codes[6], 0b1110u);
  EXPECT_EQ(codes[7], 0b1111u);
}

TEST(CanonicalCodesTest, CodesArePrefixFree) {
  std::vector<int> lengths = {2, 3, 3, 3, 4, 4, 4, 4, 2};
  auto codes = BuildCanonicalCodes(lengths);
  for (size_t i = 0; i < lengths.size(); ++i) {
    for (size_t j = 0; j < lengths.size(); ++j) {
      if (i == j || lengths[i] == 0 || lengths[j] == 0) continue;
      if (lengths[i] <= lengths[j]) {
        const uint32_t prefix = codes[j] >> (lengths[j] - lengths[i]);
        EXPECT_FALSE(prefix == codes[i] && i != j)
            << "code " << i << " is a prefix of code " << j;
      }
    }
  }
}

TEST(HuffmanDecoderTest, RejectsEmptyAlphabet) {
  EXPECT_FALSE(HuffmanDecoder::Build({0, 0, 0}).ok());
}

TEST(HuffmanDecoderTest, RejectsOversubscribedCode) {
  // Three codes of length 1 cannot exist.
  EXPECT_TRUE(
      HuffmanDecoder::Build({1, 1, 1}).status().IsCorruption());
}

TEST(HuffmanDecoderTest, RejectsOutOfRangeLength) {
  EXPECT_TRUE(HuffmanDecoder::Build({16}).status().IsCorruption());
}

TEST(HuffmanDecoderTest, EncodeDecodeRoundTrip) {
  Random rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t alphabet = 2 + rng.Uniform(100);
    std::vector<uint64_t> freqs(alphabet);
    for (auto& f : freqs) f = 1 + rng.Uniform(500);
    auto lengths = BuildHuffmanCodeLengths(freqs, 15);
    auto codes = BuildCanonicalCodes(lengths);
    auto decoder = HuffmanDecoder::Build(lengths);
    ASSERT_TRUE(decoder.ok());

    // Encode a random symbol stream and decode it back.
    std::vector<int> symbols(200);
    for (auto& s : symbols) s = static_cast<int>(rng.Uniform(alphabet));
    Bytes buf;
    BitWriter writer(&buf);
    for (int s : symbols) writer.WriteHuffmanCode(codes[s], lengths[s]);
    writer.Finish();

    BitReader reader(buf);
    for (int expected : symbols) {
      auto decoded = decoder->Decode(&reader);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(*decoded, expected);
    }
  }
}

TEST(HuffmanDecoderTest, GarbageInputReportsCorruption) {
  // A code with max length 2 cannot decode the all-ones stream forever.
  auto decoder = HuffmanDecoder::Build({1, 2, 0, 2});
  ASSERT_TRUE(decoder.ok());
  Bytes buf = {0xff};
  BitReader reader(buf);
  // Symbols decode until bits run out; eventually ReadBits fails.
  Status last = Status::OK();
  for (int i = 0; i < 20 && last.ok(); ++i) {
    last = decoder->Decode(&reader).status();
  }
  EXPECT_TRUE(last.IsCorruption());
}

TEST(HuffmanDecoderTest, DecodesCodesLongerThanTheLookupTable) {
  // Lengths 1..15 plus a second 15: a complete code whose deep symbols
  // take the path past the primary table.
  std::vector<int> lengths;
  for (int l = 1; l <= 15; ++l) lengths.push_back(l);
  lengths.push_back(15);
  const auto codes = BuildCanonicalCodes(lengths);
  auto decoder = HuffmanDecoder::Build(lengths);
  ASSERT_TRUE(decoder.ok());
  Bytes buf;
  BitWriter writer(&buf);
  for (int s = 15; s >= 0; --s) writer.WriteHuffmanCode(codes[s], lengths[s]);
  writer.Finish();
  BitReader reader(buf);
  for (int s = 15; s >= 0; --s) {
    auto decoded = decoder->Decode(&reader);
    ASSERT_TRUE(decoded.ok()) << "symbol " << s;
    EXPECT_EQ(*decoded, s);
  }
}

TEST(HuffmanDecoderTest, UnusedCodeSpaceIsAnError) {
  // One code of length 1 ("0") and one of length 12: most long prefixes
  // that start with "1" match nothing.
  auto decoder = HuffmanDecoder::Build({1, 12});
  ASSERT_TRUE(decoder.ok());
  Bytes ones = {0xff, 0xff};
  BitReader reader(ones);
  EXPECT_TRUE(decoder->Decode(&reader).status().IsCorruption());
}

TEST(HuffmanDecoderTest, LongCodeCutByEndOfInputIsCorruption) {
  std::vector<int> lengths;
  for (int l = 1; l <= 15; ++l) lengths.push_back(l);
  lengths.push_back(15);
  auto decoder = HuffmanDecoder::Build(lengths);
  ASSERT_TRUE(decoder.ok());
  // Twelve 1 bits start a 13+-bit code, then the input ends.
  Bytes buf = {0xff, 0xff};
  BitReader reader(buf);
  ASSERT_TRUE(reader.ReadBits(4).ok());
  EXPECT_TRUE(decoder->Decode(&reader).status().IsCorruption());
}

}  // namespace
}  // namespace dstore
