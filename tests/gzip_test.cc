#include "compress/gzip.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "compress/codec.h"

namespace dstore {
namespace {

TEST(GzipTest, RoundTripsText) {
  const Bytes input = ToBytes("gzip container round trip with some text "
                              "that repeats repeats repeats repeats");
  auto out = GzipDecompress(GzipCompress(input));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(GzipTest, RoundTripsEmpty) {
  auto out = GzipDecompress(GzipCompress({}));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(GzipTest, HeaderIsWellFormed) {
  const Bytes out = GzipCompress(ToBytes("x"));
  ASSERT_GE(out.size(), 18u);
  EXPECT_EQ(out[0], 0x1f);
  EXPECT_EQ(out[1], 0x8b);
  EXPECT_EQ(out[2], 8);  // deflate
  EXPECT_EQ(out[3], 0);  // no flags
}

TEST(GzipTest, TrailerEncodesSizeAndCrc) {
  const Bytes input = ToBytes("check the trailer fields");
  const Bytes out = GzipCompress(input);
  const uint8_t* trailer = out.data() + out.size() - 8;
  EXPECT_EQ(DecodeFixed32(trailer + 4), input.size());
}

TEST(GzipTest, CorruptBodyDetectedByCrc) {
  Random rng(5);
  const Bytes input = rng.CompressibleBytes(5000, 0.5);
  Bytes out = GzipCompress(input);
  // Flip a bit in the deflate body (not the header, not the trailer). Either
  // inflate fails structurally or the CRC catches it.
  out[12] ^= 0x10;
  EXPECT_FALSE(GzipDecompress(out).ok());
}

TEST(GzipTest, CorruptTrailerDetected) {
  Bytes out = GzipCompress(ToBytes("data"));
  out[out.size() - 1] ^= 0xff;  // ISIZE
  EXPECT_TRUE(GzipDecompress(out).status().IsCorruption());
  out[out.size() - 1] ^= 0xff;
  out[out.size() - 5] ^= 0xff;  // CRC
  EXPECT_TRUE(GzipDecompress(out).status().IsCorruption());
}

TEST(GzipTest, ForgedIsizeIsOnlyAHint) {
  // ISIZE pre-sizes the inflate buffer, but it is untrusted input: a forged
  // 4 GiB claim on a small stream must neither be allocated nor accepted.
  const Bytes input = ToBytes("a short value whose trailer lies about size");
  Bytes out = GzipCompress(input);
  for (size_t i = out.size() - 4; i < out.size(); ++i) out[i] = 0xff;
  EXPECT_TRUE(GzipDecompress(out).status().IsCorruption());
  EXPECT_TRUE(GzipDecompress(out, 1 << 20).status().IsCorruption());
}

TEST(GzipTest, RejectsBadMagic) {
  Bytes out = GzipCompress(ToBytes("data"));
  out[0] = 0x00;
  EXPECT_TRUE(GzipDecompress(out).status().IsCorruption());
}

TEST(GzipTest, RejectsUnknownMethod) {
  Bytes out = GzipCompress(ToBytes("data"));
  out[2] = 7;
  EXPECT_TRUE(GzipDecompress(out).status().IsNotSupported());
}

TEST(GzipTest, RejectsTooShortInput) {
  EXPECT_TRUE(GzipDecompress(Bytes(10, 0)).status().IsCorruption());
}

TEST(GzipTest, SkipsOptionalFnameField) {
  // Build a stream with FNAME set by splicing a name into our own output.
  const Bytes input = ToBytes("payload with fname header");
  Bytes out = GzipCompress(input);
  Bytes with_name(out.begin(), out.begin() + 10);
  with_name[3] = 0x08;  // FNAME
  const std::string name = "file.txt";
  with_name.insert(with_name.end(), name.begin(), name.end());
  with_name.push_back(0);
  with_name.insert(with_name.end(), out.begin() + 10, out.end());
  auto decoded = GzipDecompress(with_name);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, input);
}

TEST(GzipTest, RandomizedRoundTrip) {
  Random rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes input =
        rng.CompressibleBytes(rng.Uniform(30000), rng.NextDouble());
    auto out = GzipDecompress(GzipCompress(input));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, input);
  }
}

TEST(GzipCodecTest, ImplementsCodecInterface) {
  GzipCodec codec;
  EXPECT_EQ(codec.name(), "gzip");
  const Bytes input = ToBytes("codec interface data data data data");
  auto compressed = codec.Compress(input);
  ASSERT_TRUE(compressed.ok());
  auto decompressed = codec.Decompress(*compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, input);
}

TEST(DeflateCodecTest, RoundTrips) {
  DeflateCodec codec;
  const Bytes input = ToBytes("deflate codec path path path path");
  auto out = codec.Decompress(*codec.Compress(input));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(IdentityCodecTest, PassesThrough) {
  IdentityCodec codec;
  const Bytes input = ToBytes("untouched");
  EXPECT_EQ(*codec.Compress(input), input);
  EXPECT_EQ(*codec.Decompress(input), input);
}

TEST(GzipCodecTest, CompressionRatioTracksRedundancy) {
  Random rng(71);
  GzipCodec codec;
  const Bytes redundant = rng.CompressibleBytes(20000, 0.95);
  const Bytes random_data = rng.CompressibleBytes(20000, 0.0);
  const size_t small = codec.Compress(redundant)->size();
  const size_t large = codec.Compress(random_data)->size();
  EXPECT_LT(small, large / 2);
}

}  // namespace
}  // namespace dstore
