// Microbenchmarks for the compression substrate: deflate levels (ablation
// on chain depth / lazy matching), redundancy sensitivity, inflate, the
// 1 KiB gzip round trip the DSCL value pipeline pays per Put/Get, and the
// length-limited Huffman build.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "compress/deflate.h"
#include "compress/gzip.h"
#include "compress/huffman.h"

namespace dstore {
namespace {

Bytes TestData(size_t n, double redundancy) {
  Random rng(21);
  return rng.CompressibleBytes(n, redundancy);
}

void BM_DeflateCompressLevels(benchmark::State& state) {
  const auto level = static_cast<DeflateLevel>(state.range(0));
  const Bytes data = TestData(100000, 0.6);
  size_t compressed_size = 0;
  for (auto _ : state) {
    const Bytes out = DeflateCompress(data, level);
    compressed_size = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 100000);
  state.counters["ratio"] =
      static_cast<double>(compressed_size) / static_cast<double>(data.size());
}
BENCHMARK(BM_DeflateCompressLevels)
    ->Arg(static_cast<int>(DeflateLevel::kStored))
    ->Arg(static_cast<int>(DeflateLevel::kFast))
    ->Arg(static_cast<int>(DeflateLevel::kDefault))
    ->Arg(static_cast<int>(DeflateLevel::kBest));

void BM_DeflateRedundancySweep(benchmark::State& state) {
  const double redundancy = static_cast<double>(state.range(0)) / 100.0;
  const Bytes data = TestData(100000, redundancy);
  size_t compressed_size = 0;
  for (auto _ : state) {
    const Bytes out = DeflateCompress(data);
    compressed_size = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["ratio"] =
      static_cast<double>(compressed_size) / static_cast<double>(data.size());
}
BENCHMARK(BM_DeflateRedundancySweep)->Arg(0)->Arg(50)->Arg(95);

void BM_Inflate(benchmark::State& state) {
  const Bytes data = TestData(static_cast<size_t>(state.range(0)), 0.6);
  const Bytes compressed = DeflateCompress(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeflateDecompress(compressed));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Inflate)->Arg(10000)->Arg(1000000);

void BM_GzipRoundTrip(benchmark::State& state) {
  const Bytes data = TestData(100000, 0.6);
  for (auto _ : state) {
    auto decompressed = GzipDecompress(GzipCompress(data));
    benchmark::DoNotOptimize(decompressed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 200000);
}
BENCHMARK(BM_GzipRoundTrip);

// A 1 KiB value shaped like the macro benchmark's: 32-byte random chunks,
// each followed by a copy of itself.
Bytes ChunkCopyValue1KiB() {
  Random rng(31);
  Bytes out = rng.RandomBytes(1024);
  for (size_t off = 32; off < out.size(); off += 64) {
    for (size_t i = off; i < off + 32; ++i) out[i] = out[i - 32];
  }
  return out;
}

void BM_Gzip1KiBCompress(benchmark::State& state) {
  const Bytes value = ChunkCopyValue1KiB();
  for (auto _ : state) {
    const Bytes out = GzipCompress(value);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Gzip1KiBCompress)->Unit(benchmark::kMicrosecond);

void BM_Gzip1KiBDecompress(benchmark::State& state) {
  const Bytes compressed = GzipCompress(ChunkCopyValue1KiB());
  for (auto _ : state) {
    auto out = GzipDecompress(compressed);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Gzip1KiBDecompress)->Unit(benchmark::kMicrosecond);

// The full litlen alphabet with skewed counts, as a dynamic block has.
void BM_HuffmanLengths286(benchmark::State& state) {
  Random rng(41);
  std::vector<uint64_t> freqs(286);
  for (auto& f : freqs) f = 1 + rng.Uniform(1 + rng.Uniform(400));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildHuffmanCodeLengths(freqs, 15));
  }
}
BENCHMARK(BM_HuffmanLengths286)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dstore

BENCHMARK_MAIN();
