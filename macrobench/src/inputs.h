#ifndef MACROBENCH_INPUTS_H_
#define MACROBENCH_INPUTS_H_

// Seeded inputs: keys, Zipf ranks, value bytes and the arrival schedule.
// Everything here is the benchmark's own code on purpose. The program's
// generators (udsm::ZipfianGenerator, WorkloadGenerator, common/random) can
// change in a later commit, and the benchmark must hand both commits the
// same bytes for the same seed.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace macrobench {

inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t s = a ^ (b * 0x9e3779b97f4a7c15ull);
  return SplitMix64(&s);
}

// xoshiro256**.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (auto& word : s_) word = SplitMix64(&seed);
  }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  // Uniform in [0, n), n > 0.
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  // Uniform in [0, 1).
  double Unit() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

// Order-sensitive 64-bit digest of a byte range.
inline uint64_t Checksum(const uint8_t* data, size_t n) {
  uint64_t h = 0xcbf29ce484222325ull ^ n;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, 8);
    h = (h ^ word) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  for (; i < n; ++i) h = (h ^ data[i]) * 0x100000001b3ull;
  return Mix(h, n);
}

// Zipf over ranks [0, n) with exponent s, by inverse CDF lookup.
class Zipf {
 public:
  Zipf(uint32_t n, double s) : cdf_(n) {
    double sum = 0;
    for (uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }
  uint32_t Sample(Rng* rng) const {
    const double u = rng->Unit();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

inline std::string KeyName(uint32_t id) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%07u", id);
  return buf;
}

// Parses KeyName output; returns false for anything else.
inline bool ParseKeyName(const std::string& key, uint32_t* id) {
  if (key.size() != 10 || key.compare(0, 3, "key") != 0) return false;
  uint32_t v = 0;
  for (size_t i = 3; i < key.size(); ++i) {
    if (key[i] < '0' || key[i] > '9') return false;
    v = v * 10 + static_cast<uint32_t>(key[i] - '0');
  }
  *id = v;
  return true;
}

// Value layout: "MBV1" | u32 key id | u32 version | u64 checksum(body) |
// body. The body alternates 32-byte random chunks with copies of the chunk
// before, so roughly half of it is redundant for gzip.
constexpr size_t kHeaderBytes = 4 + 4 + 4 + 8;

inline std::vector<uint8_t> MakeValueBytes(uint64_t seed, uint32_t key,
                                           uint32_t version, size_t size) {
  size = std::max(size, kHeaderBytes + 1);
  std::vector<uint8_t> out(size);
  Rng rng(Mix(Mix(seed, key), version + 0x5bd1e995ull));
  uint8_t* body = out.data() + kHeaderBytes;
  const size_t body_len = size - kHeaderBytes;
  constexpr size_t kChunk = 32;
  for (size_t off = 0; off < body_len; off += kChunk) {
    const size_t len = std::min(kChunk, body_len - off);
    if ((off / kChunk) % 2 == 1) {
      std::memcpy(body + off, body + off - kChunk, len);
    } else {
      for (size_t i = 0; i < len; i += 8) {
        const uint64_t word = rng.Next();
        std::memcpy(body + off + i, &word, std::min<size_t>(8, len - i));
      }
    }
  }
  const uint64_t sum = Checksum(body, body_len);
  std::memcpy(out.data(), "MBV1", 4);
  std::memcpy(out.data() + 4, &key, 4);
  std::memcpy(out.data() + 8, &version, 4);
  std::memcpy(out.data() + 12, &sum, 8);
  return out;
}

// Checks magic, key and body checksum; on success stores the version.
inline bool ParseValue(const std::vector<uint8_t>& value, uint32_t key,
                       uint32_t* version) {
  if (value.size() <= kHeaderBytes ||
      std::memcmp(value.data(), "MBV1", 4) != 0) {
    return false;
  }
  uint32_t got_key = 0;
  uint64_t sum = 0;
  std::memcpy(&got_key, value.data() + 4, 4);
  std::memcpy(version, value.data() + 8, 4);
  std::memcpy(&sum, value.data() + 12, 8);
  if (got_key != key) return false;
  return sum == Checksum(value.data() + kHeaderBytes,
                         value.size() - kHeaderBytes);
}

// Log-uniform size in [lo, hi], fixed per key for a seed.
inline size_t ValueSizeFor(uint64_t seed, uint32_t key, size_t lo, size_t hi) {
  if (lo >= hi) return lo;
  uint64_t s = Mix(seed ^ 0x51ed270b27a2f1c3ull, key);
  const double u = (SplitMix64(&s) >> 11) * 0x1.0p-53;
  const double v = std::exp(std::log(static_cast<double>(lo)) +
                            u * (std::log(static_cast<double>(hi)) -
                                 std::log(static_cast<double>(lo))));
  return std::clamp<size_t>(static_cast<size_t>(v), lo, hi);
}

enum class OpType : uint8_t { kGet = 0, kPut = 1, kMultiGet = 2 };
constexpr int kOpTypes = 3;
inline const char* OpName(OpType t) {
  switch (t) {
    case OpType::kGet: return "get";
    case OpType::kPut: return "put";
    case OpType::kMultiGet: return "multiget";
  }
  return "?";
}

struct Op {
  OpType type = OpType::kGet;
  uint32_t key = 0;      // Get/Put key
  uint32_t version = 0;  // Put version (per-key counter, 0 is the preload)
  uint32_t batch = 0;    // MultiGet: offset into Stream::batch_keys
};

// One phase's requests, in issue order, with their due offsets.
struct Stream {
  std::vector<Op> ops;
  std::vector<uint32_t> batch_keys;
  std::vector<int64_t> due_ns;  // offset from phase start
  uint32_t batch_n = 0;         // keys per MultiGet
};

struct Mix3 {
  double get = 1, put = 0, multiget = 0;
};

// Draws ops from one seeded generator that persists across phases, so the
// nominal phase and every ramp step are a pure function of the seed.
class OpSource {
 public:
  OpSource(uint64_t seed, uint32_t keys, double zipf_s, Mix3 mix,
           uint32_t batch_n)
      : rng_(Mix(seed, 0x6f70)),
        perm_rng_(Mix(seed, 0x7065726d)),
        keys_(keys),
        mix_(mix),
        batch_n_(batch_n),
        next_version_(keys, 1) {
    if (zipf_s > 0) zipf_ = std::make_unique<Zipf>(keys, zipf_s);
    // Hot ranks map to scattered ids, so popularity does not follow key
    // order (and therefore not ring position either).
    rank_to_key_.resize(keys);
    for (uint32_t i = 0; i < keys; ++i) rank_to_key_[i] = i;
    for (uint32_t i = keys; i > 1; --i) {
      std::swap(rank_to_key_[i - 1], rank_to_key_[perm_rng_.Below(i)]);
    }
  }

  // `count` ops evenly spaced at `rate` per second.
  Stream Draw(size_t count, double rate) {
    Stream s;
    s.batch_n = batch_n_;
    s.ops.reserve(count);
    s.due_ns.reserve(count);
    const double gap = 1e9 / rate;
    for (size_t i = 0; i < count; ++i) {
      Op op;
      const double u = rng_.Unit();
      if (u < mix_.get) {
        op.type = OpType::kGet;
        op.key = PickKey();
      } else if (u < mix_.get + mix_.put) {
        op.type = OpType::kPut;
        op.key = PickKey();
        op.version = next_version_[op.key]++;
      } else {
        op.type = OpType::kMultiGet;
        op.batch = static_cast<uint32_t>(s.batch_keys.size());
        // Distinct uniform keys.
        const size_t start = s.batch_keys.size();
        while (s.batch_keys.size() - start < batch_n_) {
          const uint32_t k = static_cast<uint32_t>(rng_.Below(keys_));
          if (std::find(s.batch_keys.begin() + start, s.batch_keys.end(),
                        k) == s.batch_keys.end()) {
            s.batch_keys.push_back(k);
          }
        }
      }
      s.ops.push_back(op);
      s.due_ns.push_back(static_cast<int64_t>(gap * static_cast<double>(i)));
    }
    return s;
  }

  // Key ids ordered from most to least popular.
  const std::vector<uint32_t>& rank_to_key() const { return rank_to_key_; }

 private:
  uint32_t PickKey() {
    if (zipf_ == nullptr) return static_cast<uint32_t>(rng_.Below(keys_));
    return rank_to_key_[zipf_->Sample(&rng_)];
  }

  Rng rng_;
  Rng perm_rng_;
  uint32_t keys_;
  Mix3 mix_;
  uint32_t batch_n_;
  std::unique_ptr<Zipf> zipf_;
  std::vector<uint32_t> rank_to_key_;
  std::vector<uint32_t> next_version_;
};

// Digest of a stream's requests and schedule (value bytes are a pure
// function of seed, key, version and size, so they are covered).
inline uint64_t Fingerprint(const Stream& s, uint64_t h) {
  for (size_t i = 0; i < s.ops.size(); ++i) {
    const Op& op = s.ops[i];
    h = Mix(h, (static_cast<uint64_t>(op.type) << 56) ^
                   (static_cast<uint64_t>(op.key) << 24) ^ op.version);
    h = Mix(h, static_cast<uint64_t>(s.due_ns[i]));
  }
  for (uint32_t k : s.batch_keys) h = Mix(h, k);
  return h;
}

}  // namespace macrobench

#endif  // MACROBENCH_INPUTS_H_
