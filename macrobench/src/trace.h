#ifndef MACROBENCH_TRACE_H_
#define MACROBENCH_TRACE_H_

// Bench-side spans around each layer's public calls. A TimedStore wraps a
// KeyValueStore and a TimedTransformer wraps a ValueTransformer; both
// forward every virtual unchanged (Name() included, so the program's metric
// labels do not move) and record one span per call.
//
// Self time is a span's duration minus the durations of its child spans on
// the same thread. A span with no same-thread parent that is not a request
// root (the dscl layer) ran on another thread: ShardedStore's scatter pool,
// a replicator, a server worker. It is counted as parallel/background time
// of its layer and never subtracted from the caller's self time.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dscl/transformer.h"
#include "store/key_value.h"

namespace macrobench {

enum Layer : uint8_t {
  kDscl,
  kCompress,
  kCrypto,
  kAdmit,    // AdmittingStore
  kBreaker,  // CircuitBreakerStore (reported under admit)
  kRetry,
  kShard,
  kReplica,
  kLsm,
  kCloud,
  kLayers
};

inline const char* LayerName(int layer) {
  static const char* const kNames[kLayers] = {
      "dscl",  "compress",    "crypto",  "admit",     "admit.breaker",
      "store.retry", "shard", "replica", "store.lsm", "store.cloud"};
  return kNames[layer];
}

enum SpanOp : uint8_t {
  kSpanGet,
  kSpanPut,
  kSpanMultiGet,
  kSpanMultiPut,
  kSpanGetIfChanged,
  kSpanOther,  // Delete, Contains, ListKeys, Count, Clear
  kSpanApply,
  kSpanReverse,
  kSpanOps
};

// Request kind of the pool task a span ran under (kReqNone off-request).
enum ReqKind : uint8_t { kReqGet, kReqPut, kReqMultiGet, kReqNone, kReqKinds };

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Agg {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> self_ns{0};
  std::atomic<uint64_t> total_ns{0};
  std::atomic<uint64_t> refused{0};  // Overloaded / TimedOut results
};

class Tracer {
 public:
  // Index: [layer][op][request kind][foreground].
  using Table = std::array<
      std::array<std::array<std::array<Agg, 2>, kReqKinds>, kSpanOps>,
      kLayers>;

  Tracer() : id_(NextId()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  struct Frame {
    int64_t start;
    int64_t child_ns;
  };
  struct ThreadState {
    std::vector<Frame> frames;
  };

  ThreadState* Local() {
    // Keyed by a process-unique id, not the address: a later Tracer may
    // reuse a destroyed one's storage.
    thread_local std::pair<uint64_t, ThreadState*> cached{0, nullptr};
    if (cached.first != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      states_.push_back(std::make_unique<ThreadState>());
      cached = {id_, states_.back().get()};
    }
    return cached.second;
  }

  void Record(uint8_t layer, uint8_t op, int64_t total, int64_t self,
              bool foreground, bool refused) {
    Agg& agg = table_[layer][op][request_kind][foreground ? 1 : 0];
    agg.count.fetch_add(1, std::memory_order_relaxed);
    agg.self_ns.fetch_add(static_cast<uint64_t>(self),
                          std::memory_order_relaxed);
    agg.total_ns.fetch_add(static_cast<uint64_t>(total),
                           std::memory_order_relaxed);
    if (refused) agg.refused.fetch_add(1, std::memory_order_relaxed);
  }

  const Table& table() const { return table_; }

  // Set by the pool task for the duration of one request.
  static inline thread_local uint8_t request_kind = kReqNone;

 private:
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  const uint64_t id_;
  Table table_;
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> states_;
};

// One span. Construct at layer entry; Finish with the call's status.
class Span {
 public:
  Span(Tracer* tracer, uint8_t layer, uint8_t op)
      : tracer_(tracer), ts_(tracer->Local()), layer_(layer), op_(op) {
    ts_->frames.push_back({NowNanos(), 0});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Finish(const dstore::Status& status) {
    const int64_t end = NowNanos();
    const Tracer::Frame frame = ts_->frames.back();
    ts_->frames.pop_back();
    const int64_t total = end - frame.start;
    const bool has_parent = !ts_->frames.empty();
    if (has_parent) ts_->frames.back().child_ns += total;
    const bool foreground = has_parent || layer_ == kDscl;
    tracer_->Record(layer_, op_, total, total - frame.child_ns, foreground,
                    status.IsOverloaded() || status.IsTimedOut());
  }

 private:
  Tracer* const tracer_;
  Tracer::ThreadState* const ts_;
  const uint8_t layer_;
  const uint8_t op_;
};

// Forwards every KeyValueStore virtual to `inner`, one span per call.
class TimedStore : public dstore::KeyValueStore {
 public:
  TimedStore(std::shared_ptr<dstore::KeyValueStore> inner, Tracer* tracer,
             Layer layer)
      : inner_(std::move(inner)), tracer_(tracer), layer_(layer) {}

  dstore::Status Put(const std::string& key, dstore::ValuePtr value) override {
    return Timed(kSpanPut, [&] { return inner_->Put(key, value); });
  }
  dstore::StatusOr<dstore::ValuePtr> Get(const std::string& key) override {
    return Timed(kSpanGet, [&] { return inner_->Get(key); });
  }
  dstore::Status Delete(const std::string& key) override {
    return Timed(kSpanOther, [&] { return inner_->Delete(key); });
  }
  dstore::StatusOr<bool> Contains(const std::string& key) override {
    return Timed(kSpanOther, [&] { return inner_->Contains(key); });
  }
  dstore::StatusOr<std::vector<std::string>> ListKeys() override {
    return Timed(kSpanOther, [&] { return inner_->ListKeys(); });
  }
  dstore::StatusOr<size_t> Count() override {
    return Timed(kSpanOther, [&] { return inner_->Count(); });
  }
  dstore::Status Clear() override {
    return Timed(kSpanOther, [&] { return inner_->Clear(); });
  }
  dstore::StatusOr<dstore::ConditionalGetResult> GetIfChanged(
      const std::string& key, const std::string& etag) override {
    return Timed(kSpanGetIfChanged,
                 [&] { return inner_->GetIfChanged(key, etag); });
  }
  std::vector<dstore::StatusOr<dstore::ValuePtr>> MultiGet(
      const std::vector<std::string>& keys) override {
    Span span(tracer_, layer_, kSpanMultiGet);
    calls_.fetch_add(1, std::memory_order_relaxed);
    auto out = inner_->MultiGet(keys);
    span.Finish(dstore::Status::OK());
    return out;
  }
  dstore::Status MultiPut(
      const std::vector<std::pair<std::string, dstore::ValuePtr>>& entries)
      override {
    return Timed(kSpanMultiPut, [&] { return inner_->MultiPut(entries); });
  }
  std::string Name() const override { return inner_->Name(); }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  template <typename Fn>
  auto Timed(uint8_t op, Fn&& fn) -> decltype(fn()) {
    Span span(tracer_, layer_, op);
    calls_.fetch_add(1, std::memory_order_relaxed);
    auto result = fn();
    if constexpr (std::is_same_v<decltype(result), dstore::Status>) {
      span.Finish(result);
    } else {
      span.Finish(result.status());
    }
    return result;
  }

  const std::shared_ptr<dstore::KeyValueStore> inner_;
  Tracer* const tracer_;
  const Layer layer_;
  std::atomic<uint64_t> calls_{0};
};

// Forwards both ValueTransformer directions, one span per call, and counts
// bytes in and out of Apply.
class TimedTransformer : public dstore::ValueTransformer {
 public:
  TimedTransformer(std::unique_ptr<dstore::ValueTransformer> inner,
                   Tracer* tracer, Layer layer)
      : inner_(std::move(inner)), tracer_(tracer), layer_(layer) {}

  dstore::StatusOr<dstore::Bytes> Apply(const dstore::Bytes& input) override {
    Span span(tracer_, layer_, kSpanApply);
    auto out = inner_->Apply(input);
    span.Finish(out.status());
    if (out.ok()) {
      apply_in_.fetch_add(input.size(), std::memory_order_relaxed);
      apply_out_.fetch_add(out->size(), std::memory_order_relaxed);
    }
    return out;
  }
  dstore::StatusOr<dstore::Bytes> Reverse(
      const dstore::Bytes& input) override {
    Span span(tracer_, layer_, kSpanReverse);
    auto out = inner_->Reverse(input);
    span.Finish(out.status());
    return out;
  }
  std::string name() const override { return inner_->name(); }

  uint64_t apply_in() const { return apply_in_.load(); }
  uint64_t apply_out() const { return apply_out_.load(); }

 private:
  const std::unique_ptr<dstore::ValueTransformer> inner_;
  Tracer* const tracer_;
  const Layer layer_;
  std::atomic<uint64_t> apply_in_{0};
  std::atomic<uint64_t> apply_out_{0};
};

}  // namespace macrobench

#endif  // MACROBENCH_TRACE_H_
