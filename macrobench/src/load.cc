#include "load.h"

#include <time.h>

#include <algorithm>
#include <limits>
#include <mutex>
#include <thread>

#include "common/listenable_future.h"
#include "udsm/async_store.h"

namespace macrobench {

using dstore::StatusOr;
using dstore::ValuePtr;

Checker::Checker(uint32_t keys)
    : issued_max_(new std::atomic<uint32_t>[keys]) {
  for (uint32_t i = 0; i < keys; ++i) issued_max_[i].store(0);
}

bool Checker::CheckRead(uint32_t key, const StatusOr<ValuePtr>& r) {
  if (!r.ok()) return false;
  uint32_t version = 0;
  if (*r == nullptr || !ParseValue(**r, key, &version)) {
    Violation("corrupt value for " + KeyName(key));
  } else if (version > IssuedMax(key)) {
    Violation("read of unwritten version " + std::to_string(version) +
              " of " + KeyName(key));
  }
  return true;
}

void Checker::Violation(const std::string& what) {
  violations_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (messages_.size() < 8) messages_.push_back(what);
}

std::vector<std::string> Checker::messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

namespace {

int64_t CpuNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t ProcessCpuNanos() { return CpuNanos(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNanos() { return CpuNanos(CLOCK_THREAD_CPUTIME_ID); }

int64_t Percentile(std::vector<int64_t>* v, double p) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v->size()));
  rank = std::min(rank, v->size() - 1);
  std::nth_element(v->begin(), v->begin() + static_cast<long>(rank), v->end());
  return (*v)[rank];
}

namespace {

// Per-request bookkeeping shared with the completion listeners.
struct PhaseState {
  explicit PhaseState(size_t n)
      : due(n), submit(n), start(n, 0), done(n, 0), ok(n, 0) {}
  std::vector<int64_t> due;
  std::vector<int64_t> submit;
  std::vector<int64_t> start;  // traced: call start on the pool thread
  std::vector<int64_t> done;
  std::vector<uint8_t> ok;
  std::atomic<size_t> completed{0};

  void Complete(size_t i, bool success, int64_t done_ns) {
    done[i] = done_ns;
    ok[i] = success ? 1 : 0;
    completed.fetch_add(1, std::memory_order_release);
  }
};

// Marks the pool thread as serving request `index` while the call runs:
// records the call start and tags every span below with the request kind.
class RequestScope {
 public:
  RequestScope(PhaseState* state, size_t index, ReqKind kind) {
    state->start[index] = NowNanos();
    Tracer::request_kind = kind;
  }
  ~RequestScope() { Tracer::request_kind = kReqNone; }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;
};

// The store AsyncStore calls in a traced run: one per request, so the call
// start and request tag land on the pool thread that runs it.
class ScopedStore : public dstore::KeyValueStore {
 public:
  ScopedStore(std::shared_ptr<KeyValueStore> inner, PhaseState* state,
              size_t index)
      : inner_(std::move(inner)), state_(state), index_(index) {}
  dstore::Status Put(const std::string& key, ValuePtr value) override {
    RequestScope scope(state_, index_, kReqPut);
    return inner_->Put(key, std::move(value));
  }
  StatusOr<ValuePtr> Get(const std::string& key) override {
    RequestScope scope(state_, index_, kReqGet);
    return inner_->Get(key);
  }
  dstore::Status Delete(const std::string& key) override {
    return inner_->Delete(key);
  }
  StatusOr<bool> Contains(const std::string& key) override {
    return inner_->Contains(key);
  }
  StatusOr<std::vector<std::string>> ListKeys() override {
    return inner_->ListKeys();
  }
  StatusOr<size_t> Count() override { return inner_->Count(); }
  dstore::Status Clear() override { return inner_->Clear(); }
  std::string Name() const override { return inner_->Name(); }

 private:
  const std::shared_ptr<KeyValueStore> inner_;
  PhaseState* const state_;
  const size_t index_;
};

// Sleeps until shortly before the due time, then spins. Spinning keeps the
// issue time precise (latencies here are tens of microseconds) but takes a
// CPU from the program, so it is kept to the last stretch before each due
// time; with gaps shorter than that the generator spins throughout.
void WaitUntil(int64_t due) {
  constexpr int64_t kSpinNs = 500'000;
  for (;;) {
    const int64_t ahead = due - NowNanos();
    if (ahead <= 0) return;
    if (ahead > 2 * kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - kSpinNs));
    } else {
      __builtin_ia32_pause();
    }
  }
}

}  // namespace

PhaseResult RunPhase(const LoadTarget& target, const Stream& stream) {
  const size_t n = stream.ops.size();
  PhaseState state(n);
  dstore::AsyncStore async(target.top, target.pool);
  const int64_t process_cpu0 = ProcessCpuNanos();
  const int64_t generator_cpu0 = ThreadCpuNanos();
  const int64_t t0 = NowNanos() + 1'000'000;
  size_t issued = 0;
  for (size_t i = 0; i < n; ++i) {
    const Op& op = stream.ops[i];
    ValuePtr value;
    if (op.type == OpType::kPut) {
      value = dstore::MakeValue(MakeValueBytes(
          target.seed, op.key, op.version,
          ValueSizeFor(target.seed, op.key, target.value_min,
                       target.value_max)));
    }
    const int64_t due = t0 + stream.due_ns[i];
    state.due[i] = due;
    WaitUntil(due);
    state.submit[i] = NowNanos();
    ++issued;
    PhaseState* st = &state;
    Checker* checker = target.checker;
    const uint32_t key = op.key;
    switch (op.type) {
      case OpType::kGet: {
        auto future =
            target.tracer == nullptr
                ? async.GetAsync(KeyName(key))
                : dstore::AsyncStore(
                      std::make_shared<ScopedStore>(target.top, st, i),
                      target.pool)
                      .GetAsync(KeyName(key));
        future.AddListener([st, i, key, checker](const StatusOr<ValuePtr>& r) {
          const int64_t done = NowNanos();
          st->Complete(i, checker->CheckRead(key, r), done);
        });
        break;
      }
      case OpType::kPut: {
        checker->NoteIssued(key, op.version);
        auto future =
            target.tracer == nullptr
                ? async.PutAsync(KeyName(key), value)
                : dstore::AsyncStore(
                      std::make_shared<ScopedStore>(target.top, st, i),
                      target.pool)
                      .PutAsync(KeyName(key), value);
        future.AddListener([st, i](const dstore::Status& s) {
          st->Complete(i, s.ok(), NowNanos());
        });
        break;
      }
      case OpType::kMultiGet: {
        std::vector<uint32_t> ids(
            stream.batch_keys.begin() + op.batch,
            stream.batch_keys.begin() + op.batch + stream.batch_n);
        std::vector<std::string> keys;
        keys.reserve(ids.size());
        for (uint32_t id : ids) keys.push_back(KeyName(id));
        auto top = target.top;
        const bool traced = target.tracer != nullptr;
        auto future =
            dstore::RunAsync<std::vector<StatusOr<ValuePtr>>>(
                target.pool, [top, keys = std::move(keys), st, i, traced] {
                  if (!traced) return top->MultiGet(keys);
                  RequestScope scope(st, i, kReqMultiGet);
                  return top->MultiGet(keys);
                });
        future.AddListener(
            [st, i, ids = std::move(ids),
             checker](const std::vector<StatusOr<ValuePtr>>& results) {
              const int64_t done = NowNanos();
              bool ok = results.size() == ids.size();
              for (size_t k = 0; ok && k < ids.size(); ++k) {
                ok = checker->CheckRead(ids[k], results[k]);
              }
              st->Complete(i, ok, done);
            });
        break;
      }
    }
  }
  const int64_t schedule_end = t0 + (n == 0 ? 0 : stream.due_ns[n - 1]);
  WaitUntil(schedule_end);
  PhaseResult result;
  result.outstanding_at_end =
      issued - state.completed.load(std::memory_order_acquire);
  while (state.completed.load(std::memory_order_acquire) < issued) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  result.process_cpu_ns = ProcessCpuNanos() - process_cpu0;
  result.generator_cpu_ns = ThreadCpuNanos() - generator_cpu0;
  result.attempted = n;
  result.all_latency.reserve(n);
  result.lag.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Op& op = stream.ops[i];
    const int64_t latency = state.done[i] - state.due[i];
    result.lag.push_back(state.submit[i] - state.due[i]);
    if (target.tracer != nullptr) {
      result.pool_wait.push_back(state.start[i] - state.due[i]);
    }
    if (state.ok[i]) {
      result.latency[static_cast<int>(op.type)].push_back(latency);
      result.offset[static_cast<int>(op.type)].push_back(stream.due_ns[i]);
      result.all_latency.push_back(latency);
    } else {
      ++result.failed;
      result.all_latency.push_back(std::numeric_limits<int64_t>::max());
    }
    if (op.type == OpType::kPut) {
      result.puts.push_back({op.key, op.version, state.submit[i],
                             state.done[i], state.ok[i] != 0});
    }
  }
  return result;
}

}  // namespace macrobench
