#ifndef MACROBENCH_LOAD_H_
#define MACROBENCH_LOAD_H_

// Open-loop load: one thread walks a precomputed schedule and, at each due
// time, hands the request to a udsm AsyncStore on a ThreadPool (MultiGet,
// which AsyncStore lacks, goes to the same pool through RunAsync). Latency
// runs from the due time to completion, so a stall also charges the
// requests queued behind it; how late the generator itself ran is recorded
// per request.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "inputs.h"
#include "store/key_value.h"
#include "trace.h"

namespace macrobench {

// Every value read is checked against what the benchmark wrote.
class Checker {
 public:
  explicit Checker(uint32_t keys);

  // The generator calls this before submitting a Put.
  void NoteIssued(uint32_t key, uint32_t version) {
    issued_max_[key].store(version, std::memory_order_release);
  }
  uint32_t IssuedMax(uint32_t key) const {
    return issued_max_[key].load(std::memory_order_acquire);
  }

  // True when the read succeeded; NotFound and other errors are failures.
  // A value with a wrong key, checksum or unwritten version is a violation.
  bool CheckRead(uint32_t key, const dstore::StatusOr<dstore::ValuePtr>& r);

  void Violation(const std::string& what);
  uint64_t violations() const { return violations_.load(); }
  std::vector<std::string> messages() const;

 private:
  std::unique_ptr<std::atomic<uint32_t>[]> issued_max_;
  std::atomic<uint64_t> violations_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
};

struct PutRecord {
  uint32_t key;
  uint32_t version;
  int64_t issued;  // submit time
  int64_t done;
  bool acked;
};

struct PhaseResult {
  size_t attempted = 0;
  size_t failed = 0;
  size_t outstanding_at_end = 0;  // issued but unfinished at schedule end
  // Per op, in nanoseconds; failed ops are excluded from latency samples.
  std::vector<int64_t> latency[kOpTypes];
  std::vector<int64_t> offset[kOpTypes];  // due time from phase start
  std::vector<int64_t> all_latency;  // every op; failures as +infinity
  std::vector<int64_t> lag;          // submit - due
  std::vector<int64_t> pool_wait;    // due -> call start (traced only)
  std::vector<PutRecord> puts;
  // CPU time of the whole process over the phase, and of the generator
  // thread alone (which spins before due times).
  int64_t process_cpu_ns = 0;
  int64_t generator_cpu_ns = 0;
};

struct LoadTarget {
  std::shared_ptr<dstore::KeyValueStore> top;
  dstore::ThreadPool* pool = nullptr;
  Tracer* tracer = nullptr;  // set: each request records its start time
  uint64_t seed = 0;
  size_t value_min = 0, value_max = 0;
  Checker* checker = nullptr;
};

// Runs `stream` from now on its schedule and waits until every request
// finished.
PhaseResult RunPhase(const LoadTarget& target, const Stream& stream);

// CPU time consumed so far by the process or the calling thread.
int64_t ProcessCpuNanos();
int64_t ThreadCpuNanos();

// Value percentile (p in [0, 100]) of `v`, nearest rank; reorders `v`.
int64_t Percentile(std::vector<int64_t>* v, double p);

}  // namespace macrobench

#endif  // MACROBENCH_LOAD_H_
