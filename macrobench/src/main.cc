// Open-loop macro benchmark over the composed client stack. One invocation
// runs one workload on one deployment and prints a JSON object as its last
// line; macrobench/run.py builds this binary and turns that object into the
// benchmark's result line. See macrobench/README.md.

#include <malloc.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "inputs.h"
#include "load.h"
#include "obs/metrics.h"
#include "stack.h"
#include "trace.h"

namespace macrobench {
namespace {

namespace fs = std::filesystem;
using dstore::ValuePtr;

// ---------------------------------------------------------------- options

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; i += 2) {
      std::string name = argv[i];
      if (name.rfind("--", 0) != 0) {
        bad_ = "unexpected argument " + name;
        return;
      }
      values_[name.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0) bad_ = "arguments come in --name value pairs";
  }
  const std::string& bad() const { return bad_; }
  std::string Str(const std::string& name) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      if (bad_.empty()) bad_ = "missing --" + name;
      return "";
    }
    return it->second;
  }
  double Num(const std::string& name) {
    const std::string s = Str(name);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || end == nullptr || *end != '\0') {
      if (bad_.empty()) bad_ = "--" + name + " needs a number, got '" + s + "'";
      return 0;
    }
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
  std::string bad_;
};

// Settings every workload shares; workloads.json holds what differs.
constexpr size_t kCacheBytes = 16u << 20;  // DSCL plaintext cache
constexpr uint32_t kBatch = 16;            // keys per MultiGet
constexpr int kSetups = 3;                 // per untraced run; setup_s is the median
constexpr double kNominalShare = 0.6;      // of --seconds; the ramp gets the rest
constexpr int kRampSteps = 5;              // coarse steps per search, at most
constexpr int kRampBisect = 2;             // bisection steps after the bracket
constexpr int kRampRepeats = 2;            // searches; max_rate_ops is the best
constexpr double kLagBoundUs = 50000;      // generator lag p99 of a valid run

// Scaled down so a run completes several flush and compaction cycles; the
// block cache holds about 1/8 of one member's ~28 MB of preloaded data.
dstore::lsm::LsmOptions LsmSettings() {
  dstore::lsm::LsmOptions lsm;
  lsm.sync_writes = true;
  lsm.memtable_bytes = 256 << 10;
  lsm.block_cache_bytes = 3584 << 10;
  lsm.level_base_bytes = 4 << 20;
  lsm.level_multiplier = 4;
  lsm.max_output_file_bytes = 1 << 20;
  lsm.l0_compaction_trigger = 4;
  return lsm;
}

struct Config {
  std::string workload;
  StackConfig stack;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path workdir;
  Mix3 mix;
  double zipf = 0;
  double rate = 1000;  // nominal offered rate, ops/s
  double slo_us = 1000;
  double ramp_start = 1000, ramp_factor = 1.25;
  std::string chosen_layers;  // prediction: largest self-time share
  double hit_ratio_min = 0, hit_ratio_max = 1;
};

bool ParseConfig(int argc, char** argv, Config* c, std::string* error) {
  Args a(argc, argv);
  c->workload = a.Str("workload");
  c->stack.deployment = a.Str("deployment");
  c->seed = static_cast<uint64_t>(a.Num("seed"));
  c->stack.seed = c->seed;
  c->seconds = a.Num("seconds");
  c->trace = a.Num("trace") != 0;
  c->workdir = a.Str("workdir");
  c->stack.keys = static_cast<uint32_t>(a.Num("keys"));
  c->stack.value_min = static_cast<size_t>(a.Num("value_min"));
  c->stack.value_max = static_cast<size_t>(a.Num("value_max"));
  c->stack.cache_bytes = kCacheBytes;
  c->stack.lsm = LsmSettings();
  c->zipf = a.Num("zipf");
  c->mix.get = a.Num("get");
  c->mix.put = a.Num("put");
  c->mix.multiget = a.Num("multiget");
  c->rate = a.Num("rate");
  c->slo_us = a.Num("slo_us");
  c->ramp_start = a.Num("ramp_start");
  c->ramp_factor = a.Num("ramp_factor");
  c->chosen_layers = a.Str("chosen_layers");
  c->hit_ratio_min = a.Num("hit_ratio_min");
  c->hit_ratio_max = a.Num("hit_ratio_max");
  *error = a.bad();
  if (error->empty() && c->stack.deployment != "replicated-lsm" &&
      c->stack.deployment != "remote") {
    *error = "unknown deployment " + c->stack.deployment;
  }
  if (error->empty() && (c->stack.keys < kBatch || c->rate <= 0 ||
                         c->seconds <= 0 || c->ramp_factor <= 1)) {
    *error = "need keys >= 16, rate > 0, seconds > 0 and ramp_factor > 1";
  }
  return error->empty();
}

// ---------------------------------------------------------------- helpers

double NowSeconds() { return static_cast<double>(NowNanos()) / 1e9; }

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }
double Us(double ns) { return ns / 1e3; }

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint64_t ProcWriteBytes() {
  std::ifstream in("/proc/self/io");
  std::string name;
  uint64_t value = 0;
  while (in >> name >> value) {
    if (name == "write_bytes:") return value;
  }
  return 0;
}

// Lowers the peak-RSS mark to the current RSS, so PeakRssMb covers what
// follows. False when the kernel refuses.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string FsType(const fs::path& dir) {
  struct statfs st;
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlayfs";
    case 0x6a656a63: return "fakeowner";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

// Sums of one registry family's instruments whose labels include `match`.
struct HistDelta {
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0;
};

HistDelta HistogramNow(const std::string& family,
                       const dstore::obs::Labels& match) {
  HistDelta out;
  for (const auto& f : dstore::obs::MetricsRegistry::Default()->Snapshot()) {
    if (f.name != family) continue;
    for (const auto& inst : f.instruments) {
      bool ok = true;
      for (const auto& label : match) {
        ok = ok && std::find(inst.labels.begin(), inst.labels.end(), label) !=
                       inst.labels.end();
      }
      if (!ok) continue;
      if (out.buckets.size() < inst.buckets.size()) {
        out.buckets.resize(inst.buckets.size());
      }
      for (size_t i = 0; i < inst.buckets.size(); ++i) {
        out.buckets[i] += inst.buckets[i];
      }
      out.count += inst.count;
      out.sum += inst.sum;
    }
  }
  return out;
}

HistDelta Minus(const HistDelta& after, const HistDelta& before) {
  HistDelta d = after;
  for (size_t i = 0; i < before.buckets.size() && i < d.buckets.size(); ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  d.count -= before.count;
  d.sum -= before.sum;
  return d;
}

// Upper bound of the bucket holding the p-th percentile.
double HistPercentile(const HistDelta& h, double p) {
  if (h.count == 0) return 0;
  const auto& bounds = dstore::obs::Histogram::BucketBounds();
  const double target = p / 100.0 * static_cast<double>(h.count);
  uint64_t seen = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    seen += h.buckets[i];
    if (static_cast<double>(seen) >= target) {
      return i < bounds.size() ? bounds[i] : bounds.back();
    }
  }
  return bounds.back();
}

// Counter values by "family{labels}" for the families the self-test
// compares.
std::map<std::string, double> CounterSnapshot() {
  static const std::set<std::string> kFamilies = {
      "dstore_shard_ops_total", "dstore_replica_writes_total",
      "dstore_replica_reads_total", "dstore_cloud_requests_total"};
  std::map<std::string, double> out;
  for (const auto& f : dstore::obs::MetricsRegistry::Default()->Snapshot()) {
    if (kFamilies.count(f.name) == 0) continue;
    for (const auto& inst : f.instruments) {
      std::string key = f.name + "{";
      for (const auto& [k, v] : inst.labels) key += k + "=" + v + ",";
      out[key + "}"] += inst.value;
    }
  }
  return out;
}

// ---------------------------------------------------------------- set-up

// replicated-lsm: the bytes each member LSM holds for a preloaded key,
// encoded once per process (outside setup_s) by the deployment's gzip -> AES
// chain. The keys the nominal phase reads are compressed at the default
// level, so every timed Get inflates real deflate output. The program spends
// ~0.85 ms of deflate on a 1 KiB value, so the other keys get the same gzip
// framing at DeflateLevel::kStored (100k default-level values would cost
// over a minute of CPU per run); their stored bytes are ~1.7x what the real
// chain writes, which the LSM size figures (space_amp, block cache share)
// reflect. Values written during the run go through the real chain.
struct Preload {
  std::vector<ValuePtr> encoded;
  uint64_t user_bytes = 0;  // key + plaintext value, one copy of every key
  uint64_t fingerprint = 0;
};

Preload MakePreload(const Config& c, const Stream* reads) {
  Preload p;
  const uint32_t keys = c.stack.keys;
  uint64_t h = Mix(c.seed, keys);
  for (uint32_t k = 0; k < keys; ++k) {
    const size_t size =
        ValueSizeFor(c.seed, k, c.stack.value_min, c.stack.value_max);
    h = Mix(h, size);
    p.user_bytes += KeyName(k).size() + size;
  }
  p.fingerprint = h;
  if (c.stack.deployment != "replicated-lsm") return p;
  std::vector<uint8_t> compress(keys, 0);
  if (reads != nullptr) {
    for (const Op& op : reads->ops) {
      if (op.type == OpType::kGet) compress[op.key] = 1;
      if (op.type != OpType::kMultiGet) continue;
      for (uint32_t i = 0; i < reads->batch_n; ++i) {
        compress[reads->batch_keys[op.batch + i]] = 1;
      }
    }
  }
  p.encoded.resize(keys);
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::shared_ptr<dstore::TransformChain> chains[2] = {
          MakeChain(c.stack, nullptr, nullptr, nullptr,
                    dstore::DeflateLevel::kStored),
          MakeChain(c.stack, nullptr, nullptr, nullptr)};
      if (chains[0] == nullptr || chains[1] == nullptr) return;
      for (uint32_t k = t; k < keys; k += threads) {
        auto enc = chains[compress[k]]->Apply(MakeValueBytes(
            c.seed, k, 0,
            ValueSizeFor(c.seed, k, c.stack.value_min, c.stack.value_max)));
        if (!enc.ok()) return;
        p.encoded[k] = dstore::MakeValue(std::move(*enc));
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& v : p.encoded) {
    if (v == nullptr) {
      p.encoded.clear();
      break;
    }
  }
  return p;
}

// Writes version 0 of every key. replicated-lsm bulk-loads each member LSM
// of the owning group directly (one WAL sync per batch) and then compacts,
// so timing starts from a settled tree; remote writes through the chain.
bool LoadData(const Config& c, const Preload& pre, Stack* stack,
              unsigned threads, std::string* error) {
  const uint32_t keys = c.stack.keys;
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (!failed.exchange(true)) *error = what;
  };
  std::vector<std::thread> workers;
  std::map<std::string, std::vector<uint32_t>> by_group;  // outlives workers
  if (c.stack.deployment == "replicated-lsm") {
    auto ring = GroupRing();
    for (uint32_t k = 0; k < keys; ++k) {
      by_group[*ring.OwnerOf(KeyName(k))].push_back(k);
    }
    for (auto& [group, members] : stack->groups) {
      for (auto& store : members) {
        const std::vector<uint32_t>* ids = &by_group[group];
        dstore::lsm::LsmStore* lsm = store.get();
        workers.emplace_back([&, ids, lsm] {
          constexpr size_t kBatch = 256;
          std::vector<std::pair<std::string, ValuePtr>> batch;
          for (size_t i = 0; i < ids->size(); ++i) {
            const uint32_t k = (*ids)[i];
            batch.emplace_back(KeyName(k), pre.encoded[k]);
            if (batch.size() == kBatch || i + 1 == ids->size()) {
              auto s = lsm->MultiPut(batch);
              if (!s.ok()) return fail("bulk load: " + s.ToString());
              batch.clear();
            }
          }
          auto s = lsm->CompactAll();
          if (!s.ok()) fail("compact: " + s.ToString());
        });
      }
    }
  } else {
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (uint32_t k = t; k < keys && !failed; k += threads) {
          auto value = dstore::MakeValue(MakeValueBytes(
              c.seed, k, 0,
              ValueSizeFor(c.seed, k, c.stack.value_min, c.stack.value_max)));
          auto s = stack->top->Put(KeyName(k), value);
          if (!s.ok()) return fail("preload put: " + s.ToString());
        }
      });
    }
  }
  for (auto& w : workers) w.join();
  return !failed;
}

// Fills the DSCL cache (and the LSM block caches below it) by reading about
// twice the cache's worth of keys, least popular first so the hottest end
// up most recently used. Threads take interleaved slices of that order, so
// it is kept to within a few keys.
bool Warm(const Config& c, OpSource* source, Stack* stack, Checker* checker,
          unsigned threads, std::string* error) {
  const double entry =
      static_cast<double>(c.stack.value_min + c.stack.value_max) / 2 + 64;
  const uint32_t n = static_cast<uint32_t>(std::min<double>(
      c.stack.keys, 2.0 * static_cast<double>(c.stack.cache_bytes) / entry));
  std::vector<uint32_t> order;
  if (c.zipf > 0) {
    order.assign(source->rank_to_key().begin(),
                 source->rank_to_key().begin() + n);
  } else {
    Rng rng(Mix(c.seed, 0x7761726d));
    for (uint32_t i = 0; i < n; ++i) {
      order.push_back(static_cast<uint32_t>(rng.Below(c.stack.keys)));
    }
  }
  std::reverse(order.begin(), order.end());
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < order.size() && !failed; i += threads) {
        const uint32_t k = order[i];
        auto r = stack->top->Get(KeyName(k));
        if (!checker->CheckRead(k, r)) {
          std::lock_guard<std::mutex> lock(mu);
          if (!failed.exchange(true)) {
            *error = "warm read of " + KeyName(k) + ": " +
                     r.status().ToString();
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  return !failed;
}

struct SetupResult {
  std::unique_ptr<Stack> stack;
  std::vector<double> seconds;
};

// Builds, loads and warms the stack `setups` times (fresh stores each time,
// earlier copies torn down) and keeps the last one. `serial` loads and warms
// from one thread, so the cache ends in the same state on every run.
bool SetUp(const Config& c, const Preload& pre, OpSource* source,
           Tracer* tracer, Checker* checker, const std::string& tag,
           int setups, bool serial, SetupResult* out, std::string* error) {
  const unsigned load_threads = serial ? 1 : 4;
  const unsigned warm_threads = serial ? 1 : 3;
  for (int i = 0; i < setups; ++i) {
    out->stack.reset();
    const fs::path dir = c.workdir / (tag + "-" + std::to_string(i));
    std::error_code ec;
    fs::remove_all(dir, ec);
    const double t0 = NowSeconds();
    auto stack = BuildStack(c.stack, dir, tracer, error);
    if (stack == nullptr) return false;
    if (!LoadData(c, pre, stack.get(), load_threads, error)) return false;
    if (!Warm(c, source, stack.get(), checker, warm_threads, error)) {
      return false;
    }
    out->seconds.push_back(NowSeconds() - t0);
    if (i + 1 < setups) {
      stack.reset();
      fs::remove_all(dir, ec);
    }
    out->stack = std::move(stack);
  }
  return true;
}

// ---------------------------------------------------------------- checks

struct KeyHistory {
  uint32_t last_acked = 0;  // version 0 is the acknowledged preload
  int64_t last_acked_issued = 0;
  std::vector<const PutRecord*> puts;
};

// After the timed phase: close the stack, reopen every LSM directory and
// check each key holds its last acknowledged version, or another version
// whose write was attempted and could have been ordered after it (issued
// later, or still running when the acknowledged one was issued).
uint64_t CheckReopened(const Config& c, const std::map<std::string, fs::path>&
                                            dirs,
                       const std::vector<PutRecord>& puts, Checker* checker) {
  std::vector<KeyHistory> hist(c.stack.keys);
  for (const auto& p : puts) {
    KeyHistory& h = hist[p.key];
    h.puts.push_back(&p);
    if (p.acked && p.version > h.last_acked) {
      h.last_acked = p.version;
      h.last_acked_issued = p.issued;
    }
  }
  std::map<std::string, std::vector<fs::path>> by_group;
  for (const auto& [name, path] : dirs) {
    by_group[name.substr(0, name.find('/'))].push_back(path);
  }
  std::vector<int64_t> newest(c.stack.keys, -1);
  std::mutex mu;
  std::vector<std::thread> workers;
  for (const auto& [group, paths] : by_group) {
    workers.emplace_back([&, paths] {
      auto chain = MakeChain(c.stack, nullptr, nullptr, nullptr);
      std::map<uint32_t, int64_t> seen;
      for (const auto& path : paths) {
        auto opened = dstore::lsm::LsmStore::Open(path, c.stack.lsm);
        if (!opened.ok()) {
          checker->Violation("reopen " + path.string() + ": " +
                             opened.status().ToString());
          continue;
        }
        auto& store = *opened;
        auto keys = store->ListKeys();
        if (!keys.ok()) {
          checker->Violation("list " + path.string());
          continue;
        }
        for (const auto& key : *keys) {
          uint32_t id = 0;
          auto raw = store->Get(key);
          if (!ParseKeyName(key, &id) || id >= c.stack.keys || !raw.ok()) {
            checker->Violation("unexpected entry " + key + " in " +
                               path.string() + ": " +
                               raw.status().ToString());
            continue;
          }
          auto plain = chain->Reverse(**raw);
          uint32_t version = 0;
          if (!plain.ok() || !ParseValue(*plain, id, &version) ||
              version > checker->IssuedMax(id)) {
            checker->Violation("reopened " + key + " in " + path.string() +
                               " is not a value the benchmark wrote");
            continue;
          }
          auto& best = seen[id];
          best = std::max<int64_t>(best, version);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& [id, v] : seen) newest[id] = std::max(newest[id], v);
    });
  }
  for (auto& w : workers) w.join();
  uint64_t bad = 0;
  for (uint32_t k = 0; k < c.stack.keys; ++k) {
    const KeyHistory& h = hist[k];
    const int64_t v = newest[k];
    bool ok = v >= static_cast<int64_t>(h.last_acked);
    for (const PutRecord* p : h.puts) {
      if (ok) break;
      // An older attempted write that was still in flight when the last
      // acknowledged one was issued may legitimately land after it.
      ok = static_cast<int64_t>(p->version) == v &&
           p->done >= h.last_acked_issued;
    }
    if (v < 0 || !ok) {
      ++bad;
      checker->Violation("after reopen " + KeyName(k) + " holds version " +
                         std::to_string(v) + ", last acknowledged " +
                         std::to_string(h.last_acked));
    }
  }
  return bad;
}

// Replays the first `ops` requests of the nominal stream one at a time on a
// small stack, with and without the span wrappers, and compares the call
// counts the layers publish themselves. Differences mean the wrappers
// changed what the program does.
bool SelfTest(const Config& base, std::vector<std::string>* report) {
  Config c = base;
  c.stack.keys = std::min<uint32_t>(base.stack.keys, 4000);
  c.stack.cache_bytes = static_cast<size_t>(
      static_cast<double>(base.stack.cache_bytes) * c.stack.keys /
      base.stack.keys);
  const size_t ops = 1500;
  std::map<std::string, double> counts[2];
  bool ok = true;
  Preload pre = MakePreload(c, nullptr);
  for (int wrapped = 0; wrapped < 2; ++wrapped) {
    Tracer tracer;
    OpSource source(c.seed, c.stack.keys, c.zipf, c.mix, kBatch);
    Checker checker(c.stack.keys);
    SetupResult setup;
    std::string error;
    if (!SetUp(c, pre, &source, wrapped ? &tracer : nullptr, &checker,
               wrapped ? "selftest-traced" : "selftest-plain", 1,
               /*serial=*/true, &setup, &error)) {
      report->push_back("selftest setup failed: " + error);
      return false;
    }
    Stack& stack = *setup.stack;
    const auto before = CounterSnapshot();
    const auto enhanced0 = stack.enhanced->Stats();
    const auto cache0 = stack.enhanced->cache()->Stats();
    const auto retry0 = stack.retry->GetRetryStats();
    const Stream stream = source.Draw(ops, 1000);
    for (const Op& op : stream.ops) {
      switch (op.type) {
        case OpType::kGet:
          (void)stack.top->Get(KeyName(op.key));
          break;
        case OpType::kPut:
          checker.NoteIssued(op.key, op.version);
          (void)stack.top->Put(
              KeyName(op.key),
              dstore::MakeValue(MakeValueBytes(
                  c.seed, op.key, op.version,
                  ValueSizeFor(c.seed, op.key, c.stack.value_min,
                               c.stack.value_max))));
          break;
        case OpType::kMultiGet: {
          std::vector<std::string> keys;
          for (uint32_t i = 0; i < stream.batch_n; ++i) {
            keys.push_back(KeyName(stream.batch_keys[op.batch + i]));
          }
          (void)stack.top->MultiGet(keys);
          break;
        }
      }
    }
    auto& out = counts[wrapped];
    for (const auto& [k, v] : CounterSnapshot()) {
      auto it = before.find(k);
      const double d = v - (it == before.end() ? 0 : it->second);
      if (d != 0) out[k] = d;
    }
    const auto enhanced1 = stack.enhanced->Stats();
    out["dscl.cache_hits"] =
        static_cast<double>(enhanced1.cache_hits - enhanced0.cache_hits);
    out["dscl.cache_misses"] =
        static_cast<double>(enhanced1.cache_misses - enhanced0.cache_misses);
    out["cache.evictions"] = static_cast<double>(
        stack.enhanced->cache()->Stats().evictions - cache0.evictions);
    out["store.retry.retries"] = static_cast<double>(
        stack.retry->GetRetryStats().retries - retry0.retries);
    setup.stack.reset();
    std::error_code ec;
    fs::remove_all(c.workdir / (std::string(wrapped ? "selftest-traced"
                                                     : "selftest-plain") +
                                "-0"),
                   ec);
  }
  for (const auto& [k, v] : counts[0]) {
    auto it = counts[1].find(k);
    const double w = it == counts[1].end() ? 0 : it->second;
    if (w != v) {
      ok = false;
      report->push_back("selftest mismatch " + k + ": plain " +
                        std::to_string(v) + " wrapped " + std::to_string(w));
    }
  }
  for (const auto& [k, v] : counts[1]) {
    if (counts[0].count(k) == 0) {
      ok = false;
      report->push_back("selftest mismatch " + k + ": plain 0 wrapped " +
                        std::to_string(v));
    }
  }
  report->push_back(std::string("selftest ") + (ok ? "PASS" : "FAIL") + ": " +
                    std::to_string(counts[0].size()) +
                    " per-layer call counts identical with and without the "
                    "wrappers over " +
                    std::to_string(ops) + " requests");
  return ok;
}

constexpr int64_t kWindowNs = 2'000'000'000;

// The nominal phase is cut into kWindowNs windows by due time (a window
// with fewer than 50 samples is merged into the next); returns the lower
// quartile, over windows, of each window's p-th percentile. Interference
// from other tenants of the host only adds latency and comes in bursts of
// seconds, so the quieter windows of a run estimate the program's latency
// more repeatably than the pooled percentile does.
double WindowedPercentile(const std::vector<int64_t>& latency,
                          const std::vector<int64_t>& offset, double p) {
  std::map<int64_t, std::vector<int64_t>> by_window;
  for (size_t i = 0; i < latency.size(); ++i) {
    by_window[offset[i] / kWindowNs].push_back(latency[i]);
  }
  std::vector<double> values;
  std::vector<int64_t> pending;
  for (auto& [w, v] : by_window) {
    pending.insert(pending.end(), v.begin(), v.end());
    if (pending.size() < 50) continue;
    values.push_back(static_cast<double>(Percentile(&pending, p)));
    pending.clear();
  }
  if (!pending.empty() && values.empty()) {
    values.push_back(static_cast<double>(Percentile(&pending, p)));
  }
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 4];
}

// ---------------------------------------------------------------- tracing

struct Sums {
  uint64_t count = 0, self_ns = 0, total_ns = 0, refused = 0;
};

// op / req / fg of -1 mean "any".
Sums Sum(const Tracer& t, int layer, int op, int req, int fg) {
  Sums s;
  for (int o = 0; o < kSpanOps; ++o) {
    if (op >= 0 && o != op) continue;
    for (int r = 0; r < kReqKinds; ++r) {
      if (req >= 0 && r != req) continue;
      for (int f = 0; f < 2; ++f) {
        if (fg >= 0 && f != fg) continue;
        const Agg& a = t.table()[layer][o][r][f];
        s.count += a.count.load();
        s.self_ns += a.self_ns.load();
        s.total_ns += a.total_ns.load();
        s.refused += a.refused.load();
      }
    }
  }
  return s;
}

double MeanUs(uint64_t ns, uint64_t count) {
  return count == 0 ? 0 : static_cast<double>(ns) / 1e3 / count;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

struct LsmTotals {
  uint64_t flushes = 0, compactions = 0, bloom_checks = 0, bloom_negatives = 0;
};

// Counters the layers publish themselves; the untraced phases read them.
struct Counters {
  uint64_t hits = 0, misses = 0, evictions = 0, retries = 0, backoff_ns = 0;
  LsmTotals lsm;
  uint64_t write_bytes = 0;  // the process's writes to storage
};

Counters CountersNow(Stack* stack) {
  Counters c;
  const auto enhanced = stack->enhanced->Stats();
  c.hits = enhanced.cache_hits;
  c.misses = enhanced.cache_misses;
  c.evictions = stack->enhanced->cache()->Stats().evictions;
  const auto retry = stack->retry->GetRetryStats();
  c.retries = retry.retries;
  c.backoff_ns = retry.backoff_nanos;
  for (auto& [group, members] : stack->groups) {
    for (auto& store : members) {
      auto s = store->GetStats();
      c.lsm.flushes += s.flushes;
      c.lsm.compactions += s.compactions;
      c.lsm.bloom_checks += s.bloom_checks;
      c.lsm.bloom_negatives += s.bloom_negatives;
    }
  }
  c.write_bytes = ProcWriteBytes();
  return c;
}

// ---------------------------------------------------------------- main

int Run(int argc, char** argv) {
  Config c;
  std::string error;
  if (!ParseConfig(argc, argv, &c, &error)) {
    std::fprintf(stderr, "macrobench: %s\n", error.c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(c.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "macrobench: cannot create %s\n",
                 c.workdir.c_str());
    return 2;
  }
  const unsigned nproc = std::max(2u, std::thread::hardware_concurrency());
  dstore::ThreadPool pool(nproc - 1);
  std::map<std::string, Metric> m;
  std::vector<std::string> report;
  auto put = [&](const std::string& name, double value, const char* unit,
                 size_t samples) { m[name] = {value, unit, samples}; };

  OpSource source(c.seed, c.stack.keys, c.zipf, c.mix, kBatch);
  Checker checker(c.stack.keys);
  const Stream nominal = source.Draw(
      static_cast<size_t>(c.rate * c.seconds * kNominalShare), c.rate);
  Preload pre = MakePreload(c, &nominal);
  if (c.stack.deployment == "replicated-lsm" && pre.encoded.empty()) {
    std::fprintf(stderr, "macrobench: cannot encode the preload\n");
    return 2;
  }
  const uint64_t fingerprint = Fingerprint(nominal, pre.fingerprint);

  std::vector<PutRecord> all_puts;
  size_t attempted = 0, failed = 0;
  std::vector<double> setup_seconds;
  int64_t lag_p99 = 0;
  double untraced_p50_us[kOpTypes] = {};  // per op type, pooled

  // p50 and p90 come from WindowedPercentile; p99 is pooled.
  auto summarize = [&](PhaseResult& r) {
    for (int t = 0; t < kOpTypes; ++t) {
      auto& v = r.latency[t];
      if (v.empty()) continue;
      const std::string op = OpName(static_cast<OpType>(t));
      const size_t n = v.size();
      put(op + "_p50_us", Us(WindowedPercentile(v, r.offset[t], 50)), "us", n);
      put(op + "_p90_us", Us(WindowedPercentile(v, r.offset[t], 90)), "us", n);
      put(op + "_p99_us", Us(Percentile(&v, 99)), "us", n);
    }
  };

  // Untraced, in both modes: the nominal phase, then the ramp. The traced
  // run adds the nominal phase again on a traced stack.
  {
    SetupResult setup;
    // setup_s is reported only by the untraced run.
    if (!SetUp(c, pre, &source, nullptr, &checker, "plain",
               c.trace ? 1 : kSetups, /*serial=*/false, &setup, &error)) {
      std::fprintf(stderr, "macrobench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_seconds = setup.seconds;
    // The preload buffer is the benchmark's, not the program's: drop it
    // (the traced stack needs it once more) and restart the peak-RSS mark,
    // so peak_rss_mb covers the program over the nominal phase.
    if (!c.trace) pre.encoded = {};
    malloc_trim(0);
    if (!ResetPeakRss()) {
      report.push_back("peak_rss_mb includes set-up: cannot reset VmHWM");
    }
    Stack& stack = *setup.stack;
    const Counters before = CountersNow(&stack);
    LoadTarget target{stack.top, &pool, nullptr, c.seed, c.stack.value_min,
                      c.stack.value_max, &checker};
    PhaseResult r = RunPhase(target, nominal);
    attempted += r.attempted;
    failed += r.failed;
    lag_p99 = Percentile(&r.lag, 99);
    all_puts.insert(all_puts.end(), r.puts.begin(), r.puts.end());
    summarize(r);
    for (int t = 0; t < kOpTypes; ++t) {
      untraced_p50_us[t] = Us(Percentile(&r.latency[t], 50));
    }
    put("failed_frac", Ratio(r.failed, r.attempted), "ratio", r.attempted);
    // The ramp's backlog depends on how each step went; the nominal phase's
    // load is the same in every run.
    put("peak_rss_mb", PeakRssMb(), "MB", 1);
    // The load generator's own CPU (it spins before each due time) is the
    // benchmark's, not the program's.
    put("cpu_us_per_op",
        Us(static_cast<double>(r.process_cpu_ns - r.generator_cpu_ns)) /
            static_cast<double>(r.attempted),
        "us", r.attempted);

    // Stepped ramp: the highest offered rate whose p99 over all ops meets
    // the SLO with no growing backlog. Coarse steps find a bracket,
    // bisection steps (geometric midpoints) narrow it, and the result is
    // interpolated on p99 between the final passing and failing rates.
    const double step_s = c.seconds * (1 - kNominalShare) /
                          (kRampRepeats * (kRampSteps + kRampBisect));
    size_t ramp_ops = 0;
    int step_no = 0;
    auto run_step = [&](double rate, double* p99) {
      const Stream s = source.Draw(
          std::max<size_t>(1, static_cast<size_t>(rate * step_s)), rate);
      PhaseResult sr = RunPhase(target, s);
      ramp_ops += sr.attempted;
      all_puts.insert(all_puts.end(), sr.puts.begin(), sr.puts.end());
      *p99 = Us(Percentile(&sr.all_latency, 99));
      const bool backlog = sr.outstanding_at_end >
                           std::max<size_t>(16, sr.attempted / 20);
      const bool pass = *p99 <= c.slo_us && !backlog && sr.failed == 0;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "ramp step %d: offered %.0f ops/s, p99 %.1f us, "
                    "outstanding %zu, failed %zu -> %s",
                    step_no++, rate, *p99, sr.outstanding_at_end, sr.failed,
                    pass ? "pass" : "fail");
      report.push_back(line);
      return pass;
    };
    // One search: coarse steps up by ramp_factor while they pass, down
    // while they fail, until a passing and a failing rate bracket the
    // limit; then bisection.
    auto search = [&]() {
      double lo = 0, lo_p99 = 0, hi = 0, hi_p99 = 0;
      double rate = c.ramp_start;
      for (int step = 0; step < kRampSteps && (lo == 0 || hi == 0); ++step) {
        double p99 = 0;
        if (run_step(rate, &p99)) {
          lo = rate;
          lo_p99 = p99;
          rate *= c.ramp_factor;
        } else {
          hi = rate;
          hi_p99 = p99;
          rate /= c.ramp_factor;
        }
      }
      if (hi > 0 && lo > 0) {
        for (int b = 0; b < kRampBisect; ++b) {
          const double mid = std::sqrt(lo * hi);
          double p99 = 0;
          if (run_step(mid, &p99)) {
            lo = mid;
            lo_p99 = p99;
          } else {
            hi = mid;
            hi_p99 = p99;
          }
        }
      }
      if (hi == 0) {
        report.push_back("ramp: every step passed; the estimate is the "
                         "last passing rate");
        return lo;
      }
      const double fail_p99 = std::max(hi_p99, c.slo_us * 1.0001);
      if (lo == 0) return hi * std::min(1.0, c.slo_us / fail_p99);
      const double f =
          std::clamp((c.slo_us - lo_p99) / (fail_p99 - lo_p99), 0.0, 1.0);
      return lo + (hi - lo) * f;
    };
    // The best of several searches: interference only lowers the rate a
    // step sustains.
    double max_rate = 0;
    for (int i = 0; i < kRampRepeats; ++i) {
      const double estimate = search();
      report.push_back("ramp search " + std::to_string(i) + ": " +
                       std::to_string(estimate) + " ops/s");
      max_rate = std::max(max_rate, estimate);
    }
    put("max_rate_ops", max_rate, "ops/s", ramp_ops);

    // Counter-based per-layer metrics, over the nominal phase and the ramp.
    const Counters after = CountersNow(&stack);
    const double ops = static_cast<double>(r.attempted + ramp_ops);
    const size_t lookups = after.hits + after.misses - before.hits -
                           before.misses;
    put("cache.hit_ratio",
        Ratio(static_cast<double>(after.hits - before.hits),
              static_cast<double>(lookups)),
        "ratio", lookups);
    put("cache.evictions",
        static_cast<double>(after.evictions - before.evictions), "count",
        lookups);
    put("store.retry.retries_per_kop",
        Ratio(1000.0 * static_cast<double>(after.retries - before.retries),
              ops),
        "count", static_cast<size_t>(ops));
    put("store.retry.backoff_ms",
        static_cast<double>(after.backoff_ns - before.backoff_ns) / 1e6, "ms",
        static_cast<size_t>(ops));
    const LsmTotals& l0 = before.lsm;
    const LsmTotals& l1 = after.lsm;
    put("store.lsm.flushes", static_cast<double>(l1.flushes - l0.flushes),
        "count", stack.lsm_dirs.size());
    put("store.lsm.compactions",
        static_cast<double>(l1.compactions - l0.compactions), "count",
        stack.lsm_dirs.size());
    put("store.lsm.bloom_negative_ratio",
        Ratio(static_cast<double>(l1.bloom_negatives - l0.bloom_negatives),
              static_cast<double>(l1.bloom_checks - l0.bloom_checks)),
        "ratio", l1.bloom_checks - l0.bloom_checks);
    if (c.stack.deployment == "replicated-lsm") {
      uint64_t disk = 0;
      for (const auto& [name, path] : stack.lsm_dirs) disk += DirBytes(path);
      put("store.lsm.space_amp",
          Ratio(static_cast<double>(disk),
                static_cast<double>(kReplicationFactor * pre.user_bytes)),
          "ratio", stack.lsm_dirs.size());
      // Storage writes (WAL, flushes, compactions) per plaintext byte the
      // replicas were asked to store.
      double user_put_bytes = 0;
      for (const PutRecord& p : all_puts) {
        user_put_bytes += static_cast<double>(
            KeyName(p.key).size() + ValueSizeFor(c.seed, p.key,
                                                 c.stack.value_min,
                                                 c.stack.value_max));
      }
      put("store.lsm.write_amp",
          Ratio(static_cast<double>(after.write_bytes - before.write_bytes),
                kReplicationFactor * user_put_bytes),
          "ratio", all_puts.size());
      report.push_back("lsm while timing: " +
                       std::to_string(l1.flushes - l0.flushes) +
                       " flushes, " +
                       std::to_string(l1.compactions - l0.compactions) +
                       " compactions over " +
                       std::to_string(stack.lsm_dirs.size()) + " stores");
      // Every store must be closed before its directory is reopened: the
      // load target holds the chain too, and a store still open would keep
      // flushing and compacting under the reopened copy.
      const auto dirs = stack.lsm_dirs;
      std::vector<std::weak_ptr<dstore::lsm::LsmStore>> stores;
      for (auto& [group, members] : stack.groups) {
        stores.insert(stores.end(), members.begin(), members.end());
      }
      target.top.reset();
      setup.stack.reset();
      for (const auto& store : stores) {
        if (!store.expired()) {
          checker.Violation("an LSM store is still open at the reopen check");
          break;
        }
      }
      const uint64_t bad = CheckReopened(c, dirs, all_puts, &checker);
      report.push_back("reopen check: " + std::to_string(c.stack.keys) +
                       " keys, " + std::to_string(bad) + " violations");
    } else {
      put("store.lsm.space_amp", 0, "ratio", 0);
      put("store.lsm.write_amp", 0, "ratio", 0);
    }
  }

  if (c.trace) {
    Tracer tracer;
    SetupResult setup;
    // The traced stack repeats the untraced nominal phase's requests from
    // the same starting state, so the fresh checker sees the same versions.
    OpSource traced_source(c.seed, c.stack.keys, c.zipf, c.mix, kBatch);
    const Stream stream = traced_source.Draw(nominal.ops.size(), c.rate);
    Checker traced_checker(c.stack.keys);
    if (!SetUp(c, pre, &traced_source, &tracer, &traced_checker, "traced", 1,
               /*serial=*/false, &setup, &error)) {
      std::fprintf(stderr, "macrobench: traced set-up failed: %s\n",
                   error.c_str());
      return 1;
    }
    pre.encoded = {};
    Stack& stack = *setup.stack;
    LoadTarget target{stack.top,        &pool, &tracer, c.seed,
                      c.stack.value_min, c.stack.value_max, &traced_checker};
    std::vector<uint64_t> child0;
    for (auto& t : stack.shard_children) child0.push_back(t->calls());
    const uint64_t gz_in0 = stack.compress ? stack.compress->apply_in() : 0;
    const uint64_t gz_out0 = stack.compress ? stack.compress->apply_out() : 0;
    const HistDelta req0 = HistogramNow("dstore_cloud_request_ms", {});
    const HistDelta qw0 =
        HistogramNow("dstore_admit_queue_wait_ms", {{"queue", "cloud"}});
    // Spans recorded during set-up are not part of the measurement.
    const Tracer& tr = tracer;
    Sums base[kLayers][kSpanOps][kReqKinds][2];
    for (int l = 0; l < kLayers; ++l)
      for (int o = 0; o < kSpanOps; ++o)
        for (int q = 0; q < kReqKinds; ++q)
          for (int f = 0; f < 2; ++f) {
            const Agg& a = tr.table()[l][o][q][f];
            base[l][o][q][f] = {a.count.load(), a.self_ns.load(),
                                a.total_ns.load(), a.refused.load()};
          }

    PhaseResult r = RunPhase(target, stream);
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& msg : traced_checker.messages()) {
      checker.Violation("traced phase: " + msg);
    }
    // Drain background work (replicator applies) before reading totals.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    auto S = [&](int layer, int op, int req, int fg) {
      Sums s = Sum(tr, layer, op, req, fg);
      for (int o = 0; o < kSpanOps; ++o) {
        if (op >= 0 && o != op) continue;
        for (int q = 0; q < kReqKinds; ++q) {
          if (req >= 0 && q != req) continue;
          for (int f = 0; f < 2; ++f) {
            if (fg >= 0 && f != fg) continue;
            const Sums& b = base[layer][o][q][f];
            s.count -= b.count;
            s.self_ns -= b.self_ns;
            s.total_ns -= b.total_ns;
            s.refused -= b.refused;
          }
        }
      }
      return s;
    };
    const double ops = static_cast<double>(r.attempted);
    size_t n_mg = 0;
    for (const Op& op : stream.ops) n_mg += op.type == OpType::kMultiGet;

    std::vector<int64_t> wait = r.pool_wait;
    put("udsm.pool_wait_p50_us", Us(Percentile(&wait, 50)), "us", wait.size());
    put("udsm.pool_wait_p99_us", Us(Percentile(&wait, 99)), "us", wait.size());
    {
      Sums g = S(kDscl, kSpanGet, -1, 1), p = S(kDscl, kSpanPut, -1, 1),
           mg = S(kDscl, kSpanMultiGet, -1, 1);
      put("dscl.get_self_us", MeanUs(g.self_ns, g.count), "us", g.count);
      put("dscl.put_self_us", MeanUs(p.self_ns, p.count), "us", p.count);
      put("dscl.multiget_self_us", MeanUs(mg.self_ns, mg.count), "us",
          mg.count);
    }
    {
      Sums ga = S(kCompress, kSpanApply, -1, -1),
           gr = S(kCompress, kSpanReverse, -1, -1),
           ca = S(kCrypto, kSpanApply, -1, -1),
           cr = S(kCrypto, kSpanReverse, -1, -1);
      put("compress.apply_us", MeanUs(ga.total_ns, ga.count), "us", ga.count);
      put("compress.reverse_us", MeanUs(gr.total_ns, gr.count), "us",
          gr.count);
      put("compress.ratio",
          stack.compress == nullptr
              ? 0
              : Ratio(static_cast<double>(stack.compress->apply_out() -
                                          gz_out0),
                      static_cast<double>(stack.compress->apply_in() -
                                          gz_in0)),
          "ratio", ga.count);
      put("crypto.apply_us", MeanUs(ca.total_ns, ca.count), "us", ca.count);
      put("crypto.reverse_us", MeanUs(cr.total_ns, cr.count), "us", cr.count);
    }
    {
      Sums a = S(kAdmit, -1, -1, 1), b = S(kBreaker, -1, -1, 1);
      put("admit.self_us", MeanUs(a.self_ns + b.self_ns, a.count), "us",
          a.count);
      put("admit.refused_frac", Ratio(a.refused, a.count), "ratio", a.count);
    }
    {
      Sums s = S(kShard, -1, -1, 1);
      Sums in_mg = S(kShard, -1, kReqMultiGet, -1);
      put("shard.self_us", MeanUs(s.self_ns, s.count), "us", s.count);
      put("shard.calls_per_multiget", Ratio(in_mg.count, n_mg), "count", n_mg);
      double max_calls = 0, sum_calls = 0;
      for (size_t i = 0; i < stack.shard_children.size(); ++i) {
        const double d =
            static_cast<double>(stack.shard_children[i]->calls() - child0[i]);
        max_calls = std::max(max_calls, d);
        sum_calls += d;
      }
      put("shard.imbalance",
          Ratio(max_calls, sum_calls / std::max<size_t>(
                                           1, stack.shard_children.size())),
          "ratio", static_cast<size_t>(sum_calls));
    }
    {
      Sums p = S(kReplica, kSpanPut, -1, 1), g = S(kReplica, kSpanGet, -1, 1);
      Sums member_gets = S(kLsm, kSpanGet, -1, 1);
      put("replica.put_self_us", MeanUs(p.self_ns, p.count), "us", p.count);
      put("replica.get_self_us", MeanUs(g.self_ns, g.count), "us", g.count);
      put("replica.member_reads_per_get", Ratio(member_gets.count, g.count),
          "count", g.count);
    }
    {
      Sums fp = S(kLsm, kSpanPut, -1, 1), fgt = S(kLsm, kSpanGet, -1, 1),
           bp = S(kLsm, kSpanPut, -1, 0);
      put("store.lsm.fg_put_us", MeanUs(fp.self_ns, fp.count), "us", fp.count);
      put("store.lsm.fg_get_us", MeanUs(fgt.self_ns, fgt.count), "us",
          fgt.count);
      put("store.lsm.bg_apply_us", MeanUs(bp.total_ns, bp.count), "us",
          bp.count);
    }
    {
      Sums all = S(kCloud, -1, -1, -1);
      put("store.cloud.call_us", MeanUs(all.total_ns, all.count), "us",
          all.count);
      put("store.cloud.calls_per_op", Ratio(all.count, ops), "count",
          r.attempted);
      const HistDelta req = Minus(HistogramNow("dstore_cloud_request_ms", {}),
                                  req0);
      put("store.cloud.server_request_us",
          Ratio(req.sum * 1000.0, static_cast<double>(req.count)), "us",
          req.count);
      const HistDelta qw = Minus(
          HistogramNow("dstore_admit_queue_wait_ms", {{"queue", "cloud"}}),
          qw0);
      put("net.server_queue_wait_p99_us", HistPercentile(qw, 99) * 1000.0,
          "us", qw.count);
    }
    // Op types differ up to tenfold in latency, so a p50 over all ops falls
    // between them; compare each type's p50 and weight it by its count.
    double overhead = 0;
    size_t overhead_n = 0;
    for (int t = 0; t < kOpTypes; ++t) {
      auto& v = r.latency[t];
      if (v.empty() || untraced_p50_us[t] == 0) continue;
      overhead += static_cast<double>(v.size()) *
                  (Us(Percentile(&v, 50)) / untraced_p50_us[t] - 1);
      overhead_n += v.size();
    }
    put("obs.trace_overhead_frac", Ratio(overhead, overhead_n), "ratio",
        overhead_n);

    // Self-time shares: foreground self time plus parallel/background time.
    double total_share = 0;
    std::map<std::string, double> share;
    for (int l = 0; l < kLayers; ++l) {
      const Sums fg = S(l, -1, -1, 1), bg = S(l, -1, -1, 0);
      std::string name = l == kBreaker ? "admit" : LayerName(l);
      const double v = static_cast<double>(fg.self_ns + bg.total_ns);
      share[name] += v;
      total_share += v;
    }
    std::string top_layer;
    double top_v = -1;
    for (const auto& [name, v] : share) {
      char line[128];
      std::snprintf(line, sizeof(line), "self-time share %-12s %6.1f%%",
                    name.c_str(), 100 * Ratio(v, total_share));
      report.push_back(line);
      if (v > top_v) {
        top_v = v;
        top_layer = name;
      }
    }
    const bool chosen_ok =
        ("," + c.chosen_layers + ",").find("," + top_layer + ",") !=
        std::string::npos;
    report.push_back("prediction largest self-time share in {" +
                     c.chosen_layers + "}: " + top_layer + " -> " +
                     (chosen_ok ? "PASS" : "FAIL"));
    const double hr = m["cache.hit_ratio"].value;
    char hr_line[160];
    std::snprintf(hr_line, sizeof(hr_line),
                  "prediction cache.hit_ratio in [%.2f, %.2f]: %.3f -> %s",
                  c.hit_ratio_min, c.hit_ratio_max, hr,
                  hr >= c.hit_ratio_min && hr <= c.hit_ratio_max ? "PASS"
                                                                 : "FAIL");
    report.push_back(hr_line);
    if (n_mg > 0) {
      // Batch collapse: each cache-missed key of a MultiGet (one admit call
      // each) costs one ShardedStore call and one backend round trip.
      const Sums a = S(kAdmit, -1, kReqMultiGet, -1);
      const Sums sh = S(kShard, -1, kReqMultiGet, -1);
      const Sums cl = S(kCloud, -1, kReqMultiGet, -1);
      const bool collapse = a.count == sh.count && sh.count == cl.count;
      report.push_back(
          "prediction multiget batch collapse (missed keys = shard calls = "
          "backend round trips): " +
          std::to_string(a.count) + " / " + std::to_string(sh.count) + " / " +
          std::to_string(cl.count) + " -> " + (collapse ? "PASS" : "FAIL"));
    }
    target.top.reset();
    setup.stack.reset();
    if (!SelfTest(c, &report)) checker.Violation("wrapper self-test failed");
  }

  std::vector<double> sorted = setup_seconds;
  std::sort(sorted.begin(), sorted.end());
  put("setup_s", sorted[sorted.size() / 2], "s", sorted.size());

  const bool lag_ok = Us(lag_p99) <= kLagBoundUs;
  const bool correct = checker.violations() == 0;
  for (const auto& msg : checker.messages()) report.push_back("VIOLATION " + msg);

  std::ostringstream out;
  out.precision(10);
  out << "{\"workload\": \"" << JsonEscape(c.workload) << "\", \"seed\": "
      << c.seed << ", \"trace\": " << (c.trace ? 1 : 0)
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"valid\": " << (lag_ok ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"fingerprint\": \"" << std::hex << fingerprint << std::dec
      << "\", \"generator_lag_p99_us\": " << Us(lag_p99)
      << ", \"lag_bound_us\": " << kLagBoundUs
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"pool_threads\": " << pool.num_threads()
      << ", \"lsm_fs\": \"" << FsType(c.workdir) << "\""
      << ", \"compiler\": \"" << JsonEscape(__VERSION__) << "\""
      << ", \"setup_runs_s\": [";
  for (size_t i = 0; i < setup_seconds.size(); ++i) {
    out << (i ? ", " : "") << setup_seconds[i];
  }
  out << "], \"report\": [";
  for (size_t i = 0; i < report.size(); ++i) {
    out << (i ? ", " : "") << "\"" << JsonEscape(report[i]) << "\"";
  }
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << (std::isfinite(metric.value) ? metric.value : 0.0)
        << ", \"unit\": \"" << metric.unit
        << "\", \"samples\": " << metric.samples << "}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  pool.Shutdown();
  if (!correct) return 1;
  return lag_ok ? 0 : 3;
}

}  // namespace
}  // namespace macrobench

int main(int argc, char** argv) { return macrobench::Run(argc, argv); }
