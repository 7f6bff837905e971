#include "fault/fault_store.h"

namespace dstore {

namespace {

// Flips one byte of `value` at a position derived from the fault's sequence
// number, returning a new corrupted copy.
ValuePtr CorruptValue(const ValuePtr& value, uint64_t seq) {
  Bytes mangled = *value;
  if (!mangled.empty()) {
    mangled[seq % mangled.size()] ^= 0xFF;
  }
  return MakeValue(std::move(mangled));
}

}  // namespace

std::optional<fault::Fault> FaultInjectingStore::Hit(const char* op) {
  std::optional<fault::Fault> fired = plan_->Evaluate(site_, op);
  if (fired.has_value() && fired->latency_nanos > 0) {
    clock_->SleepFor(fired->latency_nanos);
  }
  return fired;
}

Status FaultInjectingStore::Put(const std::string& key, ValuePtr value) {
  const auto fired = Hit("put");
  if (!fired.has_value() || fired->kind == fault::FaultKind::kLatency) {
    return inner()->Put(key, std::move(value));
  }
  if (fired->kind == fault::FaultKind::kCorrupt) {
    return inner()->Put(key, value != nullptr ? CorruptValue(value, fired->seq)
                                             : nullptr);
  }
  if (fired->kind == fault::FaultKind::kErrorAfterApply) {
    inner()->Put(key, std::move(value)).ok();  // the write lands regardless
  }
  return fired->ToStatus(site_, "put");
}

StatusOr<ValuePtr> FaultInjectingStore::Get(const std::string& key) {
  const auto fired = Hit("get");
  if (!fired.has_value() || fired->kind == fault::FaultKind::kLatency) {
    return inner()->Get(key);
  }
  if (fired->kind == fault::FaultKind::kCorrupt) {
    DSTORE_ASSIGN_OR_RETURN(ValuePtr value, inner()->Get(key));
    return CorruptValue(value, fired->seq);
  }
  if (fired->kind == fault::FaultKind::kErrorAfterApply) {
    inner()->Get(key).ok();  // the read happens, the result is dropped
  }
  return fired->ToStatus(site_, "get");
}

Status FaultInjectingStore::Delete(const std::string& key) {
  const auto fired = Hit("delete");
  if (!fired.has_value() || fired->kind == fault::FaultKind::kLatency ||
      fired->kind == fault::FaultKind::kCorrupt) {
    return inner()->Delete(key);
  }
  if (fired->kind == fault::FaultKind::kErrorAfterApply) {
    inner()->Delete(key).ok();  // the delete lands regardless
  }
  return fired->ToStatus(site_, "delete");
}

StatusOr<bool> FaultInjectingStore::Contains(const std::string& key) {
  const auto fired = Hit("contains");
  if (!fired.has_value() || fired->kind == fault::FaultKind::kLatency ||
      fired->kind == fault::FaultKind::kCorrupt) {
    return inner()->Contains(key);
  }
  return fired->ToStatus(site_, "contains");
}

StatusOr<std::vector<std::string>> FaultInjectingStore::ListKeys() {
  const auto fired = Hit("listkeys");
  if (!fired.has_value() || fired->kind == fault::FaultKind::kLatency ||
      fired->kind == fault::FaultKind::kCorrupt) {
    return inner()->ListKeys();
  }
  return fired->ToStatus(site_, "listkeys");
}

StatusOr<size_t> FaultInjectingStore::Count() {
  const auto fired = Hit("count");
  if (!fired.has_value() || fired->kind == fault::FaultKind::kLatency ||
      fired->kind == fault::FaultKind::kCorrupt) {
    return inner()->Count();
  }
  return fired->ToStatus(site_, "count");
}

Status FaultInjectingStore::Clear() {
  const auto fired = Hit("clear");
  if (!fired.has_value() || fired->kind == fault::FaultKind::kLatency ||
      fired->kind == fault::FaultKind::kCorrupt) {
    return inner()->Clear();
  }
  if (fired->kind == fault::FaultKind::kErrorAfterApply) {
    inner()->Clear().ok();
  }
  return fired->ToStatus(site_, "clear");
}

StatusOr<ConditionalGetResult> FaultInjectingStore::GetIfChanged(
    const std::string& key, const std::string& etag) {
  const auto fired = Hit("getifchanged");
  if (!fired.has_value() || fired->kind == fault::FaultKind::kLatency) {
    return inner()->GetIfChanged(key, etag);
  }
  if (fired->kind == fault::FaultKind::kCorrupt) {
    DSTORE_ASSIGN_OR_RETURN(ConditionalGetResult result,
                            inner()->GetIfChanged(key, etag));
    if (!result.not_modified && result.value != nullptr) {
      result.value = CorruptValue(result.value, fired->seq);
    }
    return result;
  }
  return fired->ToStatus(site_, "getifchanged");
}

std::vector<StatusOr<ValuePtr>> FaultInjectingStore::MultiGet(
    const std::vector<std::string>& keys) {
  const auto fired = Hit("multiget");
  if (!fired.has_value() || fired->kind == fault::FaultKind::kLatency) {
    return inner()->MultiGet(keys);
  }
  if (fired->kind == fault::FaultKind::kCorrupt) {
    std::vector<StatusOr<ValuePtr>> results = inner()->MultiGet(keys);
    for (auto& result : results) {
      if (result.ok()) result = CorruptValue(*result, fired->seq);
    }
    return results;
  }
  std::vector<StatusOr<ValuePtr>> results;
  results.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    results.push_back(fired->ToStatus(site_, "multiget"));
  }
  return results;
}

Status FaultInjectingStore::MultiPut(
    const std::vector<std::pair<std::string, ValuePtr>>& entries) {
  const auto fired = Hit("multiput");
  if (!fired.has_value() || fired->kind == fault::FaultKind::kLatency ||
      fired->kind == fault::FaultKind::kCorrupt) {
    return inner()->MultiPut(entries);
  }
  if (fired->kind == fault::FaultKind::kErrorAfterApply) {
    inner()->MultiPut(entries).ok();  // the batch lands regardless
  }
  return fired->ToStatus(site_, "multiput");
}

}  // namespace dstore
