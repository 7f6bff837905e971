#ifndef DSTORE_STORE_FORWARDING_STORE_H_
#define DSTORE_STORE_FORWARDING_STORE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "store/key_value.h"

namespace dstore {

// Base for KeyValueStore decorators: forwards every virtual — including the
// batch calls and GetIfChanged — to the wrapped store, so a decorator
// overrides only the calls whose behaviour it changes. Without it, each
// decorator re-typed the same forwarding methods, and any call it forgot
// (MultiGet, MultiPut, GetIfChanged) fell back to the KeyValueStore default:
// a batch collapsed into per-key round trips and a revalidation into a full
// read plus a client-side digest. With it, batches and conditional reads
// cross the decorator in one piece unless the decorator says otherwise.
//
// Name() forwards too; decorators that mark themselves ("+retry") override
// it.
class ForwardingStore : public KeyValueStore {
 public:
  explicit ForwardingStore(std::shared_ptr<KeyValueStore> inner)
      : inner_(std::move(inner)) {}

  Status Put(const std::string& key, ValuePtr value) override {
    return inner_->Put(key, std::move(value));
  }
  StatusOr<ValuePtr> Get(const std::string& key) override {
    return inner_->Get(key);
  }
  Status Delete(const std::string& key) override {
    return inner_->Delete(key);
  }
  StatusOr<bool> Contains(const std::string& key) override {
    return inner_->Contains(key);
  }
  StatusOr<std::vector<std::string>> ListKeys() override {
    return inner_->ListKeys();
  }
  StatusOr<size_t> Count() override { return inner_->Count(); }
  Status Clear() override { return inner_->Clear(); }
  StatusOr<ConditionalGetResult> GetIfChanged(
      const std::string& key, const std::string& etag) override {
    return inner_->GetIfChanged(key, etag);
  }
  std::vector<StatusOr<ValuePtr>> MultiGet(
      const std::vector<std::string>& keys) override {
    return inner_->MultiGet(keys);
  }
  Status MultiPut(
      const std::vector<std::pair<std::string, ValuePtr>>& entries) override {
    return inner_->MultiPut(entries);
  }
  std::string Name() const override { return inner_->Name(); }

  KeyValueStore* inner() const { return inner_.get(); }

 private:
  const std::shared_ptr<KeyValueStore> inner_;
};

}  // namespace dstore

#endif  // DSTORE_STORE_FORWARDING_STORE_H_
