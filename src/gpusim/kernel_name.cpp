#include "src/gpusim/kernel_name.h"

#include <deque>
#include <mutex>
#include <unordered_map>

#include "src/util/check.h"

namespace minuet {
namespace {

struct Registry {
  std::mutex mutex;  // guards names and index
  // deque: grow without moving, so string_view keys into the stored names
  // (and name() references handed out) stay valid forever.
  std::deque<std::string> names;
  std::unordered_map<std::string_view, uint32_t> index;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // leaked: ids outlive everything
  return *registry;
}

}  // namespace

KernelId KernelId::Intern(std::string_view name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.index.find(name);
  if (it != registry.index.end()) {
    return KernelId(it->second);
  }
  MINUET_CHECK_LT(registry.names.size(), static_cast<size_t>(UINT32_MAX));
  const uint32_t id = static_cast<uint32_t>(registry.names.size());
  registry.names.emplace_back(name);
  registry.index.emplace(registry.names.back(), id);
  return KernelId(id);
}

size_t KernelId::Count() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.names.size();
}

const std::string& KernelId::name() const {
  // The string never changes once stored; the lock covers the deque's block
  // map, which a concurrent Intern may reallocate.
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.names[index_];
}

}  // namespace minuet
