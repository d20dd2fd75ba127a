#include "core/exec/jit/cache.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/exec/jit/compiler.hpp"

namespace cyclone::exec::jit {

namespace fs = std::filesystem;

namespace {

uint64_t fnv1a(const std::string& s, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::shared_ptr<LoadedModule> load_so(const std::string& path) {
  void* handle = dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!handle) return nullptr;
  return std::make_shared<LoadedModule>(handle);
}

}  // namespace

LoadedModule::~LoadedModule() {
  if (handle_) dlclose(handle_);
}

void* LoadedModule::symbol(const std::string& name) const {
  return handle_ ? dlsym(handle_, name.c_str()) : nullptr;
}

KernelCache::KernelCache(std::string dir, size_t max_memory_entries)
    : dir_(dir.empty() ? default_dir() : std::move(dir)),
      max_memory_entries_(max_memory_entries == 0 ? 1 : max_memory_entries) {}

KernelCache& KernelCache::global() {
  static KernelCache cache;
  return cache;
}

std::string KernelCache::default_dir() {
  if (const char* env = std::getenv("CYCLONE_JIT_CACHE_DIR")) return env;
  if (const char* xdg = std::getenv("XDG_CACHE_HOME")) {
    return std::string(xdg) + "/cyclone/jit";
  }
  if (const char* home = std::getenv("HOME")) {
    return std::string(home) + "/.cache/cyclone/jit";
  }
  return "/tmp/cyclone-jit";
}

std::string KernelCache::make_key(const std::string& source) {
  return "cyk-" + hex16(fnv1a(toolchain_fingerprint(), fnv1a(source)));
}

void KernelCache::count(long CacheStats::*counter) {
  std::lock_guard<std::mutex> lock(mu_);
  ++(stats_.*counter);
}

std::shared_ptr<LoadedModule> KernelCache::find(const std::string& key) {
  std::string unused;
  return resolve(key, nullptr, unused);
}

std::shared_ptr<LoadedModule> KernelCache::get(const std::string& key, const std::string& source,
                                               std::string& error) {
  return resolve(key, &source, error);
}

std::shared_ptr<LoadedModule> KernelCache::resolve(const std::string& key,
                                                   const std::string* source,
                                                   std::string& error) {
  std::promise<Outcome> promise;
  for (;;) {
    std::shared_future<Outcome> pending;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Level 1: loaded modules.
      auto it = index_.find(key);
      if (it != index_.end()) {
        ++stats_.mem_hits;
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->second;
      }
      auto flight = in_flight_.find(key);
      if (flight == in_flight_.end()) {
        in_flight_.emplace(key, promise.get_future().share());
        break;  // this thread loads or builds the key
      }
      if (!source) return nullptr;  // find() never waits on a compile
      pending = flight->second;
    }
    const Outcome& done = pending.get();
    if (done.mod) {
      count(&CacheStats::mem_hits);
      return done.mod;
    }
    if (!done.error.empty()) {
      error = done.error;
      return nullptr;
    }
    // The flight was a find() that missed on disk: take the key over.
  }

  Outcome out;
  try {
    out = load_or_build(key, source);
  } catch (const std::exception& e) {
    out = Outcome{nullptr, std::string("kernel cache: ") + e.what()};
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (out.mod) {
      lru_.emplace_front(key, out.mod);
      index_[key] = lru_.begin();
      while (lru_.size() > max_memory_entries_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++stats_.evictions;
      }
    }
    in_flight_.erase(key);
  }
  promise.set_value(out);
  if (!out.mod) error = out.error;
  return out.mod;
}

KernelCache::Outcome KernelCache::load_or_build(const std::string& key,
                                                const std::string* source) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  const std::string so_path = dir_ + "/" + key + ".so";
  const std::string src_path = dir_ + "/" + key + ".cpp";

  // Level 2: on-disk object from an earlier process.
  if (fs::exists(so_path, ec)) {
    if (auto mod = load_so(so_path)) {
      count(&CacheStats::disk_hits);
      return {mod, {}};
    }
    // Poisoned entry (truncated write, wrong architecture, stale ABI that
    // slipped past the key, deliberate corruption): discard and rebuild.
    count(&CacheStats::poisoned);
    fs::remove(so_path, ec);
    fs::remove(src_path, ec);
  }
  if (!source) return {};

  // Compile. Write source and object under temporary names and rename
  // into place so a concurrent compile or process never loads a partial
  // file. The names are unique per compile (pid + process-wide sequence
  // number), and keep the real extension last — the compiler infers the
  // language from it.
  static std::atomic<unsigned long> sequence{0};
  const std::string tmp_tag = ".tmp" + std::to_string(static_cast<long>(::getpid())) + "-" +
                              std::to_string(sequence.fetch_add(1));
  const std::string src_tmp = dir_ + "/" + key + tmp_tag + ".cpp";
  const std::string so_tmp = dir_ + "/" + key + tmp_tag + ".so";
  {
    std::ofstream os(src_tmp);
    os << *source;
    if (!os) return {nullptr, "cannot write " + src_tmp};
  }
  std::string error;
  if (!compile_shared_object(src_tmp, so_tmp, error)) {
    std::remove(src_tmp.c_str());
    return {nullptr, error};
  }
  count(&CacheStats::compiles);
  fs::rename(src_tmp, src_path, ec);
  fs::rename(so_tmp, so_path, ec);
  if (auto mod = load_so(so_path)) return {mod, {}};
  const char* why = dlerror();
  return {nullptr, std::string("dlopen failed after compile: ") + (why ? why : "?")};
}

CacheStats KernelCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void KernelCache::clear_memory() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

}  // namespace cyclone::exec::jit
