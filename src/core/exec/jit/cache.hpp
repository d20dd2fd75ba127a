#pragma once

#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace cyclone::exec::jit {

/// A dlopen'd kernel module. Closes the handle on destruction; kernels keep
/// their module alive through the shared_ptr, so an in-memory cache eviction
/// never unloads code that is still bound.
class LoadedModule {
 public:
  explicit LoadedModule(void* handle) : handle_(handle) {}
  ~LoadedModule();
  LoadedModule(const LoadedModule&) = delete;
  LoadedModule& operator=(const LoadedModule&) = delete;

  /// Resolve an exported symbol; nullptr when absent.
  [[nodiscard]] void* symbol(const std::string& name) const;

 private:
  void* handle_ = nullptr;
};

struct CacheStats {
  long compiles = 0;    ///< source actually compiled by the host toolchain
  long mem_hits = 0;    ///< served from the in-memory module table
  long disk_hits = 0;   ///< .so found on disk and dlopen'd (no compile)
  long evictions = 0;   ///< in-memory LRU evictions
  long poisoned = 0;    ///< on-disk entries that failed to load and were rebuilt
};

/// Two-level kernel cache: an in-memory LRU of loaded modules in front of an
/// on-disk store of generated sources and shared objects that survives
/// process restarts (Sec. V-B's "compile once, run many" workflow: the
/// second run of a model skips all codegen and compilation). Entries are
/// per kernel: the key addresses one generated unit by content, so every
/// program, rank and process that emits the same kernel shares its object.
///
/// Disk location: $CYCLONE_JIT_CACHE_DIR, else $XDG_CACHE_HOME/cyclone/jit,
/// else $HOME/.cache/cyclone/jit, else /tmp/cyclone-jit. Files are written
/// to a temporary name unique to the compile and renamed into place, so
/// concurrent compiles and processes never observe a half-written object.
///
/// Thread-safe. The host compile runs outside the cache lock, so distinct
/// keys compile concurrently; concurrent requests for one key wait on its
/// single in-flight load or compile, so a key compiles at most once per
/// process.
class KernelCache {
 public:
  explicit KernelCache(std::string dir = {}, size_t max_memory_entries = 64);

  /// Process-wide cache (default disk dir). All Programs share it, so two
  /// ranks running the same program compile each of its kernels once.
  static KernelCache& global();

  /// Resolve the cache directory from the environment as described above.
  static std::string default_dir();

  /// Cache key for a generated unit: a hash of the source and the toolchain
  /// fingerprint, so identical sources map to identical keys across
  /// programs and processes.
  static std::string make_key(const std::string& source);

  /// The module stored under `key` if it is loaded or on disk (a poisoned
  /// disk entry is deleted, as in get()); nullptr otherwise, including
  /// while another thread is still building it. Never compiles.
  std::shared_ptr<LoadedModule> find(const std::string& key);

  /// Get the compiled module for `source` under `key`: memory hit, else
  /// disk hit (dlopen of the stored .so), else compile. A stored object
  /// that fails to load — truncated, stale architecture, hand-poisoned — is
  /// deleted and rebuilt rather than propagated. Returns nullptr with
  /// `error` set when compilation is impossible (no host compiler).
  std::shared_ptr<LoadedModule> get(const std::string& key, const std::string& source,
                                    std::string& error);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Drop in-memory entries (disk survives). Test hook for simulating a
  /// process restart.
  void clear_memory();

 private:
  struct Outcome {
    std::shared_ptr<LoadedModule> mod;
    std::string error;
  };

  /// find() when `source` is null, get() otherwise.
  std::shared_ptr<LoadedModule> resolve(const std::string& key, const std::string* source,
                                        std::string& error);
  /// Disk lookup, then (with a source) compile. Runs without mu_ held.
  Outcome load_or_build(const std::string& key, const std::string* source);
  void count(long CacheStats::*counter);

  std::string dir_;
  size_t max_memory_entries_;
  mutable std::mutex mu_;
  /// LRU: most recently used at the front.
  std::list<std::pair<std::string, std::shared_ptr<LoadedModule>>> lru_;
  std::map<std::string, decltype(lru_)::iterator> index_;
  /// Keys being loaded or compiled right now, with the result their
  /// waiters receive.
  std::map<std::string, std::shared_future<Outcome>> in_flight_;
  CacheStats stats_;
};

}  // namespace cyclone::exec::jit
