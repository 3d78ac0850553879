#pragma once
// Boundary-timing query engine for the serving layer: answers
// (model, boundary constraints) -> BoundarySnapshot queries against the
// registry generation a RegistryManager publishes (a fixed registry is
// a one-generation manager), through a sharded LRU result cache.
//
// Concurrency model: the Evaluator itself is shared and thread-safe
// (the cache shards its locks); each worker thread owns a Scratch that
// holds one lazily-built Sta engine per model plus reusable buffers, so
// a steady-state cache miss allocates nothing.
//
// Cache keys are the raw IEEE-754 bit patterns of the constraint tuple
// (plus the model name and registry generation — a result computed
// against one hot-reload generation can never answer a query against
// another). With quantum_ps == 0 (the default) constraints
// are keyed and evaluated exactly, so served results stay bit-identical
// to the offline path; with quantum_ps > 0 constraints are snapped to
// the grid *before both keying and evaluation*, trading boundary
// precision for hit rate — a response is always the exact STA answer
// for the (possibly quantized) constraints it was computed from, never
// a neighbouring query's answer for different effective constraints.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/registry.hpp"
#include "serve/reload.hpp"
#include "sta/propagation.hpp"
#include "util/mutex.hpp"

namespace tmm::serve {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Sharded LRU cache from an opaque key string to a BoundarySnapshot.
/// Shard = hash(key) % num_shards, one mutex + intrusive LRU list per
/// shard; capacity is split evenly across shards.
class ResultCache {
 public:
  ResultCache(std::size_t capacity, std::size_t num_shards = 8);

  /// Copy the cached snapshot into `out` (reusing its storage) and
  /// promote the entry to most-recently-used. False on miss.
  bool lookup(const std::string& key, BoundarySnapshot& out);

  /// Insert (or refresh) the snapshot under `key`, evicting the
  /// least-recently-used entry of the shard when full.
  void insert(const std::string& key, const BoundarySnapshot& snap);

  CacheStats stats() const noexcept;
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    std::string key;
    BoundarySnapshot snap;
  };
  /// All shards share lock class "serve.cache.shard" (leaf lock; a
  /// thread never holds two shards at once — stats() visits them one
  /// at a time).
  struct Shard {
    Shard();  // out of line: binds mu to the shared lock class
    util::Mutex mu;
    std::list<Entry> lru TMM_GUARDED_BY(mu);  ///< front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index
        TMM_GUARDED_BY(mu);
  };

  Shard& shard_of(const std::string& key) noexcept;

  std::size_t capacity_;
  std::size_t per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Invariant: hit/miss/eviction tallies are per-event counters only
  // read for reporting; no data is published through them, so relaxed
  // suffices.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

class Evaluator {
 public:
  struct Options {
    /// Constraint quantization grid in ps/fF (0 = exact; see header).
    double quantum_ps = 0.0;
    std::size_t cache_capacity = 4096;
    std::size_t cache_shards = 8;
    Sta::Options sta;
  };

  /// Evaluate against whatever generation `manager` currently
  /// publishes. Each Scratch pins the generation it last saw and
  /// re-pins (dropping its per-model engines) when a reload swaps in a
  /// new one, so a worker mid-request keeps its registry alive even
  /// while the swap happens. Non-const: the server reaches the manager
  /// through here to run reloads (kReload / SIGHUP).
  Evaluator(RegistryManager& manager, Options opt);
  /// Evaluate against one registry the caller keeps alive (offline
  /// verification, unit tests): the Evaluator owns a one-generation
  /// RegistryManager over it (RegistryManager(const ModelRegistry&)).
  Evaluator(const ModelRegistry& registry, Options opt);

  /// Per-thread state: one Sta engine per model (built on first use)
  /// plus reusable key/constraint buffers. NOT thread-safe; one Scratch
  /// per worker.
  struct Scratch {
    std::unordered_map<const RegistryEntry*, std::unique_ptr<Sta>> engines;
    /// The generation the engines were built against.
    std::shared_ptr<const ModelRegistry> pinned;
    BoundaryConstraints qbc;
    std::string key;
  };

  struct Result {
    bool cache_hit = false;
  };

  /// Answer one query into `out` (storage reused). Throws FlowError:
  /// kUnavailable for an unknown model, kConfig on boundary-arity
  /// mismatch, kNumeric from the STA numeric scan.
  Result evaluate(const std::string& model_name,
                  const BoundaryConstraints& bc, BoundarySnapshot& out,
                  Scratch& scratch, bool bypass_cache = false);

  CacheStats cache_stats() const noexcept { return cache_.stats(); }
  const Options& options() const noexcept { return opt_; }

  /// Never null: the caller's manager or the owned one-generation one.
  RegistryManager& manager() const noexcept { return *manager_; }

 private:
  std::unique_ptr<RegistryManager> owned_;  ///< set by the registry ctor
  RegistryManager* manager_;
  Options opt_;
  ResultCache cache_;
};

}  // namespace tmm::serve
