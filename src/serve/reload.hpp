#pragma once
// Generational hot-reload for the serving engine (docs/SERVING.md,
// "Zero-downtime hot-reload").
//
// RegistryManager wraps the immutable ModelRegistry in an RCU-style
// generation: current() hands out a `shared_ptr<const ModelRegistry>`
// that pins one published generation for as long as the caller holds
// it, and reload() builds a *new* registry from the models directory,
// validates it, and atomically swaps the pointer. In-flight requests
// keep evaluating against the generation they pinned; the old
// generation is destroyed when the last pin drops. No request ever
// observes a half-loaded registry — the only shared mutation is the
// pointer assignment under a leaf mutex.
//
// Rollback policy: reload() never throws and never degrades. Any
// failure — unreadable directory, a single corrupt `.tmb`, a validator
// veto, an injected fault — leaves the previous generation serving and
// is reported through the returned ReloadResult and counters() (the
// `tmm stat` reload section). This is stricter than startup
// (load_initial() keeps per-file isolation and may publish a degraded
// registry, exit 3): a deployment that *worsens* the model set must
// not replace one that works.
//
// Fault sites: serve.reload_open (before the directory scan),
// serve.reload_validate (before validation), serve.reload_swap (before
// the pointer swap — deliberately outside the generation lock so the
// fire hook's flight dump cannot add a lock-order edge under it).
//
// Lock hierarchy: serve.registry.reload (serializes whole reload
// passes) -> serve.registry.generation (leaf; guards only the pointer
// and last-result fields, held for an assignment).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "serve/registry.hpp"
#include "util/mutex.hpp"

namespace tmm::serve {

/// Outcome of one reload() pass.
struct ReloadResult {
  bool ok = false;
  std::uint64_t generation = 0;   ///< published generation (ok only)
  std::size_t models_loaded = 0;  ///< models the fresh load picked up
  std::size_t load_failures = 0;  ///< per-file failures in the fresh load
  double reload_us = 0.0;         ///< whole pass: load + validate + swap
  double swap_us = 0.0;           ///< pointer-swap critical section only
  std::string error;              ///< diagnostic when !ok
};

class RegistryManager {
 public:
  /// Pre-swap validation callback, run over the models directory after
  /// a clean load; a non-empty return is a veto with that diagnostic.
  /// The CLI wires this to analysis::lint_registry_dir (S001–S003) —
  /// a std::function because tmm_analysis links tmm_serve, not the
  /// other way around.
  using Validator = std::function<std::string(const std::string& dir)>;

  explicit RegistryManager(std::string dir, Validator validator = {});

  /// A one-generation manager over a registry the caller keeps alive:
  /// current() is a non-owning view of `fixed`, whose generation stays
  /// as it is. There is no directory to reload from, so reload() fails
  /// and rolls back like any failed load.
  explicit RegistryManager(const ModelRegistry& fixed);

  /// Startup load: same semantics as ModelRegistry::load_directory
  /// (per-file isolation, throws kIo/kUnavailable on fatal problems).
  /// Publishes generation 1. Returns the number of models loaded.
  std::size_t load_initial();

  /// The currently-published generation. Never null: before
  /// load_initial() this is an empty generation-0 registry. Holding the
  /// returned pointer pins that generation alive.
  std::shared_ptr<const ModelRegistry> current() const;

  /// Build + validate + swap a fresh generation from the directory.
  /// Never throws; on any failure the previous generation keeps
  /// serving and the result carries the diagnostic. Concurrent calls
  /// serialize.
  ReloadResult reload();

  /// Reload telemetry for the stat channel.
  struct Counters {
    std::uint64_t generation = 0;
    std::uint64_t reloads_ok = 0;
    std::uint64_t reload_failures = 0;
    std::uint64_t last_swap_us = 0;  ///< swap section of the last success
    std::string last_error;          ///< last failure diagnostic ("" = none)
  };
  Counters counters() const;

  const std::string& dir() const noexcept { return dir_; }

 private:
  std::shared_ptr<const ModelRegistry> publish(
      std::shared_ptr<const ModelRegistry> fresh, double* swap_us);

  const std::string dir_;
  const Validator validator_;

  /// Lock class "serve.registry.reload": one reload pass at a time.
  mutable util::Mutex reload_mu_;
  /// Lock class "serve.registry.generation": leaf; pointer + last-result.
  mutable util::Mutex gen_mu_;
  std::shared_ptr<const ModelRegistry> current_ TMM_GUARDED_BY(gen_mu_);
  std::string last_error_ TMM_GUARDED_BY(gen_mu_);

  // Invariant: monotonic event tallies read only for reporting; the
  // generation counter's uniqueness comes from fetch_add, so relaxed
  // suffices throughout.
  std::atomic<std::uint64_t> next_generation_{1};
  std::atomic<std::uint64_t> reloads_ok_{0};
  std::atomic<std::uint64_t> reload_failures_{0};
  std::atomic<std::uint64_t> last_swap_us_{0};
};

}  // namespace tmm::serve
