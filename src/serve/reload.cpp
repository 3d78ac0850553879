#include "serve/reload.hpp"

#include <chrono>
#include <utility>

#include "fault/fault.hpp"
#include "util/log.hpp"

namespace tmm::serve {

namespace {

const util::lockorder::LockClass kReloadLockClass("serve.registry.reload");
const util::lockorder::LockClass kGenerationLockClass(
    "serve.registry.generation");

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

RegistryManager::RegistryManager(std::string dir, Validator validator)
    : dir_(std::move(dir)),
      validator_(std::move(validator)),
      reload_mu_(kReloadLockClass),
      gen_mu_(kGenerationLockClass),
      current_(std::make_shared<const ModelRegistry>()) {}

RegistryManager::RegistryManager(const ModelRegistry& fixed)
    : reload_mu_(kReloadLockClass),
      gen_mu_(kGenerationLockClass),
      current_(std::shared_ptr<const ModelRegistry>(), &fixed) {}

std::size_t RegistryManager::load_initial() {
  util::MutexLock pass(reload_mu_);
  auto fresh = std::make_shared<ModelRegistry>();
  std::size_t loaded = fresh->load_directory(dir_);
  fresh->set_generation(next_generation_.fetch_add(1, std::memory_order_relaxed));
  publish(std::move(fresh), nullptr);
  return loaded;
}

std::shared_ptr<const ModelRegistry> RegistryManager::current() const {
  util::MutexLock lock(gen_mu_);
  return current_;
}

std::shared_ptr<const ModelRegistry> RegistryManager::publish(
    std::shared_ptr<const ModelRegistry> fresh, double* swap_us) {
  std::shared_ptr<const ModelRegistry> old;
  auto t0 = std::chrono::steady_clock::now();
  {
    util::MutexLock lock(gen_mu_);
    old = std::move(current_);
    current_ = std::move(fresh);
    last_error_.clear();
  }
  if (swap_us != nullptr) *swap_us = elapsed_us(t0);
  // `old` is returned (and dropped by the caller outside all locks) so
  // a last-pin registry destruction never runs under gen_mu_.
  return old;
}

ReloadResult RegistryManager::reload() {
  util::MutexLock pass(reload_mu_);
  ReloadResult result;
  auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const ModelRegistry> retired;
  try {
    fault::inject("serve.reload_open");
    auto fresh = std::make_shared<ModelRegistry>();
    result.models_loaded = fresh->load_directory(dir_);
    result.load_failures = fresh->failures().size();
    fault::inject("serve.reload_validate");
    // Stricter than startup: a reload must not shrink the model set.
    if (!fresh->failures().empty()) {
      const auto& first = fresh->failures().front();
      throw fault::FlowError(
          fault::ErrorCode::kUnavailable, "serve.reload",
          "reload rejected: " + std::to_string(fresh->failures().size()) +
              " model(s) failed to load, first: " + first.path + ": " +
              first.error);
    }
    if (validator_) {
      std::string verdict = validator_(dir_);
      if (!verdict.empty()) {
        throw fault::FlowError(fault::ErrorCode::kConfig, "serve.reload",
                               "reload rejected by validator: " + verdict);
      }
    }
    result.generation = next_generation_.fetch_add(1, std::memory_order_relaxed);
    fresh->set_generation(result.generation);
    // Injected before the generation lock: the fire hook may dump the
    // flight recorder (obs locks), which must not nest under gen_mu_.
    fault::inject("serve.reload_swap");
    retired = publish(std::move(fresh), &result.swap_us);
    result.ok = true;
    result.reload_us = elapsed_us(t0);
    reloads_ok_.fetch_add(1, std::memory_order_relaxed);
    last_swap_us_.store(static_cast<std::uint64_t>(result.swap_us),
                        std::memory_order_relaxed);
    log_info("serve: reload ok, generation %llu, %zu model(s), swap %.0f us",
             static_cast<unsigned long long>(result.generation),
             result.models_loaded, result.swap_us);
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
    result.reload_us = elapsed_us(t0);
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    {
      util::MutexLock lock(gen_mu_);
      last_error_ = result.error;
    }
    log_warn("serve: reload failed, keeping current generation: %s",
             result.error.c_str());
  }
  return result;
}

RegistryManager::Counters RegistryManager::counters() const {
  Counters c;
  c.reloads_ok = reloads_ok_.load(std::memory_order_relaxed);
  c.reload_failures = reload_failures_.load(std::memory_order_relaxed);
  c.last_swap_us = last_swap_us_.load(std::memory_order_relaxed);
  {
    util::MutexLock lock(gen_mu_);
    c.generation = current_ ? current_->generation() : 0;
    c.last_error = last_error_;
  }
  return c;
}

}  // namespace tmm::serve
