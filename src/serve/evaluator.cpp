#include "serve/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "fault/fault.hpp"

namespace tmm::serve {

using fault::ErrorCode;
using fault::FlowError;

// ---------------------------------------------------------------------
// ResultCache

namespace {
const util::lockorder::LockClass kShardLockClass("serve.cache.shard");
}  // namespace

ResultCache::Shard::Shard() : mu(kShardLockClass) {}

ResultCache::ResultCache(std::size_t capacity, std::size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  if (num_shards > capacity && capacity > 0) num_shards = capacity;
  capacity_ = capacity;
  per_shard_ = capacity == 0 ? 0 : std::max<std::size_t>(1, capacity / num_shards);
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

ResultCache::Shard& ResultCache::shard_of(const std::string& key) noexcept {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

bool ResultCache::lookup(const std::string& key, BoundarySnapshot& out) {
  if (capacity_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Shard& s = shard_of(key);
  util::MutexLock lock(s.mu);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  const BoundarySnapshot& snap = it->second->snap;
  out.num_ports = snap.num_ports;
  out.slew.assign(snap.slew.begin(), snap.slew.end());
  out.at.assign(snap.at.begin(), snap.at.end());
  out.rat.assign(snap.rat.begin(), snap.rat.end());
  out.slack.assign(snap.slack.begin(), snap.slack.end());
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ResultCache::insert(const std::string& key,
                         const BoundarySnapshot& snap) {
  if (capacity_ == 0) return;
  Shard& s = shard_of(key);
  util::MutexLock lock(s.mu);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    // Concurrent miss on the same key: refresh in place.
    it->second->snap = snap;
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  if (s.lru.size() >= per_shard_) {
    s.index.erase(s.lru.back().key);
    s.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  s.lru.push_front(Entry{key, snap});
  s.index.emplace(key, s.lru.begin());
}

CacheStats ResultCache::stats() const noexcept {
  CacheStats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  for (const auto& s : shards_) {
    util::MutexLock lock(s->mu);
    st.entries += s->lru.size();
  }
  return st;
}

// ---------------------------------------------------------------------
// Evaluator

namespace {

double quantize(double v, double quantum) noexcept {
  if (quantum <= 0.0 || !std::isfinite(v)) return v;
  return std::round(v / quantum) * quantum;
}

void quantize_elrf(ElRf<double>& x, double quantum) noexcept {
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf)
      x(el, rf) = quantize(x(el, rf), quantum);
}

void append_bits(std::string& key, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  key.append(reinterpret_cast<const char*>(&bits), sizeof bits);
}

void append_elrf(std::string& key, const ElRf<double>& x) {
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) append_bits(key, x(el, rf));
}

}  // namespace

Evaluator::Evaluator(RegistryManager& manager, Options opt)
    : manager_(&manager),
      opt_(opt),
      cache_(opt.cache_capacity, opt.cache_shards) {}

Evaluator::Evaluator(const ModelRegistry& registry, Options opt)
    : owned_(std::make_unique<RegistryManager>(registry)),
      manager_(owned_.get()),
      opt_(opt),
      cache_(opt.cache_capacity, opt.cache_shards) {}

Evaluator::Result Evaluator::evaluate(const std::string& model_name,
                                      const BoundaryConstraints& bc,
                                      BoundarySnapshot& out,
                                      Scratch& scratch, bool bypass_cache) {
  // Pin the published generation for the whole request. On a swap the
  // per-model engines point into the old generation — drop them; the
  // old registry itself stays alive until every scratch re-pins.
  std::shared_ptr<const ModelRegistry> cur = manager_->current();
  if (scratch.pinned != cur) {
    scratch.engines.clear();
    scratch.pinned = std::move(cur);
  }
  const ModelRegistry* registry = scratch.pinned.get();
  const RegistryEntry* entry = registry->find(model_name);
  if (entry == nullptr)
    throw FlowError(ErrorCode::kUnavailable, "serve.evaluate",
                    "unknown model '" + model_name + "'");
  if (bc.pi.size() != entry->num_pis || bc.po.size() != entry->num_pos)
    throw FlowError(
        ErrorCode::kConfig, "serve.evaluate",
        "boundary arity mismatch for '" + model_name + "': request has " +
            std::to_string(bc.pi.size()) + " PIs / " +
            std::to_string(bc.po.size()) + " POs, model has " +
            std::to_string(entry->num_pis) + " / " +
            std::to_string(entry->num_pos),
        model_name);

  // Quantize once; the same values drive the cache key AND the
  // analysis, so a hit and a miss always agree on the answer.
  const BoundaryConstraints* eff = &bc;
  if (opt_.quantum_ps > 0.0) {
    scratch.qbc = bc;
    scratch.qbc.clock_period_ps =
        quantize(scratch.qbc.clock_period_ps, opt_.quantum_ps);
    for (PiConstraint& pi : scratch.qbc.pi) {
      quantize_elrf(pi.at, opt_.quantum_ps);
      quantize_elrf(pi.slew, opt_.quantum_ps);
    }
    for (PoConstraint& po : scratch.qbc.po) {
      po.load_ff = quantize(po.load_ff, opt_.quantum_ps);
      quantize_elrf(po.rat, opt_.quantum_ps);
    }
    eff = &scratch.qbc;
  }

  std::string& key = scratch.key;
  key.clear();
  // Generation prefix: a cached result can only ever answer queries
  // against the exact registry generation that produced it.
  {
    const std::uint64_t gen = registry->generation();
    key.append(reinterpret_cast<const char*>(&gen), sizeof gen);
  }
  key.append(model_name);
  key.push_back('\0');
  append_bits(key, eff->clock_period_ps);
  for (const PiConstraint& pi : eff->pi) {
    append_elrf(key, pi.at);
    append_elrf(key, pi.slew);
  }
  for (const PoConstraint& po : eff->po) {
    append_bits(key, po.load_ff);
    append_elrf(key, po.rat);
  }

  Result res;
  if (!bypass_cache && cache_.lookup(key, out)) {
    res.cache_hit = true;
    return res;
  }

  std::unique_ptr<Sta>& engine = scratch.engines[entry];
  if (!engine)
    engine = std::make_unique<Sta>(entry->model.graph, opt_.sta);
  engine->run(*eff);
  engine->snapshot_into(out);
  if (!bypass_cache) cache_.insert(key, out);
  return res;
}

}  // namespace tmm::serve
