#include "core/equilibrium_cache.hpp"

#include <bit>
#include <cmath>

#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace hecmine::core {

void record_cache_stats(support::Telemetry& telemetry,
                        const FollowerCacheStats& stats) {
  telemetry.metrics.gauge("cache.hits").set(static_cast<double>(stats.hits));
  telemetry.metrics.gauge("cache.misses")
      .set(static_cast<double>(stats.misses));
  telemetry.metrics.gauge("cache.evictions")
      .set(static_cast<double>(stats.evictions));
  telemetry.metrics.gauge("cache.hit_rate").set(stats.hit_rate());
}

std::uint64_t hash_mix(std::uint64_t seed, std::uint64_t value) noexcept {
  std::uint64_t z = seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                            (seed >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_mix(std::uint64_t seed, double value) noexcept {
  if (value == 0.0) value = 0.0;  // merge -0.0 with +0.0
  return hash_mix(seed, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t hash_follower_env(const NetworkParams& params,
                                const MinerSolveOptions& options) {
  std::uint64_t h = 0x6865636d696e65ULL;  // "hecmine"
  h = hash_mix(h, params.reward);
  h = hash_mix(h, params.fork_rate);
  h = hash_mix(h, params.edge_success);
  h = hash_mix(h, params.edge_capacity);
  h = hash_mix(h, params.cost_edge);
  h = hash_mix(h, params.cost_cloud);
  h = hash_mix(h, options.damping);
  h = hash_mix(h, options.tolerance);
  h = hash_mix(h, static_cast<std::uint64_t>(options.max_iterations));
  h = hash_mix(h, options.vi_tolerance);
  return h;
}

FollowerEquilibriumCache::FollowerEquilibriumCache(std::size_t capacity,
                                                   double price_quantum)
    : capacity_(capacity), quantum_(price_quantum) {
  HECMINE_REQUIRE(capacity > 0, "FollowerEquilibriumCache: capacity > 0");
  HECMINE_REQUIRE(price_quantum > 0.0,
                  "FollowerEquilibriumCache: price_quantum > 0");
}

std::size_t FollowerEquilibriumCache::recommended_capacity(int max_rounds,
                                                           int grid_points) {
  HECMINE_REQUIRE(max_rounds >= 1 && grid_points >= 1,
                  "recommended_capacity: rounds and grid must be >= 1");
  // Two leaders per round; each scan touches grid_points prices and the
  // golden-section refine adds ~64 distinct probes near the maximizer.
  const std::size_t footprint =
      std::size_t{2} * static_cast<std::size_t>(max_rounds) *
      (static_cast<std::size_t>(grid_points) + std::size_t{64});
  return std::min<std::size_t>(1ULL << 20,
                               std::max<std::size_t>(1024, std::bit_ceil(footprint)));
}

namespace {

std::int64_t quantize(double price, double quantum) {
  const double cell = std::round(price / quantum);
  HECMINE_REQUIRE(std::abs(cell) < 9.0e18,
                  "FollowerEquilibriumCache: price too large for the quantum");
  return static_cast<std::int64_t>(cell);
}

}  // namespace

Prices FollowerEquilibriumCache::snap_prices(const Prices& prices) const {
  const auto snap = [&](double price) {
    const double snapped =
        static_cast<double>(quantize(price, quantum_)) * quantum_;
    return std::max(snapped, quantum_);  // keep solver preconditions (> 0)
  };
  return {snap(prices.edge), snap(prices.cloud)};
}

FollowerCacheKey FollowerEquilibriumCache::make_key(
    const Prices& prices, std::uint64_t env_hash) const {
  FollowerCacheKey key;
  key.edge_q = quantize(prices.edge, quantum_);
  key.cloud_q = quantize(prices.cloud, quantum_);
  key.env_hash = env_hash;
  return key;
}

std::size_t FollowerEquilibriumCache::KeyHash::operator()(
    const FollowerCacheKey& key) const noexcept {
  std::uint64_t h = hash_mix(key.env_hash,
                             static_cast<std::uint64_t>(key.edge_q));
  h = hash_mix(h, static_cast<std::uint64_t>(key.cloud_q));
  return static_cast<std::size_t>(h);
}

template <typename Value>
const Value* FollowerEquilibriumCache::LruMap<Value>::touch(
    const FollowerCacheKey& key) {
  const auto it = index.find(key);
  if (it == index.end()) return nullptr;
  order.splice(order.begin(), order, it->second);
  return &it->second->second;
}

template <typename Value>
void FollowerEquilibriumCache::LruMap<Value>::insert(
    const FollowerCacheKey& key, Value value, std::size_t capacity,
    std::uint64_t& evictions) {
  const auto it = index.find(key);
  if (it != index.end()) {  // a concurrent solver already filled this key
    order.splice(order.begin(), order, it->second);
    return;
  }
  order.emplace_front(key, std::move(value));
  index.emplace(key, order.begin());
  while (index.size() > capacity) {
    index.erase(order.back().first);
    order.pop_back();
    ++evictions;
  }
}

template <typename Value>
void FollowerEquilibriumCache::LruMap<Value>::clear() {
  order.clear();
  index.clear();
}

template <typename Value>
Value FollowerEquilibriumCache::lookup_or_solve(
    LruMap<Value>& map, const FollowerCacheKey& key,
    const std::function<Value()>& solve) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const Value* cached = map.touch(key)) {
      ++stats_.hits;
      return *cached;
    }
    ++stats_.misses;
  }
  // Solve outside the lock: concurrent misses on distinct keys proceed in
  // parallel. A racing duplicate of the same key computes the same value
  // (solvers are deterministic and run at the snapped price).
  Value value = solve();
  std::lock_guard<std::mutex> lock(mutex_);
  map.insert(key, value, capacity_, stats_.evictions);
  return value;
}

SymmetricEquilibrium FollowerEquilibriumCache::symmetric(
    const FollowerCacheKey& key,
    const std::function<SymmetricEquilibrium()>& solve) {
  return lookup_or_solve(symmetric_, key, solve);
}

MinerEquilibrium FollowerEquilibriumCache::profile(
    const FollowerCacheKey& key,
    const std::function<MinerEquilibrium()>& solve) {
  return lookup_or_solve(profile_, key, solve);
}

EquilibriumProfile FollowerEquilibriumCache::unified(
    const FollowerCacheKey& key,
    const std::function<EquilibriumProfile()>& solve) {
  return lookup_or_solve(unified_, key, solve);
}

FollowerCacheStats FollowerEquilibriumCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void FollowerEquilibriumCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  symmetric_.clear();
  profile_.clear();
  unified_.clear();
}

}  // namespace hecmine::core
