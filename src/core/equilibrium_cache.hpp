// Memoization of follower-stage equilibria across leader-stage solves.
//
// The Gauss-Seidel leader rounds of solve_stackelberg re-visit many price
// profiles: consecutive rounds re-scan overlapping grids, the golden-section
// refines probe clustered points, and the final-payoff pass re-evaluates the
// converged profile. Every such evaluation is a full miner Nash/GNEP solve,
// which memoizing was meant to save; EXPERIMENTS.md measures the cache as
// a slowdown on the homogeneous stage, whose follower is a closed form.
//
// Keys quantize prices onto a uniform grid of pitch `price_quantum`, and —
// crucially for determinism — the *solver runs at the snapped price*, not
// the requested one (snap_prices). Two threads racing on nearby prices that
// share a key therefore compute the identical value, so parallel runs stay
// bitwise equal to serial runs no matter who wins the race.
//
// Snapping is NOT invisible, although the quantum (default 1e-7) sits far
// below the leader tolerance (1e-5): the leader's profit is flat near its
// optimum, so a 1e-7 shift in the follower solves can move the scans to
// another point of that plateau. Measured with a default cache against
// none: on the homogeneous leader-stage game (n = 5, B = 200, grid 40)
// P_e moves 6.2774 -> 6.3190, and on the first 8 price-profile benchmark games (distinct
// budgets, connected and standalone) P_e moves by up to 2.1%, V_c by
// 0.02-0.46% and V_e by up to 0.02%.
//
// The cache is LRU-bounded and thread-safe; solves happen *outside* the
// lock so concurrent misses on different keys do not serialize (a duplicate
// solve on the same key is possible under a race and is benign: both
// compute the same value).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>

#include "core/equilibrium.hpp"
#include "core/oracle.hpp"
#include "core/types.hpp"

namespace hecmine::support {
class Telemetry;  // support/telemetry.hpp
}  // namespace hecmine::support

namespace hecmine::core {

/// Identity of one follower solve: snapped prices plus a caller-supplied
/// hash of everything else that shapes the answer (network parameters,
/// budgets, miner count, mode, solver options).
struct FollowerCacheKey {
  std::int64_t edge_q = 0;
  std::int64_t cloud_q = 0;
  std::uint64_t env_hash = 0;

  bool operator==(const FollowerCacheKey&) const = default;
};

/// Running counters; `hits + misses` is the total lookup count.
struct FollowerCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const double total = static_cast<double>(hits + misses);
    return total == 0.0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Publishes `stats` into `telemetry` as gauges (`cache.hits`,
/// `cache.misses`, `cache.evictions`, `cache.hit_rate`) — the end-of-run
/// bridge between the cache's own counters and the telemetry export.
void record_cache_stats(support::Telemetry& telemetry,
                        const FollowerCacheStats& stats);

/// Mixes one 64-bit word into a running hash (splitmix64 finalizer).
[[nodiscard]] std::uint64_t hash_mix(std::uint64_t seed,
                                     std::uint64_t value) noexcept;

/// Mixes a double by bit pattern (0.0 and -0.0 collapse to one key).
[[nodiscard]] std::uint64_t hash_mix(std::uint64_t seed, double value) noexcept;

/// Environment hash covering the network parameters and solver options —
/// the non-price inputs of the symmetric/profile solvers.
[[nodiscard]] std::uint64_t hash_follower_env(const NetworkParams& params,
                                              const MinerSolveOptions& options);

/// Thread-safe LRU memoizer for follower-stage equilibria. Symmetric and
/// full-profile results live in separate maps (they answer different
/// solves), each bounded by `capacity` entries.
class FollowerEquilibriumCache {
 public:
  explicit FollowerEquilibriumCache(std::size_t capacity = 8192,
                                    double price_quantum = 1e-7);

  /// Capacity sized to a leader-stage solve's price-grid footprint: two
  /// leaders times `max_rounds` Gauss-Seidel rounds, each re-scanning
  /// `grid_points` prices plus ~64 golden-section refine probes, rounded up
  /// to a power of two and clamped to [1024, 1 << 20]. The default-capacity
  /// cache (8192) evicted ~24k entries on the tracked bench workload
  /// (45.6% hit rate); sizing from the footprint keeps the working set
  /// resident.
  [[nodiscard]] static std::size_t recommended_capacity(int max_rounds,
                                                        int grid_points);

  [[nodiscard]] double price_quantum() const noexcept { return quantum_; }

  /// Prices snapped onto the key grid: what the solver should actually be
  /// run at so every thread computing a key computes the same value.
  /// Snapped components are clamped to >= one quantum to keep them
  /// positive for the solvers.
  [[nodiscard]] Prices snap_prices(const Prices& prices) const;

  /// Key for `prices` under environment `env_hash`.
  [[nodiscard]] FollowerCacheKey make_key(const Prices& prices,
                                          std::uint64_t env_hash) const;

  /// Cached symmetric equilibrium for `key`, computing (and storing) it
  /// with `solve` on a miss. `solve` must evaluate at snap_prices(...).
  [[nodiscard]] SymmetricEquilibrium symmetric(
      const FollowerCacheKey& key,
      const std::function<SymmetricEquilibrium()>& solve);

  /// Cached full-profile equilibrium for `key`; see symmetric().
  [[nodiscard]] MinerEquilibrium profile(
      const FollowerCacheKey& key,
      const std::function<MinerEquilibrium()>& solve);

  /// Cached unified profile for `key` (the FollowerOracle layer's map —
  /// CachedFollowerOracle keys it on the inner oracle's env_hash());
  /// see symmetric().
  [[nodiscard]] EquilibriumProfile unified(
      const FollowerCacheKey& key,
      const std::function<EquilibriumProfile()>& solve);

  [[nodiscard]] FollowerCacheStats stats() const;

  /// Drops every entry; counters are kept.
  void clear();

 private:
  struct KeyHash {
    std::size_t operator()(const FollowerCacheKey& key) const noexcept;
  };

  template <typename Value>
  struct LruMap {
    // Most-recent entries sit at the front; the map points into the list.
    std::list<std::pair<FollowerCacheKey, Value>> order;
    std::unordered_map<FollowerCacheKey,
                       typename std::list<std::pair<FollowerCacheKey, Value>>::iterator,
                       KeyHash>
        index;

    [[nodiscard]] const Value* touch(const FollowerCacheKey& key);
    void insert(const FollowerCacheKey& key, Value value, std::size_t capacity,
                std::uint64_t& evictions);
    void clear();
  };

  template <typename Value>
  [[nodiscard]] Value lookup_or_solve(LruMap<Value>& map,
                                      const FollowerCacheKey& key,
                                      const std::function<Value()>& solve);

  const std::size_t capacity_;
  const double quantum_;
  mutable std::mutex mutex_;
  LruMap<SymmetricEquilibrium> symmetric_;
  LruMap<MinerEquilibrium> profile_;
  LruMap<EquilibriumProfile> unified_;
  FollowerCacheStats stats_;
};

}  // namespace hecmine::core
