// Aggregate-statistics follower solves: the O(K) route to 10^6 miners.
//
// Every best response in the follower stage depends on opponents only
// through the aggregates E_{-i}, S_{-i} (paper Eq. 14), and Theorem 2's
// uniqueness makes the equilibrium symmetric within any group of miners
// sharing a budget. So a pool of N miners drawn from K distinct budgets
// (K << N) has an equilibrium fully described by K class representatives.
// The ClassAggregateOracle solves the share-function root of
// core/share_root.hpp with one weight per class (the class count): O(K)
// work per root iteration, whatever N is. Per-miner requests and
// utilities expand lazily through EquilibriumProfile::request(i)
// (class-shaped profiles; see EquilibriumProfile::ClassShape). Standalone
// mode reuses the shared-multiplier decomposition of Theorem 5: the same
// root on the surcharge as the dense standalone solve. The class solve is
// exact, not an approximation; the only approximation knob is
// budget_quantum, which snaps budgets onto a grid before bucketing to cap
// K on near-continuous pools.
//
// Dispatch is opt-in: make_profile_oracle consults
// SolveContext::aggregate (AggregateOracleOptions) and picks this oracle
// only when the pool is large enough and buckets into few enough classes;
// default options disable it entirely, so existing callers see identical
// behavior.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/oracle.hpp"

namespace hecmine::core {

/// One budget class: the shared budget key and how many miners hold it.
struct MinerClass {
  double budget = 0.0;
  int count = 0;
};

/// Deterministic bucketing of a budget pool: classes sorted ascending by
/// budget key, plus the miner-index -> class-index map.
struct ClassPartition {
  std::vector<MinerClass> classes;
  std::vector<std::uint32_t> class_of;
};

/// Buckets `budgets` into classes. Keys are exact budget values when
/// `budget_quantum` is 0; otherwise budgets snap to the nearest multiple of
/// the quantum first (near-equal budgets collapse into one class). The
/// result is a pure function of the inputs — independent of thread count
/// or iteration order — so cache keys built from it are stable.
[[nodiscard]] ClassPartition partition_budget_classes(
    const std::vector<double>& budgets, double budget_quantum = 0.0);

/// Follower oracle solving the class-weighted share root.
/// Returns class-shaped EquilibriumProfiles: requests/utilities hold one
/// entry per class and per-miner views expand lazily through the shared
/// ClassShape. Exact at equilibrium (see file comment); budget_quantum > 0
/// is the one documented approximation.
class ClassAggregateOracle final : public FollowerOracle {
 public:
  ClassAggregateOracle(NetworkParams params,
                       const std::vector<double>& budgets, EdgeMode mode,
                       MinerSolveOptions options = {},
                       double budget_quantum = 0.0);

  [[nodiscard]] EquilibriumProfile solve(const Prices& prices) const override;
  [[nodiscard]] std::uint64_t env_hash() const override;
  [[nodiscard]] int miner_count() const override { return miner_count_; }
  [[nodiscard]] EdgeMode mode() const override { return mode_; }

  /// Number of budget classes (K).
  [[nodiscard]] int class_count() const noexcept {
    return static_cast<int>(classes_.size());
  }
  [[nodiscard]] const std::vector<MinerClass>& classes() const noexcept {
    return classes_;
  }

 private:
  NetworkParams params_;
  EdgeMode mode_;
  MinerSolveOptions options_;
  double budget_quantum_;
  int miner_count_;
  std::vector<MinerClass> classes_;
  /// Shared with every profile this oracle returns (O(K) profile copies);
  /// owns the partition's miner-index -> class-index map.
  std::shared_ptr<const EquilibriumProfile::ClassShape> shape_;
  std::vector<double> class_weights_;  ///< miners per class, as doubles
  std::uint64_t env_hash_;  ///< budgets are hashed once at construction
};

/// Profile-oracle factory with aggregate dispatch: the ClassAggregateOracle
/// when context.aggregate opts in (dispatch_threshold > 0, pool size >=
/// threshold, bucketing yields <= max_classes classes), else the dense
/// ConnectedNepOracle / StandaloneGnepOracle for `mode`. Returns the bare
/// oracle — callers layer decorate_follower_oracle themselves (as
/// make_follower_oracle and the leader stage do).
[[nodiscard]] std::unique_ptr<FollowerOracle> make_profile_oracle(
    const NetworkParams& params, const std::vector<double>& budgets,
    EdgeMode mode, const SolveContext& context = {});

}  // namespace hecmine::core
