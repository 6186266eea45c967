#include "core/aggregate_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "core/equilibrium_cache.hpp"
#include "core/kernels.hpp"
#include "core/share_root.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace hecmine::core {

namespace {

// Oracle-class tag mixed into env_hash (continues the kTag* family in
// core/oracle.cpp) so class-aggregate solves never share a cache key with
// the dense oracles even when every numeric input coincides.
constexpr std::uint64_t kTagClassAggregate = 0xA6;

}  // namespace

ClassPartition partition_budget_classes(const std::vector<double>& budgets,
                                        double budget_quantum) {
  HECMINE_REQUIRE(budget_quantum >= 0.0,
                  "partition_budget_classes: quantum must be >= 0");
  // One pass files each miner's key in an open-addressing table keyed by
  // value (first-seen order); sorting the K distinct keys then gives the
  // dense class indices in ascending key order, so the partition is a pure
  // function of the budget multiset (plus the per-miner map of the
  // original order). Keys compare with ==, so -0.0 and 0.0 share a class
  // (the first one seen names it).
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> slots(64, kEmpty);  // first-seen key index
  std::vector<double> keys;                      // distinct, first-seen order
  std::vector<std::uint32_t> first_seen(budgets.size());
  const auto slot_of = [&](double key) {
    std::uint64_t bits = 0;
    const double canonical = key == 0.0 ? 0.0 : key;
    std::memcpy(&bits, &canonical, sizeof bits);
    const std::size_t mask = slots.size() - 1;
    std::size_t slot = static_cast<std::size_t>(
        (bits * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
    while (slots[slot] != kEmpty && keys[slots[slot]] != key)
      slot = (slot + 1) & mask;
    return slot;
  };
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    HECMINE_REQUIRE(budgets[i] >= 0.0,
                    "partition_budget_classes: budgets must be >= 0");
    double key = budgets[i];
    if (budget_quantum > 0.0)
      key = budget_quantum *
            static_cast<double>(std::llround(key / budget_quantum));
    std::size_t slot = slot_of(key);
    if (slots[slot] == kEmpty) {
      if (2 * (keys.size() + 1) > slots.size()) {
        // Keep the load at most 1/2: double and refile every key.
        slots.assign(2 * slots.size(), kEmpty);
        for (std::uint32_t k = 0; k < keys.size(); ++k)
          slots[slot_of(keys[k])] = k;
        slot = slot_of(key);
      }
      slots[slot] = static_cast<std::uint32_t>(keys.size());
      keys.push_back(key);
    }
    first_seen[i] = slots[slot];
  }

  std::vector<std::uint32_t> order(keys.size());
  for (std::uint32_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
  std::vector<std::uint32_t> rank(keys.size());
  ClassPartition partition;
  partition.classes.resize(keys.size());
  for (std::uint32_t index = 0; index < order.size(); ++index) {
    rank[order[index]] = index;
    partition.classes[index].budget = keys[order[index]];
  }
  partition.class_of.resize(budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const std::uint32_t k = rank[first_seen[i]];
    partition.class_of[i] = k;
    ++partition.classes[k].count;
  }
  return partition;
}

ClassAggregateOracle::ClassAggregateOracle(NetworkParams params,
                                           const std::vector<double>& budgets,
                                           EdgeMode mode,
                                           MinerSolveOptions options,
                                           double budget_quantum)
    : params_(params),
      mode_(mode),
      options_(options),
      budget_quantum_(budget_quantum),
      miner_count_(static_cast<int>(budgets.size())) {
  HECMINE_REQUIRE(!budgets.empty(), "ClassAggregateOracle: no miners");
  ClassPartition partition = partition_budget_classes(budgets, budget_quantum);
  classes_ = std::move(partition.classes);
  auto shape = std::make_shared<EquilibriumProfile::ClassShape>();
  shape->of = std::move(partition.class_of);
  shape->counts.reserve(classes_.size());
  shape->budgets.reserve(classes_.size());
  class_weights_.reserve(classes_.size());
  for (const MinerClass& cls : classes_) {
    shape->counts.push_back(cls.count);
    shape->budgets.push_back(cls.budget);
    class_weights_.push_back(static_cast<double>(cls.count));
  }

  // Budgets are hashed once here: the per-miner class map is part of the
  // oracle's identity (request(i) depends on it), and hashing it per
  // env_hash() call would be O(N) on the cache hot path.
  std::uint64_t h = hash_follower_env(params_, options_);
  h = hash_mix(h, kTagClassAggregate);
  h = hash_mix(h, static_cast<std::uint64_t>(mode_ == EdgeMode::kConnected));
  h = hash_mix(h, budget_quantum_);
  h = hash_mix(h, static_cast<std::uint64_t>(miner_count_));
  h = hash_mix(h, static_cast<std::uint64_t>(classes_.size()));
  for (const MinerClass& cls : classes_) {
    h = hash_mix(h, cls.budget);
    h = hash_mix(h, static_cast<std::uint64_t>(cls.count));
  }
  for (std::uint32_t k : shape->of)
    h = hash_mix(h, static_cast<std::uint64_t>(k));
  env_hash_ = h;
  shape_ = std::move(shape);
}

EquilibriumProfile ClassAggregateOracle::solve(const Prices& prices) const {
  params_.validate();
  HECMINE_REQUIRE(prices.edge > 0.0 && prices.cloud > 0.0,
                  "ClassAggregateOracle: prices must be positive");

  support::Telemetry* telemetry = support::current_telemetry();
  const support::SolveTrace::Scope span(
      telemetry != nullptr ? &telemetry->trace : nullptr,
      "oracle.aggregate.fixed_point");
  if (telemetry != nullptr) {
    telemetry->metrics.gauge("oracle.aggregate.classes")
        .set(static_cast<double>(class_count()));
    telemetry->metrics.counter("oracle.aggregate.solves").add();
  }

  // The share root with one weight per class: every miner of a class
  // faces the same aggregates, so one request per class is exact.
  const bool connected = mode_ == EdgeMode::kConnected;
  const KernelEnv kenv = make_kernel_env(
      params_, prices, connected ? params_.edge_success : 1.0, 0.0);
  ShareRootResult root = solve_share_root(
      kenv, shape_->budgets, class_weights_,
      connected ? std::numeric_limits<double>::infinity()
                : params_.edge_capacity,
      options_.tolerance, {"aggregate.fixed_point", "gnep.bisection"});

  EquilibriumProfile out;
  out.miner_count = miner_count_;
  out.symmetric = false;
  out.classes = shape_;
  out.requests = std::move(root.requests);
  out.totals = root.totals;
  out.surcharge = root.surcharge;
  out.cap_active = root.cap_active;
  out.converged = root.converged;
  out.iterations = root.iterations;
  out.residual = root.residual;

  const std::size_t kn = out.requests.size();
  const KernelEnv penalized = with_surcharge(kenv, out.surcharge);
  const auto opponents = [&](std::size_t k, double& oe, double& og) {
    oe = std::max(0.0, out.totals.edge - out.requests[k].edge);
    og = oe + std::max(0.0, out.totals.cloud - out.requests[k].cloud);
  };
  if (!out.converged) {
    // The share residual can floor at rounding noise while the point is
    // already exact; certify by class-level exploitability instead (every
    // miner of a class faces the same environment, so one best response
    // per class covers all N miners).
    double worst = 0.0;
    for (std::size_t k = 0; k < kn; ++k) {
      double oe = 0.0;
      double og = 0.0;
      opponents(k, oe, og);
      const MinerRequest& own = out.requests[k];
      const MinerRequest br =
          best_response_kernel(penalized, shape_->budgets[k], oe, og);
      worst = std::max(
          worst, penalized_utility_kernel(penalized, br.edge, br.cloud, oe, og) -
                     penalized_utility_kernel(penalized, own.edge, own.cloud,
                                              oe, og));
    }
    out.converged = worst <= 1e-7 * params_.reward;
  }

  // True (surcharge-free) utilities, as in the dense finish_equilibrium.
  out.utilities.resize(kn);
  for (std::size_t k = 0; k < kn; ++k) {
    double oe = 0.0;
    double og = 0.0;
    opponents(k, oe, og);
    out.utilities[k] = utility_kernel(kenv, out.requests[k].edge,
                                      out.requests[k].cloud, oe, og);
  }
  if (auto* work = support::prof::current_block(); work != nullptr)
    work->add(support::prof::WorkField::kUtilityEvals,
              static_cast<std::uint64_t>(kn));
  return out;
}

std::uint64_t ClassAggregateOracle::env_hash() const { return env_hash_; }

std::unique_ptr<FollowerOracle> make_profile_oracle(
    const NetworkParams& params, const std::vector<double>& budgets,
    EdgeMode mode, const SolveContext& context) {
  HECMINE_REQUIRE(!budgets.empty(), "make_profile_oracle: no miners");
  const AggregateOracleOptions& aggregate = context.aggregate;
  if (aggregate.dispatch_threshold > 0 &&
      static_cast<int>(budgets.size()) >= aggregate.dispatch_threshold) {
    // Build first and check K after: the partition runs once either way.
    auto oracle = std::make_unique<ClassAggregateOracle>(
        params, budgets, mode, context.follower, aggregate.budget_quantum);
    if (oracle->class_count() <= aggregate.max_classes) return oracle;
  }
  if (mode == EdgeMode::kConnected)
    return std::make_unique<ConnectedNepOracle>(params, budgets,
                                                context.follower);
  return std::make_unique<StandaloneGnepOracle>(
      params, budgets, GnepAlgorithm::kSharedPrice, context.follower);
}

}  // namespace hecmine::core
