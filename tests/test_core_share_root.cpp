// Tests for the share-function root (core/share_root.hpp) behind every
// full-profile follower solve: closed-form spot checks (Theorem 3's
// interior totals, the edge-only Tullock contest, Table II), a randomized
// exploitability sweep over the leader price box, dense vs class-weighted
// parity, the degenerate contests, and parity with the generic game::
// best-response drivers (the test reference).
#include "core/share_root.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "core/aggregate_oracle.hpp"
#include "core/closed_forms.hpp"
#include "core/equilibrium.hpp"
#include "core/miner.hpp"
#include "game/gnep.hpp"
#include "game/nash.hpp"
#include "support/rng.hpp"

namespace hecmine::core {
namespace {

NetworkParams default_params() {
  NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.edge_capacity = 8.0;
  params.cost_edge = 1.0;
  params.cost_cloud = 0.4;
  return params;
}

double relative_gap(double a, double b) {
  return std::abs(a - b) / std::max({1.0, std::abs(a), std::abs(b)});
}

// --- closed forms ------------------------------------------------------------

TEST(ShareRoot, LooseHeterogeneousBudgetsGiveTheoremThreeTotals) {
  // Every budget clears the spend threshold, so each miner plays the
  // interior point of Eq. 14 and the totals are Corollary 1's n-fold ones
  // whatever the budgets are.
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{60.0, 75.0, 90.0, 400.0, 1e4};
  const int n = static_cast<int>(budgets.size());
  const MinerEquilibrium eq = solve_connected_nep(params, prices, budgets);
  ASSERT_TRUE(eq.converged);
  const MinerRequest closed = homogeneous_sufficient_request(params, prices, n);
  EXPECT_NEAR(eq.totals.edge, n * closed.edge, 1e-12 * n * closed.edge);
  EXPECT_NEAR(eq.totals.cloud, n * closed.cloud, 1e-12 * n * closed.cloud);
  for (const MinerRequest& request : eq.requests) {
    EXPECT_NEAR(request.edge, closed.edge, 1e-12 * closed.edge);
    EXPECT_NEAR(request.cloud, closed.cloud, 1e-12 * closed.cloud);
  }
}

TEST(ShareRoot, CheapEdgeGivesTheEdgeOnlyTullockTotal) {
  // P_e <= P_c: cloud units are dominated, and the contest is Tullock over
  // edge units with prize R (1 - beta + h beta).
  const NetworkParams params = default_params();
  for (const Prices prices : {Prices{1.0, 1.0}, Prices{0.8, 1.5}}) {
    const std::vector<double> budgets{80.0, 120.0, 300.0};
    const MinerEquilibrium eq = solve_connected_nep(params, prices, budgets);
    ASSERT_TRUE(eq.converged);
    const MinerRequest closed =
        homogeneous_edge_only_request(params, prices, 1e9, 3);
    EXPECT_NEAR(eq.totals.edge, 3.0 * closed.edge, 1e-12 * closed.edge);
    EXPECT_EQ(eq.totals.cloud, 0.0);
  }
}

TEST(ShareRoot, StandaloneMatchesTableTwo) {
  // Sufficient budgets: the cap binds and Table II prices it with the
  // common multiplier; heterogeneous loose budgets change nothing.
  NetworkParams params = default_params();
  params.edge_capacity = 6.0;
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{200.0, 300.0, 450.0, 900.0};
  const auto closed = standalone_sufficient_request(params, prices, 4);
  ASSERT_TRUE(closed.cap_active);
  const MinerEquilibrium eq = solve_standalone_gnep(params, prices, budgets);
  ASSERT_TRUE(eq.converged);
  EXPECT_TRUE(eq.cap_active);
  EXPECT_LE(eq.totals.edge, params.edge_capacity);
  EXPECT_NEAR(eq.totals.edge, params.edge_capacity,
              1e-12 * params.edge_capacity);
  EXPECT_NEAR(eq.surcharge, closed.surcharge, 1e-9 * closed.surcharge);
  for (const MinerRequest& request : eq.requests) {
    EXPECT_NEAR(request.edge, closed.request.edge, 1e-9);
    EXPECT_NEAR(request.cloud, closed.request.cloud, 1e-9);
  }
}

// --- randomized certificates -----------------------------------------------

TEST(ShareRoot, RandomGamesOverThePriceBoxAreUnexploitable) {
  // Binding budgets, P_c >= P_e and binding caps included: every answer is
  // certified by the exploitability of the (mu-penalized) game.
  support::Rng rng{2024};
  int binding_caps = 0;
  for (int game = 0; game < 600; ++game) {
    NetworkParams params = default_params();
    params.fork_rate = rng.uniform(0.05, 0.4);
    params.edge_success = rng.uniform(0.6, 1.0);
    params.edge_capacity = rng.uniform(1.0, 30.0);
    const Prices prices{rng.uniform(0.3, 12.0), rng.uniform(0.3, 6.0)};
    const int n = 2 + static_cast<int>(rng.uniform_index(5));
    std::vector<double> budgets(static_cast<std::size_t>(n));
    for (double& budget : budgets) budget = rng.uniform(0.5, 120.0);
    const bool connected = game % 2 == 0;
    const MinerEquilibrium eq =
        connected ? solve_connected_nep(params, prices, budgets)
                  : solve_standalone_gnep(params, prices, budgets);
    ASSERT_TRUE(eq.converged) << "game " << game;
    const double gain = miner_exploitability(params, prices, budgets,
                                             eq.requests, connected,
                                             eq.surcharge);
    EXPECT_LE(gain, 1e-10 * params.reward) << "game " << game;
    for (std::size_t i = 0; i < budgets.size(); ++i)
      EXPECT_LE(request_cost(eq.requests[i], prices),
                budgets[i] * (1.0 + 1e-12));
    if (!connected) {
      EXPECT_LE(eq.totals.edge, params.edge_capacity) << "game " << game;
      if (eq.surcharge > 0.0) {
        ++binding_caps;
        EXPECT_LE(params.edge_capacity - eq.totals.edge,
                  1e-12 * params.edge_capacity)
            << "game " << game;
      }
    }
  }
  EXPECT_GT(binding_caps, 20);
}

/// A class pool shaped like the benchmark's corner probe: `miners` miners
/// over `classes` distinct budgets in [20, 500].
std::vector<double> class_pool(support::Rng& rng, int miners, int classes) {
  std::vector<double> keys(static_cast<std::size_t>(classes));
  for (double& key : keys) key = rng.uniform(20.0, 500.0);
  std::vector<double> budgets(static_cast<std::size_t>(miners));
  for (std::size_t i = 0; i < budgets.size(); ++i)
    budgets[i] = i < keys.size() ? keys[i] : keys[rng.uniform_index(keys.size())];
  return budgets;
}

TEST(ShareRoot, CornerClassPoolsAreUnexploitable) {
  // 10^3 miners in up to 64 classes at P_c in [1, 1.25] P_e, where the
  // old class fixed point ran to its sweep cap; plus standalone pools
  // whose capacity binds.
  support::Rng rng{77};
  for (int pool = 0; pool < 24; ++pool) {
    NetworkParams params = default_params();
    params.fork_rate = rng.uniform(0.05, 0.4);
    params.edge_success = rng.uniform(0.6, 1.0);
    params.edge_capacity = rng.uniform(4.0, 30.0);
    const int classes = 1 + static_cast<int>(rng.uniform_index(64));
    const std::vector<double> budgets = class_pool(rng, 1000, classes);
    const bool connected = pool % 2 == 0;
    Prices prices;
    if (connected) {
      prices.edge = rng.uniform(1.05, 12.0);
      prices.cloud = prices.edge * rng.uniform(1.0, 1.25);
    } else {
      prices = {rng.uniform(6.0, 40.0), rng.uniform(0.5, 3.0)};
    }
    const ClassAggregateOracle oracle(
        params, budgets,
        connected ? EdgeMode::kConnected : EdgeMode::kStandalone);
    const EquilibriumProfile profile = oracle.solve(prices);
    ASSERT_TRUE(profile.converged) << "pool " << pool;
    EXPECT_LE(profile.iterations, 100) << "pool " << pool;
    const double gain =
        miner_exploitability(params, prices, budgets, profile.expanded(),
                             connected, profile.surcharge);
    EXPECT_LE(gain, 1e-10 * params.reward) << "pool " << pool;
    if (!connected && profile.cap_active) {
      EXPECT_LE(profile.totals.edge, params.edge_capacity);
      EXPECT_LE(params.edge_capacity - profile.totals.edge,
                1e-12 * params.edge_capacity);
    }
  }
}

TEST(ShareRoot, DenseAndClassWeightedRootsAgreeOnTheExpandedPool) {
  support::Rng rng{5};
  for (int pool = 0; pool < 12; ++pool) {
    NetworkParams params = default_params();
    params.edge_capacity = rng.uniform(2.0, 12.0);
    const std::vector<double> budgets =
        class_pool(rng, 40, 1 + static_cast<int>(rng.uniform_index(6)));
    const Prices prices{rng.uniform(1.0, 6.0), rng.uniform(0.5, 3.0)};
    for (const EdgeMode mode : {EdgeMode::kConnected, EdgeMode::kStandalone}) {
      const bool connected = mode == EdgeMode::kConnected;
      const MinerEquilibrium dense =
          connected ? solve_connected_nep(params, prices, budgets)
                    : solve_standalone_gnep(params, prices, budgets);
      const EquilibriumProfile classes =
          ClassAggregateOracle(params, budgets, mode).solve(prices);
      ASSERT_TRUE(dense.converged);
      ASSERT_TRUE(classes.converged);
      EXPECT_EQ(dense.cap_active, classes.cap_active);
      EXPECT_LE(relative_gap(dense.surcharge, classes.surcharge), 1e-9);
      for (std::size_t i = 0; i < budgets.size(); ++i) {
        EXPECT_LE(relative_gap(dense.requests[i].edge, classes.request(i).edge),
                  1e-9);
        EXPECT_LE(
            relative_gap(dense.requests[i].cloud, classes.request(i).cloud),
            1e-9);
      }
    }
  }
}

// --- degenerate contests ------------------------------------------------------

TEST(ShareRoot, DegenerateContestsKeepTheirAnswers) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  // A lone miner faces no contest: it keeps the epsilon probe the
  // best-response dynamics settle on.
  for (const bool connected : {true, false}) {
    const MinerEquilibrium lone =
        connected ? solve_connected_nep(params, prices, {10.0})
                  : solve_standalone_gnep(params, prices, {10.0});
    ASSERT_TRUE(lone.converged);
    EXPECT_EQ(lone.requests[0].edge, 1e-6);
    EXPECT_EQ(lone.requests[0].cloud, 0.0);
  }
  // A zero budget buys nothing; one budgeted miner is a lone contest.
  const MinerEquilibrium one = solve_connected_nep(params, prices, {0.0, 10.0});
  EXPECT_EQ(one.requests[0].edge, 0.0);
  EXPECT_EQ(one.requests[0].cloud, 0.0);
  EXPECT_EQ(one.requests[1].edge, 1e-6);
  // Zero budgets beside a real contest stay at the origin.
  const std::vector<double> mixed{0.0, 30.0, 0.0, 45.0};
  const MinerEquilibrium eq = solve_connected_nep(params, prices, mixed);
  ASSERT_TRUE(eq.converged);
  EXPECT_EQ(eq.requests[0].total(), 0.0);
  EXPECT_EQ(eq.requests[2].total(), 0.0);
  EXPECT_GT(eq.requests[1].total(), 0.0);
  EXPECT_LE(miner_exploitability(params, prices, mixed, eq.requests, true),
            1e-10 * params.reward);
  // All-zero budgets: the empty equilibrium.
  for (const bool connected : {true, false}) {
    const MinerEquilibrium empty =
        connected ? solve_connected_nep(params, prices, {0.0, 0.0, 0.0})
                  : solve_standalone_gnep(params, prices, {0.0, 0.0, 0.0});
    ASSERT_TRUE(empty.converged);
    EXPECT_EQ(empty.totals.grand(), 0.0);
    for (double u : empty.utilities) EXPECT_EQ(u, 0.0);
  }
}

TEST(ShareRoot, NoForkRiskLeavesOnlyTheCheaperUnit) {
  // beta = 0 switches the edge bonus off (H = 0): edge and cloud units are
  // perfect substitutes and the cheaper one takes the whole contest.
  NetworkParams params = default_params();
  params.fork_rate = 0.0;
  const std::vector<double> budgets{40.0, 55.0, 70.0};
  const MinerEquilibrium cloud =
      solve_connected_nep(params, {2.0, 1.0}, budgets);
  ASSERT_TRUE(cloud.converged);
  EXPECT_EQ(cloud.totals.edge, 0.0);
  EXPECT_NEAR(cloud.totals.cloud, params.reward * 2.0 / 3.0 / 1.0, 1e-10);
  const MinerEquilibrium edge =
      solve_connected_nep(params, {1.0, 2.0}, budgets);
  ASSERT_TRUE(edge.converged);
  EXPECT_EQ(edge.totals.cloud, 0.0);
  EXPECT_NEAR(edge.totals.edge, params.reward * 2.0 / 3.0 / 1.0, 1e-10);
}

// --- parity with the generic game:: drivers ----------------------------------

/// Reference follower solves on the generic game:: drivers (game/nash,
/// game/gnep) with one miner_best_response per player per sweep, seeded
/// and damped as the library's follower solves once were.
MinerEnv reference_env(const NetworkParams& params, const Prices& prices,
                       double budget, double edge_success, double surcharge,
                       const game::Profile& profile, std::size_t player) {
  MinerEnv env;
  env.reward = params.reward;
  env.fork_rate = params.fork_rate;
  env.edge_success = edge_success;
  env.prices = prices;
  env.edge_surcharge = surcharge;
  env.budget = budget;
  for (std::size_t j = 0; j < profile.size(); ++j) {
    if (j == player) continue;
    env.others.edge += profile[j][0];
    env.others.cloud += profile[j][1];
  }
  return env;
}

game::Profile reference_seed(const Prices& prices,
                             const std::vector<double>& budgets,
                             double edge_cap) {
  game::Profile start(budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i)
    start[i] = {std::min(0.25 * budgets[i] / prices.edge,
                         0.5 * edge_cap / static_cast<double>(budgets.size())),
                0.25 * budgets[i] / prices.cloud};
  return start;
}

game::BestResponseOptions reference_sweep() {
  const MinerSolveOptions defaults;
  game::BestResponseOptions options;
  options.damping = defaults.damping;
  options.tolerance = defaults.tolerance;
  options.max_iterations = defaults.max_iterations;
  return options;
}

TEST(ShareRoot, NepParityWithLegacySweepHeterogeneous) {
  // Theorem 2 uniqueness: the share root and the generic std::function
  // sweep must land on the same equilibrium.
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{5.0, 12.5, 20.0, 35.0, 60.0, 90.0};
  const auto eq_root = solve_connected_nep(params, prices, budgets, {});
  const double h = params.edge_success;
  const auto legacy = game::solve_best_response(
      [&](const game::Profile& profile, std::size_t player) {
        const MinerRequest response = miner_best_response(reference_env(
            params, prices, budgets[player], h, 0.0, profile, player));
        return std::vector<double>{response.edge, response.cloud};
      },
      reference_seed(prices, budgets, std::numeric_limits<double>::infinity()),
      reference_sweep());
  ASSERT_TRUE(eq_root.converged);
  ASSERT_TRUE(legacy.converged);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(eq_root.requests[i].edge, legacy.profile[i][0], 1e-6);
    EXPECT_NEAR(eq_root.requests[i].cloud, legacy.profile[i][1], 1e-6);
    const double legacy_utility = miner_utility(
        reference_env(params, prices, budgets[i], h, 0.0, legacy.profile, i),
        {legacy.profile[i][0], legacy.profile[i][1]});
    EXPECT_NEAR(eq_root.utilities[i], legacy_utility, 1e-4);
  }
  EXPECT_NEAR(
      miner_exploitability(params, prices, budgets, eq_root.requests, true),
      0.0, 1e-5);
}

TEST(ShareRoot, GnepParityWithLegacyDecompositionHeterogeneous) {
  // Tight capacity so the surcharge search actually runs in both paths.
  NetworkParams params = default_params();
  params.edge_capacity = 4.0;
  const Prices prices{1.6, 1.0};
  const std::vector<double> budgets{8.0, 15.0, 30.0, 55.0};
  const auto eq_root = solve_standalone_gnep(params, prices, budgets, {});
  game::SharedPriceGnepOptions gnep_options;
  gnep_options.inner = reference_sweep();
  gnep_options.surcharge_hi0 = 0.25 * prices.edge;
  const auto legacy = game::solve_shared_price_gnep(
      [&](const game::Profile& profile, std::size_t player, double surcharge) {
        const MinerRequest response = miner_best_response(reference_env(
            params, prices, budgets[player], 1.0, surcharge, profile, player));
        return std::vector<double>{response.edge, response.cloud};
      },
      [](const game::Profile& profile) {
        double edge = 0.0;
        for (const auto& strategy : profile) edge += strategy[0];
        return edge;
      },
      params.edge_capacity,
      reference_seed(prices, budgets, params.edge_capacity), gnep_options);
  ASSERT_TRUE(eq_root.converged);
  ASSERT_TRUE(legacy.converged);
  EXPECT_EQ(eq_root.cap_active, legacy.cap_active);
  EXPECT_NEAR(eq_root.surcharge, legacy.surcharge,
              1e-4 * (1.0 + legacy.surcharge));
  EXPECT_NEAR(eq_root.totals.edge, legacy.shared_usage, 1e-5);
  EXPECT_LE(eq_root.totals.edge, params.edge_capacity * (1.0 + 1e-6));
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NEAR(eq_root.requests[i].edge, legacy.profile[i][0], 1e-4);
    EXPECT_NEAR(eq_root.requests[i].cloud, legacy.profile[i][1], 1e-4);
  }
}

TEST(ShareRoot, ConcurrentSolvesAgree) {
  // The root shares no mutable state across solves; concurrent solves (as
  // the leader-stage price scans issue) must be race-free and
  // deterministic. Run under TSan via the `tsan` label.
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const std::vector<double> budgets{10.0, 20.0, 30.0, 40.0};
  const MinerSolveOptions options;
  const auto solve_once = [&] {
    return solve_connected_nep(params, prices, budgets, options);
  };
  const MinerEquilibrium reference = solve_once();
  std::vector<MinerEquilibrium> results(4);
  std::vector<std::thread> workers;
  workers.reserve(results.size());
  for (auto& slot : results)
    workers.emplace_back([&, out = &slot] { *out = solve_once(); });
  for (auto& worker : workers) worker.join();
  for (const MinerEquilibrium& eq : results) {
    ASSERT_EQ(eq.requests.size(), reference.requests.size());
    for (std::size_t i = 0; i < eq.requests.size(); ++i) {
      EXPECT_EQ(eq.requests[i].edge, reference.requests[i].edge);
      EXPECT_EQ(eq.requests[i].cloud, reference.requests[i].cloud);
    }
  }
}

}  // namespace
}  // namespace hecmine::core
