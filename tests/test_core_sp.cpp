// Tests for core/sp: SP profits, the leader-stage equilibria (Algorithms 1
// and 2), the CSP reaction curve (Theorem 4 structure), the paper's
// cross-mode claims, and the price best response's exact-cycle exit.
#include "core/sp.hpp"

#include "core/oracle.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/aggregate_oracle.hpp"
#include "core/closed_forms.hpp"
#include "game/stackelberg.hpp"
#include "support/error.hpp"
#include "support/prof.hpp"
#include "support/telemetry.hpp"

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

SpSolveOptions fast_options() {
  SpSolveOptions options;
  options.grid_points = 28;
  options.max_rounds = 40;
  options.tolerance = 1e-4;
  options.context.follower.tolerance = 1e-8;
  return options;
}

TEST(SpProfits, MatchesDefinition) {
  const NetworkParams params = default_params();
  const SpProfits profits = sp_profits(params, {2.0, 1.0}, {10.0, 20.0});
  EXPECT_DOUBLE_EQ(profits.edge, (2.0 - 1.0) * 10.0);
  EXPECT_DOUBLE_EQ(profits.cloud, (1.0 - 0.4) * 20.0);
}

TEST(HomogeneousStackelberg, ConnectedEquilibriumIsSane) {
  const NetworkParams params = default_params();
  const auto result = solve_leader_stage_homogeneous(
      params, 40.0, 5, EdgeMode::kConnected, fast_options());
  EXPECT_TRUE(result.converged);
  // Prices above cost (otherwise an SP would be better off at cost).
  EXPECT_GT(result.prices.edge, params.cost_edge);
  EXPECT_GT(result.prices.cloud, params.cost_cloud);
  // The ESP has no delay penalty: it must command the premium price.
  EXPECT_GT(result.prices.edge, result.prices.cloud);
  EXPECT_GE(result.profits.edge, 0.0);
  EXPECT_GE(result.profits.cloud, 0.0);
  // Miners actually buy at the equilibrium.
  EXPECT_GT(result.followers.request().total(), 0.0);
}

TEST(HomogeneousStackelberg, EquilibriumPricesAreStable) {
  // At the computed solution: the CSP's price is a best response to P_e*
  // (it is the Stackelberg follower among leaders per Theorem 4), and the
  // ESP cannot gain by deviating along the CSP's reaction curve.
  const NetworkParams params = default_params();
  const auto options = fast_options();
  const auto result = solve_leader_stage_homogeneous(
      params, 40.0, 5, EdgeMode::kConnected, options);
  const auto cloud_payoff = [&](const Prices& prices) {
    const auto eq =
        solve_followers_symmetric(params, prices, 40.0, 5,
                                  EdgeMode::kConnected,
                                  options.context);
    return sp_profits(params, prices, eq.totals).cloud;
  };
  const auto composite_edge_payoff = [&](double pe) {
    const double pc = csp_reaction_homogeneous(params, 40.0, 5,
                                               EdgeMode::kConnected, pe,
                                               options);
    const auto eq =
        solve_followers_symmetric(params, {pe, pc}, 40.0, 5,
                                  EdgeMode::kConnected,
                                  options.context);
    return sp_profits(params, {pe, pc}, eq.totals).edge;
  };
  const double base_cloud = cloud_payoff(result.prices);
  const double base_edge = composite_edge_payoff(result.prices.edge);
  for (double factor : {0.9, 0.97, 1.03, 1.1}) {
    Prices probe_c = result.prices;
    probe_c.cloud *= factor;
    if (probe_c.cloud > params.cost_cloud) {
      EXPECT_LE(cloud_payoff(probe_c), base_cloud * 1.01 + 1e-6);
    }
    const double probe_pe = result.prices.edge * factor;
    if (probe_pe > params.cost_edge) {
      EXPECT_LE(composite_edge_payoff(probe_pe), base_edge * 1.01 + 1e-6);
    }
  }
}

TEST(HomogeneousStackelberg, StandaloneSellsOutTheEdge) {
  // Paper Problem 2c: at the standalone SP equilibrium the ESP sells its
  // whole capacity (with sufficient miner budgets).
  const NetworkParams params = default_params();
  const auto result = solve_leader_stage_homogeneous(
      params, 500.0, 5, EdgeMode::kStandalone, fast_options());
  EXPECT_NEAR(5.0 * result.followers.request().edge, params.edge_capacity,
              0.05 * params.edge_capacity);
}

TEST(HomogeneousStackelberg, StandaloneEspChargesMoreAndEarnsMore) {
  // Paper Sec. IV-C.3 & Fig. 8: with scarce edge capacity (the paper's
  // premise: "limited and expensive edge resources"), the standalone mode
  // lets the ESP charge a higher price and extract more profit than the
  // connected mode, while the CSP's profit does not improve.
  NetworkParams params = default_params();
  params.edge_capacity = 4.0;
  const auto connected = solve_leader_stage_homogeneous(
      params, 500.0, 5, EdgeMode::kConnected, fast_options());
  const auto standalone =
      solve_leader_stage_sellout(params, 500.0, 5, fast_options());
  EXPECT_GT(standalone.prices.edge, connected.prices.edge);
  EXPECT_GT(standalone.profits.edge, connected.profits.edge);
  EXPECT_LT(standalone.profits.cloud, connected.profits.cloud * 1.05);
}

TEST(HomogeneousStackelberg, StandaloneSelloutMatchesTableIIClosedForm) {
  const NetworkParams params = default_params();
  const auto closed = standalone_sp_closed_form(params, 5);
  ASSERT_TRUE(closed.valid);
  SpSolveOptions options = fast_options();
  options.grid_points = 80;
  const auto numeric = solve_leader_stage_sellout(params, 1e4, 5, options);
  EXPECT_NEAR(numeric.prices.cloud, closed.prices.cloud,
              0.02 * closed.prices.cloud);
  EXPECT_NEAR(numeric.prices.edge, closed.prices.edge,
              0.02 * closed.prices.edge);
  EXPECT_NEAR(numeric.profits.edge, closed.profit_edge,
              0.02 * closed.profit_edge);
}

TEST(HomogeneousStackelberg, UnconstrainedStandaloneLetsCspUndercut) {
  // Observed refinement of the paper's Problem 2c (documented in
  // EXPERIMENTS.md): without the imposed sell-out constraint, the CSP
  // undercuts just below the ESP's sell-out price, so the free equilibrium
  // yields the ESP weakly less profit than the Table II point.
  const NetworkParams params = default_params();
  const auto sellout =
      solve_leader_stage_sellout(params, 1e4, 5, fast_options());
  const auto free_game = solve_leader_stage_homogeneous(
      params, 1e4, 5, EdgeMode::kStandalone, fast_options());
  EXPECT_LE(free_game.profits.edge, sellout.profits.edge * 1.01);
}

TEST(CspReaction, LiesBelowMixedBoundAndAboveCost) {
  const NetworkParams params = default_params();
  for (double pe : {1.8, 2.5, 3.5}) {
    const double pc = csp_reaction_homogeneous(params, 40.0, 5,
                                               EdgeMode::kConnected, pe,
                                               fast_options());
    EXPECT_GT(pc, params.cost_cloud);
    EXPECT_LT(pc, pe);
  }
}

TEST(CspReaction, HigherEdgePriceAllowsHigherCloudPrice) {
  // Strategic complements: the CSP's best response rises with P_e.
  const NetworkParams params = default_params();
  const double low = csp_reaction_homogeneous(params, 40.0, 5,
                                              EdgeMode::kConnected, 2.0,
                                              fast_options());
  const double high = csp_reaction_homogeneous(params, 40.0, 5,
                                               EdgeMode::kConnected, 4.0,
                                               fast_options());
  EXPECT_GE(high, low - 1e-3);
}

TEST(SequentialSolve, AgreesWithSimultaneousOnProfits) {
  // Theorem 4's sequential construction should give (approximately) the
  // same outcome as asynchronous best response when the latter converges.
  const NetworkParams params = default_params();
  const auto simultaneous = solve_leader_stage_homogeneous(
      params, 40.0, 5, EdgeMode::kConnected, fast_options());
  const auto sequential = solve_leader_stage_sequential(
      params, 40.0, 5, EdgeMode::kConnected, fast_options());
  EXPECT_NEAR(sequential.profits.edge, simultaneous.profits.edge,
              0.1 * std::abs(simultaneous.profits.edge) + 0.5);
}

TEST(FullProfileStackelberg, HeterogeneousBudgetsSolve) {
  const NetworkParams params = default_params();
  SpSolveOptions options = fast_options();
  options.grid_points = 16;
  options.max_rounds = 15;
  options.tolerance = 1e-3;
  const std::vector<double> budgets{20.0, 30.0, 40.0};
  const auto result =
      solve_leader_stage(params, budgets, EdgeMode::kConnected, options);
  EXPECT_GT(result.prices.edge, params.cost_edge);
  EXPECT_GT(result.prices.cloud, params.cost_cloud);
  EXPECT_GT(result.followers.totals.grand(), 0.0);
  // Richer miners buy more at the equilibrium prices.
  EXPECT_GE(result.followers.request(2).total(),
            result.followers.request(0).total() - 1e-6);
}

TEST(SpSolve, ValidatesInputs) {
  const NetworkParams params = default_params();
  EXPECT_THROW((void)solve_leader_stage_homogeneous(
                   params, 0.0, 5, EdgeMode::kConnected),
               support::PreconditionError);
  EXPECT_THROW((void)solve_leader_stage_homogeneous(
                   params, 10.0, 1, EdgeMode::kConnected),
               support::PreconditionError);
  EXPECT_THROW((void)solve_leader_stage(params, {}, EdgeMode::kConnected),
               support::PreconditionError);
}

TEST(LeaderStageCycle, SpPriceBestResponseCyclesAsDocumented) {
  // The literal Algorithm-1 price dynamics on the sufficient-budget
  // homogeneous game: each SP best-responds to the other's last price.
  // The dynamics must NOT settle (the simultaneous game lacks a pure NE
  // here) — the diagnosis behind the sequential fallback of
  // solve_leader_stage_homogeneous. solve_stackelberg sees the price
  // vector repeat exactly and stops well inside its round budget.
  const NetworkParams params = default_params();
  const double budget = 40.0;
  const int n = 5;
  const game::LeaderPayoffFn payoff = [&](const std::vector<double>& prices,
                                          std::size_t leader) {
    const Prices p{prices[0], prices[1]};
    const auto eq = solve_followers_symmetric(params, p, budget, n,
                                              EdgeMode::kConnected);
    const auto profits = sp_profits(params, p, eq.totals);
    return leader == 0 ? profits.edge : profits.cloud;
  };
  game::StackelbergOptions options;
  options.grid_points = 60;
  options.max_rounds = 30;
  options.tolerance = 1e-3;
  options.context.threads = 1;
  const std::vector<game::ActionBounds> bounds{
      {params.cost_edge * 1.001, 52.0}, {params.cost_cloud * 1.001, 52.0}};
  const auto result =
      game::solve_stackelberg(payoff, {3.0, 1.2}, bounds, options);
  EXPECT_FALSE(result.converged);
  EXPECT_GE(result.cycle_period, 2);
  EXPECT_LT(result.rounds, options.max_rounds);
  EXPECT_GT(result.residual, 1.0);  // the cycle spans a wide price range
}

/// One leader-stage game whose prices were recorded (as hex floats) on the
/// full 60-round best response, before the exact-cycle exit existed. The
/// profile-path games were re-recorded when the share-function root
/// replaced the best-response sweeps of the follower stage: the follower
/// answers moved at the sweeps' 1e-9 tolerance, and the plateau of V_e
/// turned that into ~3e-5 relative in the prices (V_e moved by <= 3e-9).
struct PinnedGame {
  const char* name;
  std::vector<double> budgets;
  EdgeMode mode;
  double edge_capacity;
  int grid_points;
  double price_edge;
  double price_cloud;
};

LeaderStageResult solve_pinned(const PinnedGame& game, int threads,
                               support::Telemetry* telemetry = nullptr) {
  NetworkParams params = default_params();
  params.edge_capacity = game.edge_capacity;
  SpSolveOptions options;  // library defaults: 60 rounds, tolerance 1e-5
  options.grid_points = game.grid_points;
  options.context.threads = threads;
  options.context.telemetry = telemetry;
  return solve_leader_stage(params, game.budgets, game.mode, options);
}

/// The cycle exit must change no answer: the same prices bit for bit, the
/// same Theorem 4 fallback, far fewer rounds, and no thread dependence.
void expect_pinned(const PinnedGame& game) {
  SCOPED_TRACE(game.name);
  support::Telemetry sink;
  const LeaderStageResult serial = solve_pinned(game, 1, &sink);
  EXPECT_EQ(serial.prices.edge, game.price_edge);
  EXPECT_EQ(serial.prices.cloud, game.price_cloud);
  EXPECT_EQ(serial.method, SpSolveMethod::kSequential);
  EXPECT_TRUE(serial.converged);
  EXPECT_LE(serial.rounds, 14);  // was 61: 60 wasted rounds + the fallback
  EXPECT_GE(serial.cycle_period, 2);
  EXPECT_EQ(sink.metrics.counter("sp.best_response_cycles").value(), 1u);
  EXPECT_EQ(sink.metrics.counter("sp.sequential_fallbacks").value(), 1u);
  const LeaderStageResult threaded = solve_pinned(game, 2);
  EXPECT_EQ(threaded.prices.edge, serial.prices.edge);
  EXPECT_EQ(threaded.prices.cloud, serial.prices.cloud);
  EXPECT_EQ(threaded.rounds, serial.rounds);
}

TEST(LeaderStageCycle, SymmetricPathPricesArePinned) {
  const std::vector<PinnedGame> games{
      {"connected n=5 B=40", std::vector<double>(5, 40.0),
       EdgeMode::kConnected, 8.0, 40, 0x1.91c0bcde804bcp+2,
       0x1.1d1bace812d35p+1},
      {"connected n=8 B=20", std::vector<double>(8, 20.0),
       EdgeMode::kConnected, 4.0, 40, 0x1.91b81d0d61a8bp+2,
       0x1.1d17a9f18a311p+1},
      {"standalone n=5 B=40", std::vector<double>(5, 40.0),
       EdgeMode::kStandalone, 8.0, 40, 0x1.cd9d1c45ad59ep+1,
       0x1.c9f25c4fecd66p+0},
      {"standalone n=8 B=20", std::vector<double>(8, 20.0),
       EdgeMode::kStandalone, 4.0, 40, 0x1.b360d403e3f12p+2,
       0x1.52a7fa2b760bfp+1},
  };
  for (const PinnedGame& game : games) expect_pinned(game);
}

TEST(LeaderStageCycle, ConnectedProfilePathPricesArePinned) {
  expect_pinned({"connected budgets {10, 15}", {10.0, 15.0},
                 EdgeMode::kConnected, 8.0, 8, 0x1.91c2a007e94dfp+2,
                 0x1.1d1c8dbd1c9d8p+1});
}

TEST(LeaderStageCycle, StandaloneProfilePathPricesArePinned) {
  expect_pinned({"standalone budgets {20, 30}", {20.0, 30.0},
                 EdgeMode::kStandalone, 20.0, 8, 0x1.a422d87f1efc1p+2,
                 0x1.1b9997b2cbe22p+1});
}

/// Leader candidates evaluated by one serial solve (deterministic: the
/// grids and golden-section iteration counts do not depend on the values).
std::uint64_t leader_evals(const PinnedGame& game) {
  support::Telemetry sink;
  (void)solve_pinned(game, 1, &sink);
  return sink.work.total()[support::prof::WorkField::kUtilityEvals];
}

TEST(ProfileFallback, HalvesTheLeaderEvaluationsOfThePinnedGames) {
  // Counts recorded with the fallback that ran a P_c grid plus three
  // golden-section refines at every composite probe: 42767 on both games.
  const PinnedGame connected{"connected budgets {10, 15}", {10.0, 15.0},
                             EdgeMode::kConnected, 8.0, 8, 0.0, 0.0};
  const PinnedGame standalone{"standalone budgets {20, 30}", {20.0, 30.0},
                              EdgeMode::kStandalone, 20.0, 8, 0.0, 0.0};
  constexpr std::uint64_t kThreeRefineEvals = 42767;
  EXPECT_LE(leader_evals(connected), kThreeRefineEvals / 2);
  EXPECT_LE(leader_evals(standalone), kThreeRefineEvals / 2);
}

TEST(ProfileFallback, EspProfitHoldsAgainstTheThreeRefinePrices) {
  // Library-default grid, distinct budgets: the prices below are those of
  // the three-refine fallback. V_e at the new prices must not fall below
  // V_e at those prices, both priced by the full-profile oracle, by more
  // than the profit plateau's noise (the CSP reaction is located to
  // ~1e-8 in P_c, which moves V_e by up to a few 1e-8 relative).
  struct Reference {
    const char* name;
    std::vector<double> budgets;
    EdgeMode mode;
    double edge_capacity;
    Prices prices;
  };
  const std::vector<Reference> games{
      {"connected {10, 25}", {10.0, 25.0}, EdgeMode::kConnected, 8.0,
       {0x1.91ace5dc64e87p+2, 0x1.1d1272700e2c9p+1}},
      {"connected {20, 30, 45}", {20.0, 30.0, 45.0}, EdgeMode::kConnected,
       8.0, {0x1.91cd4626743f3p+2, 0x1.1d218190a9651p+1}},
      {"connected {5, 12, 40}", {5.0, 12.0, 40.0}, EdgeMode::kConnected, 4.0,
       {0x1.91b4568edc7afp+2, 0x1.1d15e83e0da2fp+1}},
      {"standalone {15, 35}", {15.0, 35.0}, EdgeMode::kStandalone, 8.0,
       {0x1.a42f0ba0d296dp+2, 0x1.1b9eec38fb14ep+1}},
      {"standalone {25, 40, 60}", {25.0, 40.0, 60.0}, EdgeMode::kStandalone,
       12.0, {0x1.a41375588d5e9p+2, 0x1.1b92dea46964ap+1}},
  };
  for (const Reference& game : games) {
    SCOPED_TRACE(game.name);
    NetworkParams params = default_params();
    params.edge_capacity = game.edge_capacity;
    SpSolveOptions options;
    options.context.threads = 1;
    const LeaderStageResult result =
        solve_leader_stage(params, game.budgets, game.mode, options);
    EXPECT_EQ(result.method, SpSolveMethod::kSequential);
    const auto oracle =
        make_profile_oracle(params, game.budgets, game.mode, options.context);
    const double reference_edge =
        sp_profits(params, game.prices, oracle->solve(game.prices).totals)
            .edge;
    EXPECT_GE(result.profits.edge, reference_edge * (1.0 - 1e-7));
  }
}

}  // namespace
}  // namespace hecmine::core
