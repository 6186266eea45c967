// Tests for game/gnep and game/stackelberg on toys with known solutions,
// including the leader iteration's exact-cycle exit.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "game/gnep.hpp"
#include "game/stackelberg.hpp"
#include "support/error.hpp"

namespace hecmine::game {
namespace {

// Toy jointly convex GNEP: player i maximizes -(x_i - t_i)^2 subject to
// x_i >= 0 and the shared cap x_1 + x_2 <= cap. The variational
// equilibrium shares one multiplier mu: x_i = max(t_i - mu/2, 0) with
// complementarity on the cap.
struct ToyGnep {
  double t1 = 3.0, t2 = 5.0;

  [[nodiscard]] PenalizedBestResponseFn oracle() const {
    return [*this](const Profile&, std::size_t player, double mu) {
      const double target = player == 0 ? t1 : t2;
      return std::vector<double>{std::max(0.0, target - 0.5 * mu)};
    };
  }

  [[nodiscard]] static SharedUsageFn usage() {
    return [](const Profile& profile) {
      return profile[0][0] + profile[1][0];
    };
  }
};

TEST(SharedPriceGnep, SlackCapGivesUnconstrainedOptima) {
  const ToyGnep toy;
  const auto result = solve_shared_price_gnep(toy.oracle(), ToyGnep::usage(),
                                              100.0, {{0.0}, {0.0}});
  ASSERT_TRUE(result.converged);
  EXPECT_FALSE(result.cap_active);
  EXPECT_DOUBLE_EQ(result.surcharge, 0.0);
  EXPECT_NEAR(result.profile[0][0], 3.0, 1e-8);
  EXPECT_NEAR(result.profile[1][0], 5.0, 1e-8);
}

TEST(SharedPriceGnep, BindingCapFindsVariationalEquilibrium) {
  // cap = 4: mu solves (t1 - mu/2) + (t2 - mu/2) = 4 -> mu = 4,
  // x = (1, 3).
  const ToyGnep toy;
  const auto result = solve_shared_price_gnep(toy.oracle(), ToyGnep::usage(),
                                              4.0, {{0.0}, {0.0}});
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(result.cap_active);
  EXPECT_NEAR(result.surcharge, 4.0, 1e-5);
  EXPECT_NEAR(result.profile[0][0], 1.0, 1e-5);
  EXPECT_NEAR(result.profile[1][0], 3.0, 1e-5);
  EXPECT_NEAR(result.shared_usage, 4.0, 1e-6);
}

TEST(SharedPriceGnep, CapTighterThanOnePlayersDemand) {
  // cap = 1: mu = (3 + 5 - 1) ... with both interior mu solves 8 - mu = 1,
  // mu = 7 -> x1 = max(3 - 3.5, 0) = 0, x2 = 5 - 3.5 = 1.5 > cap. The true
  // variational point has x1 = 0, x2 = 1, mu = 8.
  const ToyGnep toy;
  const auto result = solve_shared_price_gnep(toy.oracle(), ToyGnep::usage(),
                                              1.0, {{0.0}, {0.0}});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.profile[0][0], 0.0, 1e-5);
  EXPECT_NEAR(result.profile[1][0], 1.0, 1e-5);
  EXPECT_NEAR(result.surcharge, 8.0, 1e-4);
}

TEST(SharedPriceGnep, ValidatesCap) {
  const ToyGnep toy;
  EXPECT_THROW((void)solve_shared_price_gnep(toy.oracle(), ToyGnep::usage(),
                                             -1.0, {{0.0}, {0.0}}),
               support::PreconditionError);
}

// Differentiated-price duopoly: V_i = a_i (10 - a_i + 0.5 a_j).
// Best response a_i = (10 + 0.5 a_j)/2; symmetric NE at a* = 20/3.
TEST(Stackelberg, FindsPriceDuopolyEquilibrium) {
  const LeaderPayoffFn payoff = [](const std::vector<double>& actions,
                                   std::size_t leader) {
    const double own = actions[leader];
    const double rival = actions[1 - leader];
    return own * (10.0 - own + 0.5 * rival);
  };
  const std::vector<ActionBounds> bounds{{0.0, 20.0}, {0.0, 20.0}};
  const auto result = solve_stackelberg(payoff, {1.0, 1.0}, bounds);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.actions[0], 20.0 / 3.0, 1e-3);
  EXPECT_NEAR(result.actions[1], 20.0 / 3.0, 1e-3);
  // Payoffs are reported at the final action profile.
  const double expected_payoff =
      (20.0 / 3.0) * (10.0 - 20.0 / 3.0 + 0.5 * 20.0 / 3.0);
  EXPECT_NEAR(result.payoffs[0], expected_payoff, 1e-2);
}

TEST(Stackelberg, SingleLeaderReducesToMaximization) {
  const LeaderPayoffFn payoff = [](const std::vector<double>& actions,
                                   std::size_t) {
    return -(actions[0] - 7.0) * (actions[0] - 7.0);
  };
  const auto result = solve_stackelberg(payoff, {0.0}, {{0.0, 20.0}});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.actions[0], 7.0, 1e-4);
}

TEST(Stackelberg, ClampsStartAndFindsBoundaryOptimum) {
  const LeaderPayoffFn payoff = [](const std::vector<double>& actions,
                                   std::size_t) { return actions[0]; };
  const auto result = solve_stackelberg(payoff, {100.0}, {{0.0, 5.0}});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.actions[0], 5.0, 1e-6);
}

TEST(Stackelberg, ValidatesBounds) {
  const LeaderPayoffFn payoff = [](const std::vector<double>&, std::size_t) {
    return 0.0;
  };
  EXPECT_THROW((void)solve_stackelberg(payoff, {0.0}, {{1.0, 1.0}}),
               support::PreconditionError);
  EXPECT_THROW((void)solve_stackelberg(payoff, {}, {}),
               support::PreconditionError);
  EXPECT_THROW((void)solve_stackelberg(payoff, {0.0}, {{0.0, 1.0}, {0.0, 1.0}}),
               support::PreconditionError);
}

// --- exact-cycle exit -------------------------------------------------------
//
// Integer-valued toys: with bounds [lo, hi] and grid_points = hi - lo + 1
// the scan grid holds every integer exactly, and a payoff
// c(rival) - (own - target(rival))^2 with an integer target peaks on the
// grid, so each best response returns the target bit for bit and its
// payoff value is c(rival).

/// Two leaders; leader i's best response to the other's current action x
/// is targets[i](x), and its payoff at the optimum is 10 x.
LeaderPayoffFn integer_game(std::function<double(double)> target0,
                            std::function<double(double)> target1) {
  return [target0, target1](const std::vector<double>& actions,
                            std::size_t leader) {
    const double rival = actions[1 - leader];
    const double target = leader == 0 ? target0(rival) : target1(rival);
    const double gap = actions[leader] - target;
    return 10.0 * rival - gap * gap;
  };
}

StackelbergOptions integer_options(int max_rounds, double hi) {
  StackelbergOptions options;
  options.max_rounds = max_rounds;
  options.grid_points = static_cast<int>(hi) + 1;
  options.context.threads = 1;
  return options;
}

/// Leader 0 matches leader 1; leader 1 answers x with next[x]. From (0, 0)
/// the states run (0,1) (1,2) (2,3) (3,4) (4,2) (2,3): round 6 repeats
/// round 3, a period-3 cycle after a 3-round tail.
LeaderPayoffFn tail_then_period_three() {
  return integer_game([](double x) { return x; },
                      [](double x) {
                        static constexpr std::array<double, 5> next{
                            1.0, 2.0, 3.0, 4.0, 2.0};
                        return next[static_cast<std::size_t>(x)];
                      });
}

TEST(StackelbergCycleExit, DetectsPeriodTwoCycle) {
  // Matching pennies on {0, 1}: leader 0 matches, leader 1 mismatches.
  // (0,1) (1,0) (0,1): round 3 repeats round 1.
  const auto payoff = integer_game([](double x) { return x; },
                                   [](double x) { return 1.0 - x; });
  const std::vector<ActionBounds> bounds{{0.0, 1.0}, {0.0, 1.0}};
  const auto result =
      solve_stackelberg(payoff, {0.0, 0.0}, bounds, integer_options(200, 1.0));
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.cycle_period, 2);
  EXPECT_EQ(result.rounds, 3);
  EXPECT_EQ(result.residual, 1.0);
  // The state at detection: round 3's actions, which are round 1's.
  EXPECT_EQ(result.actions, (std::vector<double>{0.0, 1.0}));
}

TEST(StackelbergCycleExit, DetectsLongerCyclesAfterATail) {
  const std::vector<ActionBounds> bounds{{0.0, 4.0}, {0.0, 4.0}};
  const auto result = solve_stackelberg(tail_then_period_three(), {0.0, 0.0},
                                        bounds, integer_options(200, 4.0));
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.cycle_period, 3);
  EXPECT_EQ(result.rounds, 6);
  // The state at detection: round 6 runs (4,2) -> (2,3), both leaders
  // answering a rival action of 2.
  EXPECT_EQ(result.actions, (std::vector<double>{2.0, 3.0}));
  EXPECT_EQ(result.payoffs, (std::vector<double>{20.0, 20.0}));
  EXPECT_EQ(result.residual, 2.0);
}

TEST(StackelbergCycleExit, ReportsNoCycleOnSlowDrift) {
  // Each leader answers the other's action plus one: the iterate climbs
  // without ever revisiting a state inside the round budget.
  const auto payoff = integer_game([](double x) { return x + 1.0; },
                                   [](double x) { return x + 1.0; });
  const std::vector<ActionBounds> bounds{{0.0, 100.0}, {0.0, 100.0}};
  const auto result =
      solve_stackelberg(payoff, {0.0, 0.0}, bounds, integer_options(20, 100.0));
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.cycle_period, 0);
  EXPECT_EQ(result.rounds, 20);
  EXPECT_EQ(result.actions, (std::vector<double>{39.0, 40.0}));
}

TEST(StackelbergCycleExit, ConvergedRunReportsNoCycle) {
  // Both leaders match: (1, 3) -> (3, 3) -> (3, 3). The fixed point is
  // convergence under any positive tolerance; at tolerance 0 the loop can
  // never stop on it, so the repeat is reported as a period-1 cycle.
  const auto payoff = integer_game([](double x) { return x; },
                                   [](double x) { return x; });
  const std::vector<ActionBounds> bounds{{0.0, 4.0}, {0.0, 4.0}};
  auto options = integer_options(200, 4.0);
  const auto converged = solve_stackelberg(payoff, {1.0, 3.0}, bounds, options);
  EXPECT_TRUE(converged.converged);
  EXPECT_EQ(converged.cycle_period, 0);
  EXPECT_EQ(converged.rounds, 2);
  EXPECT_EQ(converged.actions, (std::vector<double>{3.0, 3.0}));

  options.tolerance = 0.0;
  const auto exact = solve_stackelberg(payoff, {1.0, 3.0}, bounds, options);
  EXPECT_FALSE(exact.converged);
  EXPECT_EQ(exact.cycle_period, 1);
  EXPECT_EQ(exact.rounds, 2);
  EXPECT_EQ(exact.actions, (std::vector<double>{3.0, 3.0}));
}

}  // namespace
}  // namespace hecmine::game
