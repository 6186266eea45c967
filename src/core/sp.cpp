#include "core/sp.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "core/aggregate_oracle.hpp"
#include "core/equilibrium_cache.hpp"
#include "game/stackelberg.hpp"
#include "numerics/optimize.hpp"
#include "numerics/roots.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"

namespace hecmine::core {

SpProfits sp_profits(const NetworkParams& params, const Prices& prices,
                     const Totals& totals) {
  params.validate();
  SpProfits profits;
  profits.edge = (prices.edge - params.cost_edge) * totals.edge;
  profits.cloud = (prices.cloud - params.cost_cloud) * totals.cloud;
  return profits;
}

namespace {

struct PriceBox {
  game::ActionBounds edge;
  game::ActionBounds cloud;
};

PriceBox price_box(const NetworkParams& params, const SpSolveOptions& options) {
  // Default ceiling: demand is ~R/n-scale per unit price gap, so prices
  // beyond a few times the cost plus a reward fraction sell nothing;
  // keeping the box tight keeps the scan resolution useful.
  const double ceiling =
      options.price_ceiling > 0.0
          ? options.price_ceiling
          : 2.0 * std::max(params.cost_edge, params.cost_cloud) +
                0.5 * params.reward;
  PriceBox box;
  box.edge = {params.cost_edge * (1.0 + options.price_margin) + 1e-9, ceiling};
  box.cloud = {params.cost_cloud * (1.0 + options.price_margin) + 1e-9,
               ceiling};
  HECMINE_REQUIRE(box.edge.lo < box.edge.hi && box.cloud.lo < box.cloud.hi,
                  "SP solve: price ceiling below the cost floor");
  return box;
}

/// Leader-stage telemetry accessors: the phase trace and counters live in
/// the context's sink; absent sink = null trace (Scope no-ops) and no
/// counter touches.
support::SolveTrace* trace_of(const SolveContext& context) {
  return context.telemetry == nullptr ? nullptr : &context.telemetry->trace;
}

void count_leader_solve(const SolveContext& context) {
  if (context.telemetry != nullptr)
    context.telemetry->metrics.counter("sp.leader_solves").add();
}

void count_best_response_rounds(const SolveContext& context, int rounds) {
  if (context.telemetry != nullptr && rounds > 0)
    context.telemetry->metrics.counter("sp.best_response_rounds")
        .add(static_cast<std::uint64_t>(rounds));
  if (auto* work = support::prof::current_block();
      work != nullptr && rounds > 0)
    work->add(support::prof::WorkField::kConvergenceChecks,
              static_cast<std::uint64_t>(rounds));
}

/// One leader candidate evaluated (a price point priced through the
/// follower oracle into an SP profit).
void count_leader_eval() {
  if (auto* work = support::prof::current_block(); work != nullptr)
    work->add(support::prof::WorkField::kUtilityEvals, 1);
}

void count_best_response_cycle(const SolveContext& context,
                               const game::StackelbergResult& leader) {
  if (context.telemetry != nullptr && leader.cycle_period > 0)
    context.telemetry->metrics.counter("sp.best_response_cycles").add();
}

void count_theorem4_fallback(const SolveContext& context) {
  if (context.telemetry != nullptr)
    context.telemetry->metrics.counter("sp.sequential_fallbacks").add();
}

/// Installs the context's sink as the issuing thread's telemetry for the
/// duration of a leader-stage entry point. The thread pool captures the
/// issuer's thread-local sink at dispatch time, so without this scope the
/// price-scan fan-outs would run untracked; a null sink installs nothing
/// (any outer scope stays in effect).
class StageTelemetryScope {
 public:
  explicit StageTelemetryScope(const SolveContext& context) {
    if (context.telemetry != nullptr) scope_.emplace(context.telemetry);
  }

 private:
  std::optional<support::TelemetryScope> scope_;
};

/// Symmetric fast-path oracle for n identical miners. `scan` caps the inner
/// iteration budget: closed forms handle the common price regions
/// instantly, and an approximate demand in an exotic price corner is fine
/// for locating the leader optimum; the finishing solve runs uncapped.
std::unique_ptr<FollowerOracle> homogeneous_oracle(const NetworkParams& params,
                                                   double budget, int n,
                                                   EdgeMode mode,
                                                   const SolveContext& context,
                                                   bool scan) {
  MinerSolveOptions follower = context.follower;
  if (scan) follower.max_iterations = std::min(follower.max_iterations, 600);
  return decorate_follower_oracle(
      std::make_unique<SymmetricFollowerOracle>(params, budget, n, mode,
                                                follower),
      context);
}

/// Full-profile follower oracle (NEP / shared-price GNEP) for arbitrary
/// budgets.
std::unique_ptr<FollowerOracle> profile_oracle(
    const NetworkParams& params, const std::vector<double>& budgets,
    EdgeMode mode, const SolveContext& context) {
  // The factory honors context.aggregate, so large few-class pools run the
  // leader stage over the O(K) class-aggregate follower solve.
  return decorate_follower_oracle(
      make_profile_oracle(params, budgets, mode, context), context);
}

/// Finishes a leader-stage result from final prices with the given
/// (uncapped) follower oracle.
LeaderStageResult finish_leader_stage(const NetworkParams& params,
                                      const FollowerOracle& oracle,
                                      const Prices& prices) {
  LeaderStageResult result;
  result.prices = prices;
  result.followers = oracle.solve(prices);
  result.profits = sp_profits(params, prices, result.followers.totals);
  return result;
}

/// Shared Algorithm 1/2 driver: asynchronous leader best response over
/// prices with the scan-time follower oracle embedded in the payoff.
game::StackelbergResult run_leader_best_response(const NetworkParams& params,
                                                 const FollowerOracle& oracle,
                                                 const PriceBox& box,
                                                 const SpSolveOptions& options,
                                                 const SolveContext& context) {
  const game::LeaderPayoffFn payoff = [&](const std::vector<double>& actions,
                                          std::size_t leader) {
    count_leader_eval();
    const Prices prices{actions[0], actions[1]};
    const SpProfits profits =
        sp_profits(params, prices, oracle.solve(prices).totals);
    return leader == 0 ? profits.edge : profits.cloud;
  };
  game::StackelbergOptions driver;
  driver.tolerance = options.tolerance;
  driver.max_rounds = options.max_rounds;
  driver.grid_points = options.grid_points;
  driver.context = context;
  const std::vector<double> start{
      std::min(box.edge.hi, 2.0 * params.cost_edge + 1.0),
      std::min(box.cloud.hi, 2.0 * params.cost_cloud + 0.5)};
  return game::solve_stackelberg(payoff, start, {box.edge, box.cloud}, driver);
}

/// The leader-stage skeleton of every best-response entry point: Algorithm
/// 1/2's price best response over the `scan` oracle, finished with the
/// `finishing` oracle when it converges. When it does not (the simultaneous
/// price game cycles, having no pure NE, or runs out of rounds) the answer
/// is `fallback`'s Theorem 4 sequential construction instead.
LeaderStageResult best_response_or_sequential(
    const NetworkParams& params, const FollowerOracle& scan,
    const FollowerOracle& finishing, const PriceBox& box,
    const SpSolveOptions& options, const SolveContext& context,
    const std::function<LeaderStageResult()>& fallback) {
  game::StackelbergResult leader;
  {
    const support::SolveTrace::Scope phase(trace_of(context), "best_response");
    leader = run_leader_best_response(params, scan, box, options, context);
  }
  count_best_response_rounds(context, leader.rounds);
  count_best_response_cycle(context, leader);
  LeaderStageResult result;
  if (leader.converged) {
    const support::SolveTrace::Scope phase(trace_of(context), "finish");
    result = finish_leader_stage(params, finishing,
                                 {leader.actions[0], leader.actions[1]});
    result.method = SpSolveMethod::kBestResponse;
    result.converged = true;
  } else {
    count_theorem4_fallback(context);
    result = fallback();
  }
  result.rounds += leader.rounds;
  result.cycle_period = leader.cycle_period;
  return result;
}

/// CSP reaction P_c*(P_e) against a given follower oracle over a given
/// price box. Shared by csp_reaction_homogeneous and the sequential leader
/// solver so the latter reuses ONE scan oracle across the whole composite
/// scan instead of re-validating params and rebuilding the oracle at every
/// composite point.
double csp_reaction_with_oracle(const NetworkParams& params,
                                const FollowerOracle& oracle,
                                const PriceBox& box, double price_edge,
                                const SpSolveOptions& options) {
  num::Maximize1DOptions scan_options;
  scan_options.grid_points = options.grid_points;
  scan_options.tolerance = 1e-8;
  const auto objective = [&](double price_cloud) {
    count_leader_eval();
    const Prices prices{price_edge, price_cloud};
    return sp_profits(params, prices, oracle.solve(prices).totals).cloud;
  };
  return num::maximize_scan(objective, box.cloud.lo, box.cloud.hi,
                            scan_options)
      .argmax;
}

/// The CSP's reaction P_c*(P_e) on the full-profile path, located by the
/// reaction scan's P_c grid (the abscissae of maximize_scan) and refined
/// by ONE golden-section search. The best grid cells of this objective are
/// neighbours, so the three overlapping refines of maximize_scan converge
/// on the same maximum; `cell` records where it was found so a nearby P_e
/// can skip the grid.
class CspReactionCurve {
 public:
  struct Point {
    double price = 0.0;  ///< P_c*(P_e)
    int cell = 0;        ///< best P_c grid cell of the reaction scan
  };

  CspReactionCurve(const NetworkParams& params, const FollowerOracle& oracle,
                   const PriceBox& box, int cells)
      : params_(params), oracle_(oracle), box_(box), cells_(cells) {
    HECMINE_REQUIRE(cells_ >= 2, "CSP reaction scan needs two grid points");
  }

  /// Full reaction: the P_c grid, then one refine around its best cell.
  [[nodiscard]] Point at(double price_edge) const {
    Point best;
    double best_value = -std::numeric_limits<double>::infinity();
    for (int cell = 0; cell < cells_; ++cell) {
      const double price = grid_price(cell);
      const double value = csp_profit(price_edge, price);
      if (value > best_value) {
        best = {price, cell};
        best_value = value;
      }
    }
    const auto refined = refine(price_edge, best.cell, best.cell);
    if (refined.value > best_value) best.price = refined.argmax;
    return best;
  }

  /// Reaction known to lie within grid cells [first, last] (one cell of
  /// slack each side): one refine, no grid.
  [[nodiscard]] double within(double price_edge, int first, int last) const {
    return refine(price_edge, first, last).argmax;
  }

 private:
  [[nodiscard]] double grid_price(int cell) const {
    return box_.cloud.lo + (box_.cloud.hi - box_.cloud.lo) *
                               static_cast<double>(cell) /
                               static_cast<double>(cells_ - 1);
  }

  [[nodiscard]] double csp_profit(double price_edge,
                                  double price_cloud) const {
    count_leader_eval();
    const Prices prices{price_edge, price_cloud};
    return sp_profits(params_, prices, oracle_.solve(prices).totals).cloud;
  }

  /// Golden-section search over [cell first - 1, cell last + 1], clamped
  /// to the box (maximize_scan's refine interval when first == last).
  [[nodiscard]] num::Maximize1DResult refine(double price_edge, int first,
                                             int last) const {
    const double step =
        (box_.cloud.hi - box_.cloud.lo) / static_cast<double>(cells_ - 1);
    num::Maximize1DOptions options;
    options.tolerance = 1e-8;
    return num::golden_section_maximize(
        [&](double price_cloud) { return csp_profit(price_edge, price_cloud); },
        std::max(box_.cloud.lo, grid_price(first) - step),
        std::min(box_.cloud.hi, grid_price(last) + step), options);
  }

  const NetworkParams& params_;
  const FollowerOracle& oracle_;
  PriceBox box_;
  int cells_;
};

/// Oracle-generic Theorem 4 construction: compute the CSP's numeric
/// reaction curve P_c*(P_e) against the given follower oracle, substitute
/// it into V_e and maximize the one-dimensional composite with
/// maximize_scan's grid + top-3 refines. The outer grid records each
/// point's best P_c cell, so the composite inside the refine around grid
/// point k runs one golden-section reaction refine over the cells of
/// points k-1..k+1 instead of a fresh P_c grid. Mirrors
/// solve_leader_stage_sequential (which keeps the cheaper homogeneous
/// reaction solver) for arbitrary oracles; solve_leader_stage uses it as
/// the cycle fallback of the full-profile path.
LeaderStageResult sequential_with_oracle(const NetworkParams& params,
                                         const FollowerOracle& oracle,
                                         const PriceBox& box,
                                         const SpSolveOptions& options,
                                         const SolveContext& context) {
  const CspReactionCurve reaction(params, oracle, box, options.grid_points);
  num::Maximize1DOptions scan;
  scan.grid_points = std::max(4 * options.grid_points, 160);
  scan.tolerance = 1e-7;
  const auto edge_profit = [&](double price_edge, double price_cloud) {
    count_leader_eval();
    const Prices prices{price_edge, price_cloud};
    return sp_profits(params, prices, oracle.solve(prices).totals).edge;
  };
  const auto composite = [&](double price_edge) {
    return edge_profit(price_edge, reaction.at(price_edge).price);
  };
  // Each composite point runs its reaction serially inside, so the outer
  // grid and the outer refines are the stages to fan out. Both write only
  // their own slot, so every thread count gives the same answer.
  const int executors = support::resolve_thread_count(context.threads);
  std::vector<double> grid;  // outer P_e grid, as the scan laid it out
  std::vector<int> cells;    // best P_c cell of each outer grid point
  const num::BatchEvaluateFn batch = [&](const std::vector<double>& xs) {
    grid = xs;
    cells.assign(xs.size(), 0);
    return support::parallel_map(
        xs.size(),
        [&](std::size_t i) {
          const CspReactionCurve::Point point = reaction.at(xs[i]);
          cells[i] = point.cell;
          return edge_profit(xs[i], point.price);
        },
        executors);
  };
  const num::RefineRunnerFn refine =
      [&](const std::vector<num::RefineInterval>& intervals) {
        // The refine around grid point k spans points k-1..k+1 (clamped to
        // the box); half a grid step of slack absorbs rounding in its ends.
        const double slack = 0.5 * (box.edge.hi - box.edge.lo) /
                             static_cast<double>(grid.size() - 1);
        return support::parallel_map(
            intervals.size(),
            [&](std::size_t r) {
              const num::RefineInterval& interval = intervals[r];
              int first = options.grid_points - 1;
              int last = 0;
              for (std::size_t k = 0; k < grid.size(); ++k) {
                if (grid[k] < interval.lo - slack ||
                    grid[k] > interval.hi + slack)
                  continue;
                first = std::min(first, cells[k]);
                last = std::max(last, cells[k]);
              }
              return num::golden_section_maximize(
                  [&](double price_edge) {
                    return edge_profit(
                        price_edge, reaction.within(price_edge, first, last));
                  },
                  interval.lo, interval.hi, scan);
            },
            executors);
      };
  const auto best = num::maximize_scan_batched(composite, batch, refine,
                                               box.edge.lo, box.edge.hi, scan);
  Prices prices;
  prices.edge = best.argmax;
  prices.cloud = reaction.at(prices.edge).price;
  auto result = finish_leader_stage(params, oracle, prices);
  result.method = SpSolveMethod::kSequential;
  result.converged = true;
  result.rounds = 1;
  return result;
}

}  // namespace

LeaderStageResult solve_leader_stage_homogeneous(const NetworkParams& params,
                                                 double budget, int n,
                                                 EdgeMode mode,
                                                 const SpSolveOptions& options) {
  params.validate();
  HECMINE_REQUIRE(budget > 0.0, "SP solve: budget must be positive");
  HECMINE_REQUIRE(n >= 2, "SP solve: n >= 2 required");
  const SolveContext& context = options.context;
  count_leader_solve(context);
  const StageTelemetryScope telemetry_scope(context);
  const support::SolveTrace::Scope stage(trace_of(context),
                                         "leader_stage.homogeneous");
  const PriceBox box = price_box(params, options);
  const auto scan = homogeneous_oracle(params, budget, n, mode, context, true);
  const auto full = homogeneous_oracle(params, budget, n, mode, context, false);
  return best_response_or_sequential(
      params, *scan, *full, box, options, context, [&] {
        return solve_leader_stage_sequential(params, budget, n, mode, options);
      });
}

double csp_reaction_homogeneous(const NetworkParams& params, double budget,
                                int n, EdgeMode mode, double price_edge,
                                const SpSolveOptions& options) {
  params.validate();
  HECMINE_REQUIRE(price_edge > 0.0, "csp_reaction: price_edge must be > 0");
  const SolveContext& context = options.context;
  const PriceBox box = price_box(params, options);
  const auto scan = homogeneous_oracle(params, budget, n, mode, context, true);
  return csp_reaction_with_oracle(params, *scan, box, price_edge, options);
}

LeaderStageResult solve_leader_stage_sequential(const NetworkParams& params,
                                                double budget, int n,
                                                EdgeMode mode,
                                                const SpSolveOptions& options) {
  params.validate();
  const SolveContext& context = options.context;
  const StageTelemetryScope telemetry_scope(context);
  const support::SolveTrace::Scope stage(trace_of(context),
                                         "leader_stage.sequential");
  const PriceBox box = price_box(params, options);
  const auto scan_oracle =
      homogeneous_oracle(params, budget, n, mode, context, true);
  num::Maximize1DOptions scan;
  // The composite objective can carry a narrow spike at the capacity
  // sell-out price (the ESP's optimum sits just below the point where the
  // CSP would rather undercut), so the outer scan is run much finer than
  // the inner reaction scans.
  scan.grid_points = std::max(4 * options.grid_points, 160);
  scan.tolerance = 1e-7;
  // V_e with the CSP reaction substituted (Theorem 4's re-written Eq. 22).
  // Each composite point is one full reaction-curve solve, so the outer
  // scan is the expensive stage — fan it out over the pool (the nested
  // reaction scans stay serial inside each point). The reaction shares
  // this scope's scan oracle: rebuilding it per composite point would
  // re-validate params and redo the oracle setup a few hundred times.
  const auto composite = [&](double price_edge) {
    count_leader_eval();
    const double price_cloud =
        csp_reaction_with_oracle(params, *scan_oracle, box, price_edge,
                                 options);
    const Prices prices{price_edge, price_cloud};
    return sp_profits(params, prices, scan_oracle->solve(prices).totals).edge;
  };
  const auto best = num::maximize_scan_parallel(composite, box.edge.lo,
                                                box.edge.hi, scan,
                                                context.threads);

  Prices prices;
  prices.edge = best.argmax;
  prices.cloud =
      csp_reaction_with_oracle(params, *scan_oracle, box, prices.edge, options);
  const auto full = homogeneous_oracle(params, budget, n, mode, context, false);
  auto result = finish_leader_stage(params, *full, prices);
  result.method = SpSolveMethod::kSequential;
  result.converged = true;
  result.rounds = 1;
  return result;
}

LeaderStageResult solve_leader_stage_sellout(const NetworkParams& params,
                                             double budget, int n,
                                             const SpSolveOptions& options) {
  params.validate();
  HECMINE_REQUIRE(budget > 0.0, "SP solve: budget must be positive");
  HECMINE_REQUIRE(n >= 2, "SP solve: n >= 2 required");
  const SolveContext& context = options.context;
  count_leader_solve(context);
  const StageTelemetryScope telemetry_scope(context);
  const support::SolveTrace::Scope stage(trace_of(context),
                                         "leader_stage.sellout");
  const PriceBox box = price_box(params, options);

  // Unconstrained (cap-free) standalone edge demand at the given prices:
  // the h = 1 connected game, through an uncached scan oracle (root-find
  // probes rarely repeat a price, so caching would only churn the LRU).
  NetworkParams uncapped = params;
  uncapped.edge_success = 1.0;
  SolveContext uncached = context;
  uncached.cache = nullptr;
  const auto demand_oracle = homogeneous_oracle(uncapped, budget, n,
                                                EdgeMode::kConnected, uncached,
                                                true);
  const auto edge_demand = [&](const Prices& prices) {
    return demand_oracle->solve(prices).totals.edge;
  };

  // Sell-out price: demand is decreasing in P_e; find the crossing with
  // E_max (exists whenever capacity is scarce near the CSP price).
  const auto sellout_price = [&](double price_cloud) {
    const double lo = std::max(box.edge.lo, price_cloud * (1.0 + 1e-6));
    const auto excess = [&](double pe) {
      return edge_demand({pe, price_cloud}) - params.edge_capacity;
    };
    if (excess(lo) <= 0.0) return lo;  // capacity slack even at the floor
    num::RootOptions root;
    root.tolerance = 1e-9;
    return num::decreasing_root_unbounded(excess, lo, lo + 1.0, root);
  };

  // CSP profit under the sell-out constraint.
  const auto scan_oracle = homogeneous_oracle(
      params, budget, n, EdgeMode::kStandalone, context, true);
  num::Maximize1DOptions scan;
  scan.grid_points = options.grid_points;
  scan.tolerance = 1e-7;
  const auto csp_profit = [&](double price_cloud) {
    count_leader_eval();
    const Prices prices{sellout_price(price_cloud), price_cloud};
    const EquilibriumProfile eq = scan_oracle->solve(prices);
    return (price_cloud - params.cost_cloud) * eq.totals.cloud;
  };
  // Each point runs a sell-out root-find plus a GNEP solve; independent
  // across the scan, so fan out like the sequential composite above.
  const auto best_cloud = num::maximize_scan_parallel(
      csp_profit, box.cloud.lo, box.cloud.hi, scan, context.threads);

  Prices prices;
  prices.cloud = best_cloud.argmax;
  prices.edge = sellout_price(prices.cloud);
  const auto full = homogeneous_oracle(params, budget, n,
                                       EdgeMode::kStandalone, context, false);
  auto result = finish_leader_stage(params, *full, prices);
  result.method = SpSolveMethod::kSequential;
  result.converged = true;
  result.rounds = 1;
  if (result.followers.totals.edge < params.edge_capacity * (1.0 - 0.05)) {
    throw support::ConvergenceError(
        "solve_leader_stage_sellout: capacity is not scarce at the "
        "computed prices; the sell-out equilibrium of Problem 2c does not "
        "apply");
  }
  return result;
}

LeaderStageResult solve_leader_stage(const NetworkParams& params,
                                     const std::vector<double>& budgets,
                                     EdgeMode mode,
                                     const SpSolveOptions& options) {
  params.validate();
  HECMINE_REQUIRE(!budgets.empty(), "SP solve: no miners");
  const bool homogeneous =
      !options.force_profile_oracle && budgets.size() >= 2 &&
      budgets.front() > 0.0 &&
      std::all_of(budgets.begin(), budgets.end(),
                  [&](double b) { return b == budgets.front(); });
  if (homogeneous) {
    // Symmetric fast path: identical budgets make the follower stage an
    // n-fold copy of one miner, so the O(n) symmetric oracle applies.
    return solve_leader_stage_homogeneous(params, budgets.front(),
                                          static_cast<int>(budgets.size()),
                                          mode, options);
  }
  const SolveContext& context = options.context;
  count_leader_solve(context);
  const StageTelemetryScope telemetry_scope(context);
  const support::SolveTrace::Scope stage(trace_of(context),
                                         "leader_stage.profile");
  const PriceBox box = price_box(params, options);
  const auto oracle = profile_oracle(params, budgets, mode, context);
  // Same cycle fallback as the homogeneous path (Theorem 4's sequential
  // construction), so auto-dispatch never changes the equilibrium concept.
  return best_response_or_sequential(
      params, *oracle, *oracle, box, options, context, [&] {
        const support::SolveTrace::Scope phase(trace_of(context),
                                               "sequential");
        return sequential_with_oracle(params, *oracle, box, options, context);
      });
}

}  // namespace hecmine::core
