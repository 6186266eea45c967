// The service-provider (leader) subgame and the full Stackelberg game
// (paper Problems 2/2a/2b/2c, Algorithms 1 and 2, Theorem 4).
//
// Each SP picks its unit price anticipating the follower-stage equilibrium;
// the follower stage is a FollowerOracle (core/oracle.hpp) embedded in the
// leader payoff, and the leader iteration is asynchronous best-response
// over prices (Algorithm 1; with the standalone oracle this is exactly
// Algorithm 2's price bargaining). A sequential variant reproduces the
// structure of Theorem 4: the CSP's reaction curve P_c*(P_e) is computed
// first and the ESP maximizes over it.
//
// Every entry point that runs the price best response takes Theorem 4's
// sequential construction whenever that iteration does not converge. It
// stops at its first exact cycle: every leader payoff here is a pure
// function of the prices (the follower oracles are deterministic, and the
// follower cache solves at snapped prices), so a price vector that bitwise
// repeats an earlier round's repeats forever. The fallback then starts
// after a handful of rounds instead of max_rounds;
// LeaderStageResult::cycle_period and the sp.best_response_cycles counter
// report the cycle.
//
// On the full-profile path the Theorem 4 fallback scans V_e over a P_e
// grid of max(4 grid_points, 160) points and refines its 3 best cells.
// Each grid point's CSP reaction is a P_c grid plus ONE golden-section
// refine of the best cell, and the scan records that cell; a composite
// probe inside an outer refine then skips the P_c grid and runs one
// golden-section refine over the cells its neighbouring grid points
// found. The homogeneous path keeps its own reaction solver
// (csp_reaction_homogeneous).
//
// All entry points return one unified LeaderStageResult.
#pragma once

#include <vector>

#include "core/equilibrium.hpp"
#include "core/oracle.hpp"
#include "core/params.hpp"
#include "core/solve_context.hpp"
#include "core/types.hpp"

namespace hecmine::core {

/// SP profits V_e = (P_e - C_e) E and V_c = (P_c - C_c) C (Eq. 2).
struct SpProfits {
  double edge = 0.0;
  double cloud = 0.0;
};

[[nodiscard]] SpProfits sp_profits(const NetworkParams& params,
                                   const Prices& prices, const Totals& totals);

/// Options for the leader-stage solvers.
struct SpSolveOptions {
  double price_margin = 1e-4;  ///< price lower bounds: cost * (1 + margin)
  double price_ceiling = 0.0;  ///< upper bound; 0 = cost + reward (heuristic)
  int grid_points = 40;        ///< 1-D scan resolution per price update
  double tolerance = 1e-5;     ///< max price change per round at convergence
  int max_rounds = 60;
  /// Shared solver resources: thread fan-out, follower cache, RNG root and
  /// the embedded miner-solve tolerances, owned once (core/solve_context.hpp).
  SolveContext context;
  /// Test hook: force the full-profile oracle even when every budget is
  /// equal (solve_leader_stage normally auto-dispatches the symmetric fast
  /// path; parity tests pin both paths against each other).
  bool force_profile_oracle = false;
};

/// How the leader-stage solution was obtained.
enum class SpSolveMethod {
  kBestResponse,  ///< asynchronous best response converged (Algorithm 1/2)
  kSequential,    ///< Theorem 4's leader-anticipates-reaction construction
};

/// Unified leader-stage result: prices, profits, the follower equilibrium
/// as an EquilibriumProfile (symmetric or full-profile shape, depending on
/// which oracle the solve dispatched to), and solve metadata.
struct LeaderStageResult {
  Prices prices;                ///< leader prices (P_e*, P_c*)
  SpProfits profits;            ///< V_e*, V_c*
  EquilibriumProfile followers; ///< follower equilibrium at those prices
  SpSolveMethod method = SpSolveMethod::kBestResponse;
  bool converged = false;
  /// Best-response rounds actually run, plus 1 when the sequential
  /// construction produced the answer.
  int rounds = 0;
  /// Period of the exact price cycle the best response stopped at (0 = it
  /// converged or ran out of rounds without one); see
  /// game::StackelbergResult::cycle_period.
  int cycle_period = 0;
};

/// Leader-stage solve with n identical miners of budget B. Runs Algorithm 1
/// (connected) / Algorithm 2 (standalone) asynchronous price best response
/// first; when that does not converge — the simultaneous-move leader game
/// can lack a pure NE exactly as Theorem 4 anticipates — it falls back to
/// the sequential construction of solve_leader_stage_sequential and
/// reports method = kSequential, starting as soon as the price iterate
/// repeats exactly (see the header comment). The follower stage is the symmetric fast-path
/// oracle, making price sweeps cheap.
[[nodiscard]] LeaderStageResult solve_leader_stage_homogeneous(
    const NetworkParams& params, double budget, int n, EdgeMode mode,
    const SpSolveOptions& options = {});

/// Theorem 4 structure: the CSP's best response P_c*(P_e) for fixed P_e.
[[nodiscard]] double csp_reaction_homogeneous(const NetworkParams& params,
                                              double budget, int n,
                                              EdgeMode mode, double price_edge,
                                              const SpSolveOptions& options = {});

/// Sequential solve reproducing Theorem 4: substitute the CSP reaction
/// curve into V_e and maximize the one-dimensional composite over P_e.
[[nodiscard]] LeaderStageResult solve_leader_stage_sequential(
    const NetworkParams& params, double budget, int n, EdgeMode mode,
    const SpSolveOptions& options = {});

/// The paper's standalone SP equilibrium concept (Problem 2c): the leader
/// stage is solved *subject to the sell-out constraint E = E_max* — the ESP
/// prices exactly at the level where unconstrained edge demand meets its
/// capacity, and the CSP best-responds given that the ESP sells out
/// (Table II). Requires the capacity to be scarce (unconstrained demand
/// must exceed E_max somewhere above the CSP price); throws
/// ConvergenceError otherwise. Compare with solve_leader_stage_homogeneous,
/// which lets the CSP undercut the sell-out point — see EXPERIMENTS.md.
[[nodiscard]] LeaderStageResult solve_leader_stage_sellout(
    const NetworkParams& params, double budget, int n,
    const SpSolveOptions& options = {});

/// General leader-stage solve over arbitrary budgets. Auto-dispatches: when
/// every budget is equal (and n >= 2, and the force_profile_oracle hook is
/// off) this is solve_leader_stage_homogeneous on the symmetric fast path;
/// otherwise the follower stage is the full-profile NEP/GNEP oracle
/// (slower — intended for small n). Both paths share the Theorem 4
/// sequential fallback when the price best response cycles, so the
/// dispatch choice changes the cost of the solve, never its meaning.
[[nodiscard]] LeaderStageResult solve_leader_stage(
    const NetworkParams& params, const std::vector<double>& budgets,
    EdgeMode mode, const SpSolveOptions& options = {});

}  // namespace hecmine::core
