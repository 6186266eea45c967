// Share-function root of the full-profile follower stage.
//
// The follower stage is a fully aggregative Tullock contest: miner i sees
// its opponents only through the totals E = sum_j e_j and
// S = sum_j (e_j + c_j) (paper Eq. 14). Fix (E, S) and each miner's KKT
// system becomes linear in its own request (the share function of Cornes
// & Hartley, "Fully aggregative games", 2012). With A = R(1 - beta),
// H = R beta h and t = 1 + lambda_i:
//
//   interior   s_i = S - t P_c S^2 / A,  e_i = E - (t (P_e - P_c) + mu) E^2 / H
//   c_i = 0    e_i = s_i = (A/S + H/E - t P_e - mu) / (A/S^2 + H/E^2)
//   e_i = 0    c_i = s_i = S - t P_c S^2 / A
//   origin     e_i = c_i = 0
//
// The spend is affine in t on every face, so a binding budget gives t in
// closed form, and exactly one candidate satisfies the KKT signs. The
// equilibrium is the root of the two share equations
//
//   sum_k w_k e_k(E, S) = E,   sum_k w_k s_k(E, S) = S,
//
// solved by 2-D Newton from the closed form that ignores budgets. Where a
// Newton step does not cut the residual, a nested bracketed solve (outer
// on S, inner on E) takes over. Weights are 1 per miner for the dense
// oracles and the class count for ClassAggregateOracle.
//
// Standalone mode (Theorem 5) prices the capacity with one shared
// surcharge mu: when the unconstrained usage exceeds E_max, a bracketed
// root on the monotone usage E(mu) lands on E(mu) = E_max from below,
// with the 2-D root inside every probe.
//
// The solve uses only + - * / and sqrt: no transcendental functions, no
// static tables, no per-iteration allocation.
#pragma once

#include <span>
#include <vector>

#include "core/kernels.hpp"
#include "core/types.hpp"

namespace hecmine::core {

/// Iteration-probe labels of one follower solve: `root` tags one record
/// per root iteration, `bisection` one record per surcharge probe of the
/// standalone search.
struct ShareRootLabels {
  const char* root = "";
  const char* bisection = "";
};

/// A solved follower stage, one request per budget class.
struct ShareRootResult {
  std::vector<MinerRequest> requests;  ///< per class
  Totals totals;            ///< sum_k w_k request_k, accumulated in class order
  double surcharge = 0.0;   ///< shared edge multiplier mu (0 if slack)
  bool cap_active = false;  ///< the capacity binds (standalone only)
  bool converged = false;
  int iterations = 0;       ///< root iterations, summed over surcharge probes
  double residual = 0.0;    ///< relative share residual of the last root
};

/// Follower equilibrium at env's prices: budgets[k] held by weights[k]
/// miners each (empty weights: one miner per budget). `cap` is the shared
/// edge capacity E_max; pass +infinity for connected mode. The surcharge of
/// `env` must be 0. The solve counts as converged when the final relative
/// share residual is at most `tolerance` (and, with a binding cap, usage
/// sits within tolerance * (1 + E_max) below E_max).
///
/// Work ledger: one sweep and one convergence check per root iteration,
/// one bisection iteration per surcharge probe (standalone only).
[[nodiscard]] ShareRootResult solve_share_root(const KernelEnv& env,
                                               std::span<const double> budgets,
                                               std::span<const double> weights,
                                               double cap, double tolerance,
                                               const ShareRootLabels& labels);

}  // namespace hecmine::core
