#include "core/share_root.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

#include "support/error.hpp"
#include "support/prof.hpp"
#include "support/telemetry.hpp"

namespace hecmine::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr int kMaxNewtonSteps = 100;
constexpr int kMaxBracketSteps = 200;
/// The surcharge root stops once usage sits this close below E_max.
constexpr double kCapTolerance = 1e-13;
/// Request of a lone contestant: with no opponents the supremum is not
/// attained, and best-response dynamics settle on best_response_kernel's
/// epsilon probe, so the lone miner keeps that request.
constexpr double kLoneProbe = 1e-6;

/// Per-point constants of the share responses at aggregates (E, S).
struct SharePoint {
  double E = 0.0;
  double S = 0.0;
  double share = 0.0;  ///< A / S
  double edge = 0.0;   ///< H / E (0 when H = 0)
  double alpha = 0.0;  ///< A / S^2, curvature of the share term
  double eta = 0.0;    ///< H / E^2, curvature of the edge term (0 when H = 0)
};

SharePoint make_point(const KernelEnv& env, double E, double S) {
  SharePoint p;
  p.E = E;
  p.S = S;
  p.share = env.share_coeff / S;
  p.alpha = p.share / S;
  if (env.edge_coeff > 0.0) {
    p.edge = env.edge_coeff / E;
    p.eta = p.edge / E;
  }
  return p;
}

/// One class's share response (e, s = e + c) at a point, with its partial
/// derivatives in (E, S).
struct ShareResponse {
  double e = 0.0;
  double s = 0.0;
  double de_dE = 0.0;
  double de_dS = 0.0;
  double ds_dE = 0.0;
  double ds_dS = 0.0;
};

/// The share response: the one KKT candidate (interior, c = 0 face, e = 0
/// face, origin; each with a slack or binding budget) whose signs hold.
/// Rounding can leave no candidate exactly consistent at a face kink; the
/// least-violating one is taken then, clamped onto the feasible set.
ShareResponse share_response(const KernelEnv& env, const SharePoint& p,
                             double budget) {
  ShareResponse best;
  if (!(budget > 0.0)) return best;
  const double pe = env.price_edge;
  const double pc = env.price_cloud;
  const double mu = env.surcharge;
  const double gap = pe - pc;
  double best_violation = kInf;
  const auto consider = [&](const ShareResponse& r, double violation) {
    if (violation < best_violation) {
      best_violation = violation;
      best = r;
    }
    return violation <= 0.0;
  };

  // Interior: s = S - t P_c S^2/A, e = E - (t gap + mu) E^2/H.
  if (p.eta > 0.0) {
    const double cs = pc / p.alpha;  // P_c S^2 / A
    const double ce = 1.0 / p.eta;   // E^2 / H
    ShareResponse r;
    r.s = p.S - cs;
    r.e = p.E - (gap + mu) * ce;
    r.ds_dS = 1.0 - 2.0 * cs / p.S;
    r.de_dE = 1.0 - 2.0 * (gap + mu) * ce / p.E;
    const double spend = pc * r.s + gap * r.e;
    if (spend > budget) {
      // The spend falls by `slope` per unit of t - 1.
      const double slope = pc * cs + gap * gap * ce;
      const double excess = (spend - budget) / slope;  // t - 1
      const double dt_dS =
          (pc * r.ds_dS - excess * 2.0 * pc * cs / p.S) / slope;
      const double dt_dE =
          (gap * r.de_dE - excess * 2.0 * gap * gap * ce / p.E) / slope;
      r.s -= excess * cs;
      r.e -= excess * gap * ce;
      r.ds_dS -= 2.0 * excess * cs / p.S + cs * dt_dS;
      r.ds_dE = -cs * dt_dE;
      r.de_dE -= 2.0 * excess * gap * ce / p.E + gap * ce * dt_dE;
      r.de_dS = -gap * ce * dt_dS;
    }
    if (consider(r, std::max(-r.e, r.e - r.s))) return r;
  }

  // Edge only (c = 0): e = s = (A/S + H/E - t P_e - mu) / (A/S^2 + H/E^2).
  {
    const double curvature = p.alpha + p.eta;
    ShareResponse r;
    double x = (p.share + p.edge - pe - mu) / curvature;
    double t = 1.0;
    if (pe * x > budget) {
      x = budget / pe;
      t = (p.share + p.edge - mu - curvature * x) / pe;
    } else {
      r.de_dS = (2.0 * x / p.S - 1.0) * p.alpha / curvature;
      if (p.eta > 0.0) r.de_dE = (2.0 * x / p.E - 1.0) * p.eta / curvature;
      r.ds_dS = r.de_dS;
      r.ds_dE = r.de_dE;
    }
    r.e = r.s = x;
    // Cloud stays unattractive: dU/dc = A/S - (A/S^2) x - t P_c <= 0.
    if (consider(r, std::max(-x, p.share - p.alpha * x - t * pc))) return r;
  }

  // Cloud only (e = 0): c = s = S - t P_c S^2/A.
  {
    ShareResponse r;
    double y = (p.share - pc) / p.alpha;
    double t = 1.0;
    if (pc * y > budget) {
      y = budget / pc;
      t = (p.share - p.alpha * y) / pc;
    } else {
      r.ds_dS = 1.0 - 2.0 * pc / (p.alpha * p.S);
    }
    r.s = y;
    // Edge stays unattractive: dU/de = A/S - (A/S^2) y + H/E - t P_e - mu.
    if (consider(r, std::max(-y, p.share - p.alpha * y + p.edge - t * pe - mu)))
      return r;
  }

  // Origin: no unit of either kind pays at these aggregates.
  if (consider(ShareResponse{},
               std::max(p.share - pc, p.share + p.edge - pe - mu)))
    return ShareResponse{};
  best.e = std::max(best.e, 0.0);
  best.s = std::max(best.s, best.e);
  return best;
}

/// The budget classes of one solve.
struct Pool {
  std::span<const double> budgets;
  std::span<const double> weights;  ///< empty: one miner per budget

  [[nodiscard]] std::size_t size() const noexcept { return budgets.size(); }
  [[nodiscard]] double weight(std::size_t k) const noexcept {
    return weights.empty() ? 1.0 : weights[k];
  }
};

/// Weighted share sums and their Jacobian at one point.
struct ShareSums {
  double e = 0.0;    ///< sum_k w_k e_k
  double s = 0.0;    ///< sum_k w_k s_k
  double e_E = 0.0;  ///< d(sum e)/dE
  double e_S = 0.0;  ///< d(sum e)/dS
  double s_E = 0.0;  ///< d(sum s)/dE
  double s_S = 0.0;  ///< d(sum s)/dS
};

/// Relative residual of the two share equations.
double share_residual(const ShareSums& sums, double E, double S) {
  const double edge_scale = E > 0.0 ? E : S;
  return std::max(std::abs(sums.e - E) / edge_scale,
                  std::abs(sums.s - S) / S);
}

/// Shrinks [lo, hi] around a sign change of f, f(lo) > 0 >= f(hi), by
/// the Illinois variant of regula falsi (bisection when the secant point
/// leaves the bracket). Unlike num::brent_root it keeps hi on the
/// f <= 0 side, so a capacity root never overshoots the cap. Stops at
/// rounding-level width or once f(hi) lands in [-f_tol, 0]; `on_step`,
/// when set, sees the bracket after every probe.
void shrink_bracket(const std::function<double(double)>& f, double& lo,
                    double f_lo, double& hi, double f_hi, double f_tol,
                    const std::function<void(double, double)>* on_step) {
  int moved = 0;  // +1: lo moved last, -1: hi moved last
  for (int step = 0; step < kMaxBracketSteps; ++step) {
    if (hi - lo <= 4.0 * kEps * hi) return;
    double x = lo + (hi - lo) * (f_lo / (f_lo - f_hi));
    if (!(x > lo && x < hi)) x = 0.5 * (lo + hi);
    const double fx = f(x);
    if (fx > 0.0) {
      lo = x;
      f_lo = fx;
      if (moved == 1) f_hi *= 0.5;
      moved = 1;
    } else {
      hi = x;
      f_hi = fx;
      if (moved == -1) f_lo *= 0.5;
      moved = -1;
    }
    if (on_step != nullptr) (*on_step)(lo, hi);
    if (fx <= 0.0 && fx >= -f_tol) return;
  }
}

/// One root solve at a fixed surcharge: the share sums, the work ledger
/// and the iteration probe.
class ShareRoot {
 public:
  ShareRoot(const KernelEnv& env, const Pool& pool, const char* label,
            double tolerance)
      : env_(env),
        pool_(pool),
        label_(label),
        tolerance_(tolerance),
        work_(support::prof::current_block()) {
    telemetry_ = support::current_telemetry();
    if (telemetry_ != nullptr && !telemetry_->probe.armed())
      telemetry_ = nullptr;
    if (telemetry_ != nullptr) solve_id_ = telemetry_->probe.next_solve_id();
  }

  /// Root from (E, S); returns the root and its residual in (E, S, r).
  void solve(double& E, double& S, double& r) {
    if (newton(E, S, r) || r <= tolerance_) return;
    bracket(E, S, r);
  }

  [[nodiscard]] int iterations() const noexcept { return iterations_; }

 private:
  ShareSums sums(double E, double S);
  bool newton(double& E, double& S, double& r);
  void bracket(double& E, double& S, double& r);
  void record(double residual, double E, double S);

  const KernelEnv& env_;
  const Pool& pool_;
  const char* label_;
  double tolerance_;
  support::prof::ThreadWorkBlock* work_;
  support::Telemetry* telemetry_ = nullptr;
  std::uint64_t solve_id_ = 0;
  int iterations_ = 0;
};

/// Share sums at (E, S): one root iteration of the work ledger.
ShareSums ShareRoot::sums(double E, double S) {
  ++iterations_;
  if (work_ != nullptr) {
    work_->add(support::prof::WorkField::kSweeps, 1);
    work_->add(support::prof::WorkField::kConvergenceChecks, 1);
  }
  const SharePoint p = make_point(env_, E, S);
  ShareSums out;
  for (std::size_t k = 0; k < pool_.size(); ++k) {
    const ShareResponse r = share_response(env_, p, pool_.budgets[k]);
    const double w = pool_.weight(k);
    out.e += w * r.e;
    out.s += w * r.s;
    out.e_E += w * r.de_dE;
    out.e_S += w * r.de_dS;
    out.s_E += w * r.ds_dE;
    out.s_S += w * r.ds_dS;
  }
  return out;
}

/// 2-D Newton on (sum e - E, sum s - S), run until a step stops cutting
/// the residual (at rounding level once it converged). True only for an
/// exact root.
bool ShareRoot::newton(double& E, double& S, double& r) {
  ShareSums at;
  r = kInf;
  double next_E = E;
  double next_S = S;
  for (int step = 0;; ++step) {
    const ShareSums trial = sums(next_E, next_S);
    const double next_r = share_residual(trial, next_E, next_S);
    if (!(next_r < r)) return false;
    E = next_E;
    S = next_S;
    at = trial;
    r = next_r;
    record(r, E, S);
    if (r == 0.0) return true;
    if (step == kMaxNewtonSteps) return false;
    const double g_e = at.e - E;
    const double g_s = at.s - S;
    const double j_ee = at.e_E - 1.0;
    const double j_ss = at.s_S - 1.0;
    const double det = j_ee * j_ss - at.e_S * at.s_E;
    next_E = E + (at.e_S * g_s - j_ss * g_e) / det;
    next_S = S + (at.s_E * g_e - j_ee * g_s) / det;
    if (!std::isfinite(next_E) || !std::isfinite(next_S)) return false;
    // Keep the aggregates in the domain: S > 0, and E > 0 whenever the
    // edge bonus is live (E = 0 is an answer only without it).
    if (!(next_S > 0.0)) next_S = 0.5 * S;
    if (!(next_E > 0.0)) next_E = env_.edge_coeff > 0.0 ? 0.5 * E : 0.0;
  }
}

/// Nested bracketed solve: outer on S over sum s(E*(S), S) / S - 1, inner
/// on E over sum e(E, S) / E - 1. Both ratios start above 0 at small
/// aggregates (every budgeted class takes the whole contest there, and
/// W > 1) and end below 0 past what the budgets can buy.
void ShareRoot::bracket(double& E, double& S, double& r) {
  double afford_edge = 0.0;
  double afford_total = 0.0;
  const double cheaper = std::min(env_.price_edge, env_.price_cloud);
  for (std::size_t k = 0; k < pool_.size(); ++k) {
    afford_edge += pool_.weight(k) * pool_.budgets[k] / env_.price_edge;
    afford_total += pool_.weight(k) * pool_.budgets[k] / cheaper;
  }
  // Brackets [lo, 2 afford] of a ratio, shrinking lo until f(lo) > 0.
  const auto root_of = [](const std::function<double(double)>& f,
                          double afford,
                          const std::function<void(double, double)>* on_step) {
    double lo = 1e-3 * afford;
    double hi = 2.0 * afford;
    double f_lo = f(lo);
    for (int shrink = 0; shrink < 40 && !(f_lo > 0.0); ++shrink)
      f_lo = f(lo *= 1e-3);
    shrink_bracket(f, lo, f_lo, hi, f(hi), 0.0, on_step);
    return hi;
  };
  double s_total = 0.0;
  const std::function<double(double)> edge_ratio = [&](double e_total) {
    return sums(e_total, s_total).e / e_total - 1.0;
  };
  const auto edge_root = [&] {
    return env_.edge_coeff > 0.0 ? root_of(edge_ratio, afford_edge, nullptr)
                                 : sums(0.0, s_total).e;
  };
  double edge_at = 0.0;
  const std::function<double(double)> total_ratio = [&](double total) {
    s_total = total;
    edge_at = edge_root();
    return sums(edge_at, total).s / total - 1.0;
  };
  // Bracket records carry the relative width of the S bracket.
  const std::function<void(double, double)> on_step = [&](double a, double b) {
    record((b - a) / b, edge_at, b);
  };
  S = s_total = root_of(total_ratio, afford_total, &on_step);
  E = edge_root();
  r = share_residual(sums(E, S), E, S);
}

void ShareRoot::record(double residual, double E, double S) {
  if (telemetry_ == nullptr) return;
  support::IterationProbe::Record record;
  record.solver = label_;
  record.solve = solve_id_;
  record.iteration = iterations_;
  record.residual = residual;
  record.tolerance = tolerance_;
  record.price_edge = env_.price_edge;
  record.price_cloud = env_.price_cloud;
  record.total_edge = E;
  record.total_cloud = S - E;
  record.step = env_.surcharge;
  record.cap_active = env_.surcharge > 0.0;
  telemetry_->probe.record(record);
}

/// Weight of the budgeted classes: below 2 miners there is no contest.
double contest_weight(const Pool& pool) {
  double weight = 0.0;
  for (std::size_t k = 0; k < pool.size(); ++k)
    if (pool.budgets[k] > 0.0) weight += pool.weight(k);
  return weight;
}

/// Closed-form root when no budget binds: every miner interior
/// (Theorem 3's totals), else every miner on the edge-only face.
void budget_free_start(const KernelEnv& env, double weight, double& E,
                       double& S) {
  const double A = env.share_coeff;
  const double H = env.edge_coeff;
  const double scale = (weight - 1.0) / weight;
  const double gap = env.effective_edge_price - env.price_cloud;
  S = A * scale / env.price_cloud;
  if (gap > 0.0) {
    E = H > 0.0 ? H * scale / gap : 0.0;
    if (E <= S) return;
  }
  E = S = (A + H) * scale / env.effective_edge_price;
}

/// Requests and totals at a solved root.
void fill_requests(const KernelEnv& env, const Pool& pool, double E, double S,
                   ShareRootResult& out) {
  const SharePoint p = make_point(env, E, S);
  out.requests.resize(pool.size());
  out.totals = {};
  for (std::size_t k = 0; k < pool.size(); ++k) {
    const ShareResponse r = share_response(env, p, pool.budgets[k]);
    out.requests[k] = {r.e, std::max(r.s - r.e, 0.0)};
    out.totals.edge += pool.weight(k) * out.requests[k].edge;
    out.totals.cloud += pool.weight(k) * out.requests[k].cloud;
  }
}

/// Equilibrium at env's surcharge.
ShareRootResult root_at(const KernelEnv& env, const Pool& pool,
                        double weight, double tolerance, const char* label) {
  ShareRootResult out;
  double E = 0.0;
  double S = 0.0;
  budget_free_start(env, weight, E, S);
  ShareRoot root(env, pool, label, tolerance);
  root.solve(E, S, out.residual);
  out.iterations = root.iterations();
  out.converged = out.residual <= tolerance;
  fill_requests(env, pool, E, S, out);
  return out;
}

/// The contest with at most one budgeted miner.
ShareRootResult lone_contest(const KernelEnv& env, const Pool& pool) {
  ShareRootResult out;
  out.requests.resize(pool.size());
  for (std::size_t k = 0; k < pool.size(); ++k) {
    if (!(pool.budgets[k] > 0.0)) continue;
    out.requests[k] = {
        std::min(kLoneProbe, 0.5 * pool.budgets[k] / env.price_edge), 0.0};
    out.totals.edge += pool.weight(k) * out.requests[k].edge;
  }
  out.converged = true;
  out.iterations = 1;
  return out;
}

}  // namespace

ShareRootResult solve_share_root(const KernelEnv& env,
                                 std::span<const double> budgets,
                                 std::span<const double> weights, double cap,
                                 double tolerance,
                                 const ShareRootLabels& labels) {
  HECMINE_REQUIRE(!budgets.empty(), "solve_share_root: no miners");
  HECMINE_REQUIRE(weights.empty() || weights.size() == budgets.size(),
                  "solve_share_root: one weight per budget");
  HECMINE_REQUIRE(env.surcharge == 0.0,
                  "solve_share_root: the surcharge is the solver's own");
  HECMINE_REQUIRE(cap > 0.0, "solve_share_root: capacity must be positive");
  const Pool pool{budgets, weights};
  const double weight = contest_weight(pool);
  const bool standalone = cap < kInf;
  if (!standalone) {
    if (weight <= 1.0) return lone_contest(env, pool);
    return root_at(env, pool, weight, tolerance, labels.root);
  }

  support::Telemetry* sink = support::current_telemetry();
  const support::SolveTrace::Scope span(
      sink != nullptr ? &sink->trace : nullptr, "gnep.bisection");
  support::Telemetry* telemetry =
      sink != nullptr && sink->probe.armed() ? sink : nullptr;
  const std::uint64_t bisection_id =
      telemetry != nullptr ? telemetry->probe.next_solve_id() : 0;
  int probes = 0;
  int iterations = 0;
  bool converged = true;
  // One probe of the usage E(mu): a full root at surcharge mu.
  const auto probe = [&](double mu) {
    ++probes;
    if (auto* work = support::prof::current_block(); work != nullptr)
      work->add(support::prof::WorkField::kBisectionIters, 1);
    const KernelEnv penalized = with_surcharge(env, mu);
    ShareRootResult at = weight <= 1.0
                             ? lone_contest(penalized, pool)
                             : root_at(penalized, pool, weight, tolerance,
                                       labels.root);
    at.surcharge = mu;
    iterations += at.iterations;
    converged = converged && at.converged;
    if (telemetry != nullptr) {
      support::IterationProbe::Record record;
      record.solver = labels.bisection;
      record.solve = bisection_id;
      record.iteration = probes;
      record.residual = std::max(0.0, at.totals.edge - cap);
      record.tolerance = kCapTolerance * cap;
      record.price_edge = env.price_edge;
      record.price_cloud = env.price_cloud;
      record.total_edge = at.totals.edge;
      record.total_cloud = at.totals.cloud;
      record.step = mu;
      record.cap_active = at.totals.edge >= cap * (1.0 - kCapTolerance);
      telemetry->probe.record(record);
    }
    return at;
  };
  const auto finish = [&](ShareRootResult out) {
    out.iterations = iterations;
    out.converged = converged;
    if (sink != nullptr) {
      sink->metrics.counter("gnep.solves").add();
      if (!out.converged) sink->metrics.counter("gnep.nonconverged").add();
      sink->metrics
          .histogram("gnep.inner_solves",
                     support::geometric_edges(1.0, 2.0, 12))
          .observe(static_cast<double>(probes));
    }
    return out;
  };

  ShareRootResult free = probe(0.0);
  if (free.totals.edge <= cap || weight <= 1.0) {
    free.cap_active = free.totals.edge >= cap * (1.0 - kCapTolerance);
    return finish(std::move(free));
  }

  // The cap binds. Bracket mu* from the budget-free multiplier (exact when
  // no budget binds), then root E(mu) = E_max from below.
  const double A = env.share_coeff;
  const double H = env.edge_coeff;
  const double scale = (weight - 1.0) / weight;
  double guess = H * scale / cap - (env.price_edge - env.price_cloud);
  if (cap > A * scale / env.price_cloud)  // edge-only at the cap
    guess = (A + H) * scale / cap - env.price_edge;
  double lo = 0.0;
  double f_lo = free.totals.edge - cap;
  double hi = guess > 0.0 ? guess : 0.25 * env.price_edge;
  ShareRootResult at_hi = probe(hi);
  for (int expansion = 0; at_hi.totals.edge > cap; ++expansion) {
    HECMINE_REQUIRE(expansion < 80,
                    "solve_share_root: usage does not fall with the "
                    "surcharge");
    lo = hi;
    f_lo = at_hi.totals.edge - cap;
    hi *= 2.0;
    at_hi = probe(hi);
  }
  double f_hi = at_hi.totals.edge - cap;
  const std::function<double(double)> usage_excess = [&](double mu) {
    ShareRootResult at = probe(mu);
    const double excess = at.totals.edge - cap;
    if (excess <= 0.0) at_hi = std::move(at);
    return excess;
  };
  if (f_hi < -kCapTolerance * cap)
    shrink_bracket(usage_excess, lo, f_lo, hi, f_hi, kCapTolerance * cap,
                   nullptr);
  at_hi.cap_active = true;
  converged =
      converged && cap - at_hi.totals.edge <= tolerance * (1.0 + cap);
  return finish(std::move(at_hi));
}

}  // namespace hecmine::core
