#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/aggregate_oracle.hpp"
#include "core/population.hpp"
#include "core/scenario.hpp"
#include "stats.hpp"
#include "support/rng.hpp"

namespace perfbench {

using hecmine::support::Rng;

namespace {

struct WorkloadInfo {
  Workload workload;
  const char* name;
  int threads;
  std::size_t cycle;
};

// price-symmetric alternates the two modes; price-profile walks n = 2..5;
// pool-scale and campaign-live walk 8 log-size bins. campaign-live's
// cycle holds 4 campaigns of each mode and 4 with churn, so a run of any
// number of cycles has the same mix.
constexpr WorkloadInfo kWorkloads[] = {
    {Workload::kPriceSymmetric, "price-symmetric", 1, 2},
    {Workload::kPriceProfile, "price-profile", 2, 4},
    {Workload::kPoolScale, "pool-scale", 1, 8},
    {Workload::kCampaignLive, "campaign-live", 1, 8},
};

const WorkloadInfo& info(Workload workload) {
  for (const WorkloadInfo& entry : kWorkloads)
    if (entry.workload == workload) return entry;
  throw std::logic_error("unknown workload");
}

const char* mode_name(core::EdgeMode mode) {
  return mode == core::EdgeMode::kConnected ? "connected" : "standalone";
}

core::EdgeMode parse_mode(const std::string& name) {
  if (name == "connected") return core::EdgeMode::kConnected;
  if (name == "standalone") return core::EdgeMode::kStandalone;
  throw std::runtime_error("catalogue: bad mode '" + name + "'");
}

/// Network parameters over the ranges every workload shares:
/// beta in [0.05, 0.4], h in [0.6, 1], E_max in [4, 30]; R and the unit
/// costs keep their defaults.
core::NetworkParams draw_params(Rng& rng) {
  core::NetworkParams params;
  params.fork_rate = rng.uniform(0.05, 0.4);
  params.edge_success = rng.uniform(0.6, 1.0);
  params.edge_capacity = rng.uniform(4.0, 30.0);
  return params;
}

/// Leader prices with P_e well above P_c: P_c in [0.5, 3], P_e in [6, 40].
/// The Stackelberg prices of the catalogue games sit near P_c = 2.2 and
/// P_e in [4, 10]. Closer to the P_c >= P_e corner the follower fixed
/// point can run to its 4000-sweep cap (README, finding F1), so the timed
/// workloads stay out of it and the traced pass probes it separately.
core::Prices interior_prices(Rng& rng) {
  core::Prices prices;
  prices.cloud = rng.uniform(0.5, 3.0);
  prices.edge = rng.uniform(6.0, 40.0);
  return prices;
}

/// `count` distinct budgets in [20, 500].
std::vector<double> distinct_budgets(Rng& rng, int count) {
  std::vector<double> budgets;
  while (static_cast<int>(budgets.size()) < count) {
    const double budget = rng.uniform(20.0, 500.0);
    if (std::find(budgets.begin(), budgets.end(), budget) == budgets.end())
      budgets.push_back(budget);
  }
  return budgets;
}

/// Position in [0, 1) of op `op` inside its stratum, for the stratified
/// draws of the pool-size workloads. Op `op` fills slot op % cycle; the
/// ops of a slot come in antithetic pairs (u, 1 - u) on consecutive
/// cycles, so every two cycles cover each bin evenly whatever the seed.
double stratum_position(std::uint64_t seed, std::uint64_t salt,
                        std::size_t op, std::size_t cycle) {
  const std::size_t round = op / cycle;
  Rng rng(mix_seed(mix_seed(seed, salt), op % cycle + cycle * (round / 2)));
  const double u = rng.uniform();
  return round % 2 == 0 ? u : 1.0 - u;
}

/// log10 of a pool size in bin `op % bins` of `bins` equal slices of
/// [lo, hi] (log10 units), at the op's stratified position.
double binned_exponent(std::uint64_t seed, std::size_t op, std::size_t bins,
                       double lo, double hi) {
  const double width = (hi - lo) / static_cast<double>(bins);
  return lo + width * (static_cast<double>(op % bins) +
                       stratum_position(seed, 1, op, bins));
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const WorkloadInfo& entry : kWorkloads)
    if (name == entry.name) return entry.workload;
  return std::nullopt;
}

const char* workload_name(Workload workload) { return info(workload).name; }
int workload_threads(Workload workload) { return info(workload).threads; }
std::size_t cycle_length(Workload workload) { return info(workload).cycle; }

// --- leader-stage games ----------------------------------------------------

std::vector<double> Game::miner_budgets() const {
  if (budgets.size() == 1 && miners > 1)
    return std::vector<double>(static_cast<std::size_t>(miners), budgets[0]);
  return budgets;
}

std::vector<Game> generate_catalogue(Workload workload, std::uint64_t seed) {
  std::vector<Game> games;
  if (workload == Workload::kPriceSymmetric) {
    // n in [2, 50], B in [20, 500]; connected and standalone alternate.
    for (int id = 0; id < 256; ++id) {
      Rng rng(mix_seed(seed, static_cast<std::uint64_t>(id)));
      Game game;
      game.id = id;
      game.mode = id % 2 == 0 ? core::EdgeMode::kConnected
                              : core::EdgeMode::kStandalone;
      game.params = draw_params(rng);
      game.miners = 2 + static_cast<int>(rng.uniform_index(49));
      game.budgets = {rng.uniform(20.0, 500.0)};
      games.push_back(std::move(game));
    }
  } else if (workload == Workload::kPriceProfile) {
    // n = 2..5 all-distinct budgets, connected mode (see README: the
    // standalone profile stage is too uneven to time steadily).
    for (int id = 0; id < 32; ++id) {
      Rng rng(mix_seed(seed, static_cast<std::uint64_t>(id)));
      Game game;
      game.id = id;
      game.mode = core::EdgeMode::kConnected;
      game.params = draw_params(rng);
      game.miners = 2 + id % 4;
      game.budgets = distinct_budgets(rng, game.miners);
      games.push_back(std::move(game));
    }
  } else {
    throw std::invalid_argument("generate_catalogue: not a leader workload");
  }
  return games;
}

void write_catalogue(const std::string& path, Workload workload,
                     const std::vector<Game>& games) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# hecmine perfbench reference catalogue: " << workload_name(workload)
      << "\n# id mode miners reward fork_rate edge_success edge_capacity"
         " cost_edge cost_cloud budgets(;) ref_value ref_price_edge"
         " ref_price_cloud\n";
  out.precision(17);
  for (const Game& game : games) {
    out << game.id << ' ' << mode_name(game.mode) << ' ' << game.miners << ' '
        << game.params.reward << ' ' << game.params.fork_rate << ' '
        << game.params.edge_success << ' ' << game.params.edge_capacity << ' '
        << game.params.cost_edge << ' ' << game.params.cost_cloud << ' ';
    for (std::size_t i = 0; i < game.budgets.size(); ++i)
      out << (i == 0 ? "" : ";") << game.budgets[i];
    out << ' ' << game.ref_value << ' ' << game.ref_prices.edge << ' '
        << game.ref_prices.cloud << '\n';
  }
  if (!out) throw std::runtime_error("failed writing " + path);
}

std::vector<Game> read_catalogue(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read catalogue " + path);
  std::vector<Game> games;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    Game game;
    std::string mode;
    std::string budgets;
    fields >> game.id >> mode >> game.miners >> game.params.reward >>
        game.params.fork_rate >> game.params.edge_success >>
        game.params.edge_capacity >> game.params.cost_edge >>
        game.params.cost_cloud >> budgets >> game.ref_value >>
        game.ref_prices.edge >> game.ref_prices.cloud;
    if (!fields) throw std::runtime_error("catalogue: malformed line: " + line);
    game.mode = parse_mode(mode);
    std::istringstream list(budgets);
    for (std::string item; std::getline(list, item, ';');)
      game.budgets.push_back(std::stod(item));
    if (game.budgets.empty() || game.miners < 2)
      throw std::runtime_error("catalogue: bad game " + std::to_string(game.id));
    game.params.validate();
    games.push_back(std::move(game));
  }
  if (games.empty()) throw std::runtime_error("catalogue: no games in " + path);
  return games;
}

std::size_t game_stratum(Workload workload, const Game& game) {
  if (workload == Workload::kPriceSymmetric)
    return game.mode == core::EdgeMode::kConnected ? 0 : 1;
  return static_cast<std::size_t>(game.miners - 2);
}

CatalogueSchedule::CatalogueSchedule(const std::vector<Game>& games,
                                     Workload workload, std::uint64_t seed)
    : strata_(cycle_length(workload)) {
  for (std::size_t i = 0; i < games.size(); ++i) {
    const std::size_t stratum = game_stratum(workload, games[i]);
    if (stratum >= strata_.size())
      throw std::runtime_error("catalogue game outside the workload's strata");
    strata_[stratum].push_back(i);
  }
  Rng rng(mix_seed(seed, 0xca7a));
  for (auto& stratum : strata_) {
    if (stratum.empty()) throw std::runtime_error("catalogue: empty stratum");
    std::shuffle(stratum.begin(), stratum.end(), rng.engine());
  }
}

std::size_t CatalogueSchedule::game_for(std::size_t op) const {
  const auto& stratum = strata_[op % strata_.size()];
  return stratum[(op / strata_.size()) % stratum.size()];
}

core::LeaderStageResult solve_game(Workload workload, const Game& game,
                                   int threads,
                                   core::FollowerEquilibriumCache* cache,
                                   hecmine::support::Telemetry* telemetry) {
  core::SpSolveOptions options;
  options.context.threads = threads;
  options.context.cache = cache;
  options.context.telemetry = telemetry;
  if (workload == Workload::kPriceSymmetric)
    return core::solve_leader_stage_homogeneous(
        game.params, game.budgets.at(0), game.miners, game.mode, options);
  return core::solve_leader_stage(game.params, game.budgets, game.mode,
                                  options);
}

core::AuditReport audit_game(const Game& game,
                             const core::LeaderStageResult& result) {
  core::Scenario scenario;
  scenario.params = game.params;
  scenario.mode = game.mode;
  scenario.budgets = game.miner_budgets();
  core::AuditOptions options;
  options.context.threads = 1;
  return core::audit_equilibrium(scenario, result.prices, result.followers,
                                 options);
}

Verdict check_leader(const Game& game, const core::LeaderStageResult& result,
                     double worst_violation) {
  if (!result.converged || !result.followers.converged)
    return {false, "leader stage or follower profile not converged"};
  if (!(worst_violation <= kAuditTolerance))
    return {false, "audit worst_violation " + std::to_string(worst_violation)};
  const double value = result.profits.edge + result.profits.cloud;
  if (!(std::abs(value - game.ref_value) <=
        kValueTolerance * std::abs(game.ref_value)))
    return {false, "V_e + V_c " + std::to_string(value) + " vs reference " +
                       std::to_string(game.ref_value)};
  return {};
}

// --- pool-scale ---------------------------------------------------------------

namespace {

PoolOp pool_op(Rng& rng, core::EdgeMode mode, int miners, int classes) {
  PoolOp op;
  op.mode = mode;
  op.params = draw_params(rng);
  op.classes = classes;
  const std::vector<double> keys = distinct_budgets(rng, classes);
  op.budgets.resize(static_cast<std::size_t>(miners));
  for (std::size_t i = 0; i < op.budgets.size(); ++i) {
    // The first K miners cover every class; the rest draw one at random.
    const std::size_t key = i < keys.size()
                                ? i
                                : rng.uniform_index(keys.size());
    op.budgets[i] = keys[key];
  }
  op.prices = interior_prices(rng);
  return op;
}

}  // namespace

PoolOp make_pool_op(std::uint64_t seed, std::size_t op) {
  constexpr std::size_t kBins = 8;
  Rng rng(mix_seed(seed, op));
  // N log-uniform in [10^3, 10^6], one bin per op of the cycle; K uniform
  // in [1, 64], stratified the same way. Connected mode only: standalone
  // pools whose capacity binds can overshoot E_max past the audit
  // tolerance (README, finding F4); the traced pass probes that case.
  const double exponent = binned_exponent(seed, op, kBins, 3.0, 6.0);
  const int miners = std::clamp(
      static_cast<int>(std::lround(std::pow(10.0, exponent))), 1000, 1000000);
  const int classes = std::min(
      64, 1 + static_cast<int>(64.0 * stratum_position(seed, 2, op, kBins)));
  return pool_op(rng, core::EdgeMode::kConnected, miners, classes);
}

PoolOp canonical_pool_op() {
  Rng rng(0x9001);
  return pool_op(rng, core::EdgeMode::kConnected, 1000000, 32);
}

PoolOp corner_probe_op(std::uint64_t seed) {
  Rng rng(mix_seed(seed, 0xc0ffee));
  const int classes = 1 + static_cast<int>(rng.uniform_index(64));
  PoolOp op = pool_op(rng, core::EdgeMode::kConnected, 1000, classes);
  op.prices.edge = rng.uniform(1.05, 12.0);
  op.prices.cloud = op.prices.edge * rng.uniform(1.0, 1.25);
  return op;
}

PoolOp capacity_probe_op() {
  // A standalone pool of 167 110 miners in 33 classes, cut to its first
  // 2 * 10^4 miners: E_max = 5.03, P_e = 7.45, P_c = 0.97. The capacity
  // binds and the solve overshoots it by ~7e-6. The stream and the two
  // discarded draws reproduce the pool where the overshoot was found.
  Rng rng(mix_seed(12, 317));
  (void)rng.uniform();
  (void)rng.uniform_index(64);
  PoolOp op = pool_op(rng, core::EdgeMode::kStandalone, 167110, 33);
  op.budgets.resize(20000);
  return op;
}

core::SolveContext pool_context() {
  core::SolveContext context;
  context.threads = 1;
  context.aggregate.dispatch_threshold = 2;
  return context;
}

core::AuditOptions pool_audit_options() {
  core::AuditOptions options;
  options.context = pool_context();
  options.max_audited_miners = kAuditedMiners;
  return options;
}

core::Scenario pool_scenario(const PoolOp& op) {
  core::Scenario scenario;
  scenario.params = op.params;
  scenario.mode = op.mode;
  scenario.budgets = op.budgets;
  return scenario;
}

PoolOutcome run_pool_op(const PoolOp& op) {
  const auto oracle =
      core::make_profile_oracle(op.params, op.budgets, op.mode, pool_context());
  PoolOutcome outcome;
  outcome.profile = oracle->solve(op.prices);
  outcome.audit = core::audit_equilibrium(pool_scenario(op), op.prices,
                                          outcome.profile, pool_audit_options());
  return outcome;
}

Verdict check_pool(const PoolOutcome& outcome) {
  if (!outcome.profile.converged) return {false, "follower solve not converged"};
  const double worst = core::worst_violation(outcome.audit);
  if (!(worst <= kAuditTolerance))
    return {false, "audit worst_violation " + std::to_string(worst)};
  return {};
}

// --- campaign-live ----------------------------------------------------------

namespace {

CampaignOp campaign_op(Rng& rng, core::EdgeMode mode, bool churn, int miners) {
  CampaignOp op;
  op.mode = mode;
  op.churn = churn;
  op.nominal_miners = miners;
  op.params = draw_params(rng);
  int pool = miners;
  if (churn) {
    // The campaign draws the active subset from the population support, so
    // the strategy pool covers its upper end (as hecmine_cli campaign pads).
    pool = std::max(pool, core::PopulationModel::around(0.8 * miners,
                                                        0.1 * miners)
                              .max_miners());
  }
  op.budgets.resize(static_cast<std::size_t>(pool));
  for (double& budget : op.budgets) budget = rng.uniform(20.0, 500.0);
  op.prices = interior_prices(rng);
  op.campaign_seed = rng.engine()();
  return op;
}

}  // namespace

CampaignOp make_campaign_op(std::uint64_t seed, std::size_t op) {
  constexpr std::size_t kBins = 8;
  Rng rng(mix_seed(seed, op));
  const std::size_t bin = op % kBins;
  const std::size_t round = op / kBins;
  // Modes alternate over the bins and churn over pairs of bins; both
  // patterns flip every cycle, so each bin meets every combination.
  const core::EdgeMode mode = (bin + round) % 2 == 0
                                  ? core::EdgeMode::kConnected
                                  : core::EdgeMode::kStandalone;
  const bool churn = (bin / 2 + round) % 2 == 1;
  // N log-uniform in [5, 500], one bin per op of the cycle.
  const double exponent = binned_exponent(seed, op, kBins, std::log10(5.0),
                                          std::log10(500.0));
  const int miners = std::clamp(
      static_cast<int>(std::lround(std::pow(10.0, exponent))), 5, 500);
  return campaign_op(rng, mode, churn, miners);
}

CampaignOp canonical_campaign_op() {
  Rng rng(0x9002);
  return campaign_op(rng, core::EdgeMode::kConnected, false, 20);
}

net::CampaignConfig campaign_config(const CampaignOp& op) {
  net::CampaignConfig config;
  config.params = op.params;
  config.policy.mode = op.mode;
  config.policy.success_prob = op.params.edge_success;
  config.policy.capacity = op.params.edge_capacity;
  config.prices = op.prices;
  if (op.churn)
    config.population = core::PopulationModel::around(
        0.8 * op.nominal_miners, 0.1 * op.nominal_miners);
  config.blocks = op.blocks;
  return config;
}

BlockLogCounts count_block_log(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read block log " + path);
  BlockLogCounts counts;
  static constexpr std::string_view kRecord = "{\"round\":";
  static constexpr std::string_view kWinner = "\"winner\":";
  std::string line;
  while (std::getline(in, line)) {
    counts.bytes += line.size() + 1;
    if (line.compare(0, kRecord.size(), kRecord) != 0) continue;
    ++counts.records;
    const std::size_t at = line.find(kWinner);
    if (at != std::string::npos && line[at + kWinner.size()] != '-')
      ++counts.winners;
  }
  return counts;
}

Verdict check_campaign(const CampaignOp& op,
                       const net::EquilibriumCampaignResult& run,
                       const BlockLogCounts& log) {
  if (!run.equilibrium.converged)
    return {false, "campaign equilibrium not converged"};
  const net::CampaignResult& result = run.result;
  std::size_t wins = 0;
  double income = 0.0;
  for (const auto& miner : result.miners) {
    wins += miner.wins;
    income += miner.income;
  }
  if (wins != result.blocks_mined)
    return {false, "wins " + std::to_string(wins) + " != blocks_mined " +
                       std::to_string(result.blocks_mined)};
  if (income != op.params.reward * static_cast<double>(result.blocks_mined))
    return {false, "income does not sum to R * blocks_mined"};
  if (log.records != op.blocks || log.winners != result.blocks_mined)
    return {false, "block log holds " + std::to_string(log.records) +
                       " records / " + std::to_string(log.winners) +
                       " winners for " + std::to_string(op.blocks) +
                       " rounds / " + std::to_string(result.blocks_mined) +
                       " blocks"};
  return {};
}

bool same_campaign(const net::CampaignResult& a, const net::CampaignResult& b) {
  if (a.blocks_mined != b.blocks_mined || a.transfers != b.transfers ||
      a.rejections != b.rejections || a.forks != b.forks ||
      a.retargets != b.retargets || a.final_unit_rate != b.final_unit_rate ||
      a.realized_hhi != b.realized_hhi ||
      a.block_intervals.count() != b.block_intervals.count() ||
      a.block_intervals.sum() != b.block_intervals.sum() ||
      a.miners.size() != b.miners.size())
    return false;
  for (std::size_t i = 0; i < a.miners.size(); ++i) {
    const auto& x = a.miners[i];
    const auto& y = b.miners[i];
    if (x.wins != y.wins || x.rounds_active != y.rounds_active ||
        x.income != y.income || x.payments != y.payments)
      return false;
  }
  return true;
}

}  // namespace perfbench
