// The benchmark's four workloads: seeded input generation, the op each one
// times, and the per-op correctness checks.
//
//   price-symmetric  solve_leader_stage_homogeneous on catalogue games
//   price-profile    solve_leader_stage on all-distinct budget vectors
//   pool-scale       make_profile_oracle + one solve + sampled audit
//   campaign-live    run_campaign_at_equilibrium with monitor and block log
//
// Inputs are a pure function of (workload, seed, op index). Ops cycle
// through fixed strata (mode, pool size bin, ...) so every whole cycle
// carries the same input mix whatever the seed; the seed picks the inputs
// inside each stratum. The leader-stage workloads draw their games from a
// reference catalogue (reference/*.tsv) that stores each game with the
// answer recorded when the catalogue was made.
#pragma once
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/audit.hpp"
#include "core/params.hpp"
#include "core/sp.hpp"
#include "core/types.hpp"
#include "net/campaign.hpp"

namespace perfbench {

namespace core = hecmine::core;
namespace net = hecmine::net;

enum class Workload { kPriceSymmetric, kPriceProfile, kPoolScale, kCampaignLive };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);
/// Thread count the workload's solves run at.
[[nodiscard]] int workload_threads(Workload workload);
/// Ops per stratum cycle; a run always ends on a whole cycle.
[[nodiscard]] std::size_t cycle_length(Workload workload);

/// Tolerances of the per-op checks.
inline constexpr double kAuditTolerance = 1e-6;  ///< hecmine_cli --audit-tol
inline constexpr double kValueTolerance = 5e-3;  ///< relative, V_e + V_c
inline constexpr int kAuditedMiners = 16;        ///< pool-scale sampled audit

// --- leader-stage games (price-symmetric, price-profile) -------------------

/// One leader-stage game of the reference catalogue.
struct Game {
  int id = 0;
  core::EdgeMode mode = core::EdgeMode::kConnected;
  core::NetworkParams params;
  /// price-symmetric: one entry (n identical miners, see `miners`);
  /// price-profile: one entry per miner, all distinct.
  std::vector<double> budgets;
  int miners = 0;
  double ref_value = 0.0;  ///< V_e + V_c recorded with the catalogue
  core::Prices ref_prices;

  [[nodiscard]] std::vector<double> miner_budgets() const;
};

/// Generates the catalogue games of a leader-stage workload (answers
/// unset). Only used to (re)make the reference files.
[[nodiscard]] std::vector<Game> generate_catalogue(Workload workload,
                                                   std::uint64_t seed);
void write_catalogue(const std::string& path, Workload workload,
                     const std::vector<Game>& games);
/// Reads a catalogue written by write_catalogue; throws on malformed input.
[[nodiscard]] std::vector<Game> read_catalogue(const std::string& path);

/// Stratum of a catalogue game (price-symmetric: mode; price-profile:
/// miner count).
[[nodiscard]] std::size_t game_stratum(Workload workload, const Game& game);

/// Seeded op order over a catalogue: op k plays stratum k % cycle, and
/// within a stratum walks a seed-dependent permutation of its games.
class CatalogueSchedule {
 public:
  CatalogueSchedule(const std::vector<Game>& games, Workload workload,
                    std::uint64_t seed);
  [[nodiscard]] std::size_t game_for(std::size_t op) const;

 private:
  std::vector<std::vector<std::size_t>> strata_;
};

/// Runs the workload's leader-stage solve on `game`. `cache` (may be null)
/// is the per-game follower cache of price-symmetric; `telemetry` (may be
/// null) attaches a sink for the counted pass.
[[nodiscard]] core::LeaderStageResult solve_game(
    Workload workload, const Game& game, int threads,
    core::FollowerEquilibriumCache* cache,
    hecmine::support::Telemetry* telemetry = nullptr);
/// Audits the returned equilibrium at the returned prices.
[[nodiscard]] core::AuditReport audit_game(const Game& game,
                                           const core::LeaderStageResult& result);

/// Outcome of one leader-stage check; `reason` is empty when it passed.
struct Verdict {
  bool ok = true;
  std::string reason;
};
[[nodiscard]] Verdict check_leader(const Game& game,
                                   const core::LeaderStageResult& result,
                                   double worst_violation);

// --- pool-scale -----------------------------------------------------------

struct PoolOp {
  core::EdgeMode mode = core::EdgeMode::kConnected;
  core::NetworkParams params;
  std::vector<double> budgets;  ///< one per miner, K distinct values
  int classes = 0;
  core::Prices prices;
};
[[nodiscard]] PoolOp make_pool_op(std::uint64_t seed, std::size_t op);
/// Fixed N = 10^6 op used as the warm-up (touches the large buffers).
[[nodiscard]] PoolOp canonical_pool_op();
/// Connected-mode pool of 10^3 miners priced in the P_c >= P_e corner that
/// the timed ops avoid; the traced pass reports its solve.
[[nodiscard]] PoolOp corner_probe_op(std::uint64_t seed);
/// Standalone pool whose edge capacity binds, which the timed ops (all
/// connected) avoid; the traced pass reports its audit.
[[nodiscard]] PoolOp capacity_probe_op();
[[nodiscard]] core::SolveContext pool_context();
[[nodiscard]] core::AuditOptions pool_audit_options();
[[nodiscard]] core::Scenario pool_scenario(const PoolOp& op);

struct PoolOutcome {
  core::EquilibriumProfile profile;
  core::AuditReport audit;
};
/// The timed op: build the oracle, solve once, run the sampled audit.
[[nodiscard]] PoolOutcome run_pool_op(const PoolOp& op);
[[nodiscard]] Verdict check_pool(const PoolOutcome& outcome);

// --- campaign-live --------------------------------------------------------

struct CampaignOp {
  core::EdgeMode mode = core::EdgeMode::kConnected;
  bool churn = false;
  int nominal_miners = 0;  ///< N; the pool holds more under churn
  core::NetworkParams params;
  std::vector<double> budgets;
  core::Prices prices;
  std::size_t blocks = 20000;
  std::uint64_t campaign_seed = 0;
};
[[nodiscard]] CampaignOp make_campaign_op(std::uint64_t seed, std::size_t op);
/// Fixed small-pool campaign used as the warm-up.
[[nodiscard]] CampaignOp canonical_campaign_op();
/// Campaign configuration of an op, with no monitor, log or telemetry.
[[nodiscard]] net::CampaignConfig campaign_config(const CampaignOp& op);

/// Records in a hecmine.blocklog.v1 file.
struct BlockLogCounts {
  std::uint64_t records = 0;  ///< one per round
  std::uint64_t winners = 0;  ///< records with a block winner
  std::uint64_t bytes = 0;
};
[[nodiscard]] BlockLogCounts count_block_log(const std::string& path);

/// Exact campaign accounting: wins sum to blocks_mined, income to
/// R * blocks_mined, and the log holds one record per round with one
/// winner per mined block.
[[nodiscard]] Verdict check_campaign(const CampaignOp& op,
                                     const net::EquilibriumCampaignResult& run,
                                     const BlockLogCounts& log);
/// Bitwise equality of two campaign results.
[[nodiscard]] bool same_campaign(const net::CampaignResult& a,
                                 const net::CampaignResult& b);

}  // namespace perfbench
