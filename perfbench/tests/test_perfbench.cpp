// Tests of the benchmark's own logic: seeded inputs, the tail-percentile
// rule, failure accounting and the campaign rerun equality.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "chain/blocklog.hpp"
#include "net/campaign_monitor.hpp"
#include "stats.hpp"
#include "support/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::string catalogue(const char* workload) {
  return std::string(PERFBENCH_SOURCE_DIR) + "/reference/" + workload + ".tsv";
}

TEST(Inputs, SameSeedGivesIdenticalPoolInputs) {
  for (std::size_t op = 0; op < 16; ++op) {
    const PoolOp a = make_pool_op(7, op);
    const PoolOp b = make_pool_op(7, op);
    EXPECT_EQ(a.budgets, b.budgets);
    EXPECT_EQ(a.prices.edge, b.prices.edge);
    EXPECT_EQ(a.prices.cloud, b.prices.cloud);
    EXPECT_EQ(a.params.fork_rate, b.params.fork_rate);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_GT(a.prices.edge, a.prices.cloud);
  }
  EXPECT_NE(make_pool_op(7, 3).budgets, make_pool_op(8, 3).budgets);
}

TEST(Inputs, SameSeedGivesIdenticalCampaignInputs) {
  for (std::size_t op = 0; op < 8; ++op) {
    const CampaignOp a = make_campaign_op(11, op);
    const CampaignOp b = make_campaign_op(11, op);
    EXPECT_EQ(a.budgets, b.budgets);
    EXPECT_EQ(a.campaign_seed, b.campaign_seed);
    EXPECT_EQ(a.prices.edge, b.prices.edge);
    EXPECT_EQ(a.churn, b.churn);
  }
  EXPECT_NE(make_campaign_op(11, 2).campaign_seed,
            make_campaign_op(12, 2).campaign_seed);
}

TEST(Inputs, SameSeedGivesIdenticalCatalogueSchedule) {
  for (const Workload workload :
       {Workload::kPriceSymmetric, Workload::kPriceProfile}) {
    const auto games = read_catalogue(catalogue(workload_name(workload)));
    const CatalogueSchedule a(games, workload, 5);
    const CatalogueSchedule b(games, workload, 5);
    const CatalogueSchedule other(games, workload, 6);
    bool differs = false;
    for (std::size_t op = 0; op < 64; ++op) {
      EXPECT_EQ(a.game_for(op), b.game_for(op));
      // Every op plays its cycle slot's stratum, whatever the seed.
      EXPECT_EQ(game_stratum(workload, games[a.game_for(op)]),
                op % cycle_length(workload));
      differs = differs || a.game_for(op) != other.game_for(op);
    }
    EXPECT_TRUE(differs) << workload_name(workload);
  }
}

TEST(Inputs, CatalogueRoundTripsThroughTheReferenceFile) {
  const auto games = read_catalogue(catalogue("price-profile"));
  const auto generated =
      generate_catalogue(Workload::kPriceProfile, 0x68656331);
  ASSERT_EQ(games.size(), generated.size());
  for (std::size_t i = 0; i < games.size(); ++i) {
    EXPECT_EQ(games[i].budgets, generated[i].budgets);
    EXPECT_EQ(games[i].params.fork_rate, generated[i].params.fork_rate);
  }
}

TEST(Percentiles, TailIsReportableOnlyWithTenSamplesBeyond) {
  EXPECT_FALSE(tail_reportable(99, 0.9));
  EXPECT_TRUE(tail_reportable(100, 0.9));
  EXPECT_FALSE(tail_reportable(19, 0.5));
  EXPECT_TRUE(tail_reportable(20, 0.5));
  EXPECT_FALSE(tail_reportable(999, 0.99));
  EXPECT_TRUE(tail_reportable(1000, 0.99));
}

TEST(Percentiles, QuantileInterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0}, 0.9), 1.9);
}

TEST(Failures, TallyCountsEveryFailedOp) {
  OpTally tally;
  for (int i = 0; i < 10; ++i) tally.record(i % 4 != 0);
  EXPECT_EQ(tally.attempted, 10u);
  EXPECT_EQ(tally.failed, 3u);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 0.3);
}

TEST(Failures, PerturbedLeaderAnswerFails) {
  const auto games = read_catalogue(catalogue("price-symmetric"));
  const Game& game = games.front();
  core::FollowerEquilibriumCache* no_cache = nullptr;
  core::LeaderStageResult result =
      solve_game(Workload::kPriceSymmetric, game, 1, no_cache);
  const double worst = core::worst_violation(audit_game(game, result));
  // The cached reference and this uncached solve agree to the tolerance.
  EXPECT_TRUE(check_leader(game, result, worst).ok);
  core::LeaderStageResult perturbed = result;
  perturbed.profits.cloud += 2.0 * kValueTolerance * game.ref_value;
  EXPECT_FALSE(check_leader(game, perturbed, worst).ok);
  EXPECT_FALSE(check_leader(game, result, 10.0 * kAuditTolerance).ok);
  perturbed = result;
  perturbed.followers.converged = false;
  EXPECT_FALSE(check_leader(game, perturbed, worst).ok);
}

TEST(Failures, PerturbedPoolAuditFails) {
  PoolOp op = make_pool_op(3, 0);
  const PoolOutcome outcome = run_pool_op(op);
  EXPECT_TRUE(check_pool(outcome).ok) << check_pool(outcome).reason;
  PoolOutcome perturbed = outcome;
  perturbed.audit.capacity_violation = 1e-3;
  EXPECT_FALSE(check_pool(perturbed).ok);
}

class CampaignReruns : public ::testing::Test {
 protected:
  void SetUp() override {
    op_ = make_campaign_op(21, 2);  // churned pool
    op_.blocks = 2000;
    log_path_ = (std::filesystem::current_path() /
                 ("perfbench_test_" + std::to_string(::getpid()) + ".jsonl"))
                    .string();
  }
  void TearDown() override { std::filesystem::remove(log_path_); }

  CampaignOp op_;
  std::string log_path_;
};

TEST_F(CampaignReruns, BareMonitorAndLogRunsAreEqual) {
  core::SolveContext context;
  context.threads = 1;
  const net::CampaignConfig bare = campaign_config(op_);
  hecmine::support::Telemetry sink;
  net::CampaignMonitorOptions monitor_options;
  monitor_options.action = hecmine::support::health::WatchdogAction::kObserve;
  net::CampaignMonitor monitor(sink, monitor_options);
  net::EquilibriumCampaignResult full;
  {
    hecmine::chain::BlockLogWriter log(log_path_);
    net::CampaignConfig config = bare;
    config.monitor = &monitor;
    config.block_log = &log;
    full = net::run_campaign_at_equilibrium(config, op_.budgets,
                                            op_.campaign_seed, context);
  }
  const BlockLogCounts counts = count_block_log(log_path_);
  EXPECT_TRUE(check_campaign(op_, full, counts).ok)
      << check_campaign(op_, full, counts).reason;

  const auto strategies = full.equilibrium.expanded();
  const auto plain = net::run_campaign(bare, strategies, op_.campaign_seed);
  hecmine::support::Telemetry sink2;
  net::CampaignMonitor monitor2(sink2, monitor_options);
  monitor2.set_reference(strategies, op_.mode, op_.params.fork_rate,
                         op_.params.edge_success);
  net::CampaignConfig with_monitor = bare;
  with_monitor.monitor = &monitor2;
  const auto monitored =
      net::run_campaign(with_monitor, strategies, op_.campaign_seed);
  EXPECT_TRUE(same_campaign(plain, full.result));
  EXPECT_TRUE(same_campaign(monitored, full.result));

  net::CampaignResult changed = plain;
  changed.miners.back().payments += 1e-9;
  EXPECT_FALSE(same_campaign(changed, full.result));
  net::EquilibriumCampaignResult perturbed = full;
  perturbed.result.miners.front().wins += 1;
  EXPECT_FALSE(check_campaign(op_, perturbed, counts).ok);
  BlockLogCounts short_log = counts;
  short_log.records -= 1;
  EXPECT_FALSE(check_campaign(op_, full, short_log).ok);
}

}  // namespace
}  // namespace perfbench
