// Tests for the scalar kernel layer (core/kernels.hpp): bitwise parity
// with the core/miner.hpp entry points and the hoisted KernelEnv
// constants.
#include "core/kernels.hpp"

#include <gtest/gtest.h>

#include "core/miner.hpp"
#include "support/error.hpp"
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

MinerEnv scalar_env(const NetworkParams& params, const Prices& prices,
                    double edge_success, double surcharge, double budget,
                    const Totals& others) {
  MinerEnv env;
  env.reward = params.reward;
  env.fork_rate = params.fork_rate;
  env.edge_success = edge_success;
  env.prices = prices;
  env.edge_surcharge = surcharge;
  env.budget = budget;
  env.others = others;
  return env;
}

TEST(ScalarKernels, BitwiseMatchMinerEntryPoints) {
  // The entry points are wrappers over the kernels, so this guards the
  // wrapper contract: same inputs, identical bits, including surcharge and
  // degenerate-opponent cases.
  const NetworkParams params = default_params();
  support::Rng rng{23};
  for (int trial = 0; trial < 200; ++trial) {
    const Prices prices{rng.uniform(0.5, 4.0), rng.uniform(0.2, 2.0)};
    const double h = rng.uniform(0.1, 1.0);
    const double mu = trial % 3 == 0 ? rng.uniform(0.0, 1.0) : 0.0;
    const double budget = trial % 7 == 0 ? 0.0 : rng.uniform(1.0, 80.0);
    Totals others{rng.uniform(0.0, 30.0), rng.uniform(0.0, 50.0)};
    if (trial % 5 == 0) others.edge = 0.0;   // discontinuous sup-at-zero case
    if (trial % 11 == 0) others = {0.0, 0.0};  // epsilon-probe case
    const MinerEnv env = scalar_env(params, prices, h, mu, budget, others);
    const KernelEnv kenv = make_kernel_env(env);

    const MinerRequest br = miner_best_response(env);
    const MinerRequest kbr =
        best_response_kernel(kenv, budget, others.edge, others.grand());
    EXPECT_EQ(br.edge, kbr.edge);
    EXPECT_EQ(br.cloud, kbr.cloud);

    const MinerRequest own{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
    EXPECT_EQ(miner_utility(env, own),
              utility_kernel(kenv, own.edge, own.cloud, others.edge,
                             others.grand()));
    EXPECT_EQ(miner_penalized_utility(env, own),
              penalized_utility_kernel(kenv, own.edge, own.cloud, others.edge,
                                       others.grand()));
    if (others.grand() + own.total() > 0.0) {
      const auto [du_de, du_dc] = miner_utility_gradient(env, own);
      double ke = 0.0;
      double kc = 0.0;
      gradient_kernel(kenv, own.edge, own.cloud, others.edge, others.grand(),
                      ke, kc);
      EXPECT_EQ(du_de, ke);
      EXPECT_EQ(du_dc, kc);
    }
  }
}

TEST(KernelEnvBuilder, ValidatesAndHoistsConstants) {
  const NetworkParams params = default_params();
  const Prices prices{2.0, 1.0};
  const KernelEnv env = make_kernel_env(params, prices, 0.9, 0.5);
  EXPECT_DOUBLE_EQ(env.effective_edge_price, 2.5);
  EXPECT_DOUBLE_EQ(env.share_coeff, 100.0 * (1.0 - 0.2));
  EXPECT_DOUBLE_EQ(env.edge_coeff, 100.0 * 0.2 * 0.9);
  EXPECT_DOUBLE_EQ(env.sigma1_sq, 0.9 * 0.2 * 100.0 / (2.5 - 1.0));
  EXPECT_DOUBLE_EQ(env.sigma2_sq, (1.0 - 0.2) * 100.0 / 1.0);
  EXPECT_THROW((void)make_kernel_env(params, {0.0, 1.0}, 0.9, 0.0),
               support::PreconditionError);
  EXPECT_THROW((void)make_kernel_env(params, prices, 0.0, 0.0),
               support::PreconditionError);
  EXPECT_THROW((void)make_kernel_env(params, prices, 0.9, -1.0),
               support::PreconditionError);
  // with_surcharge re-derives only the mu-dependent constants.
  const KernelEnv bumped = with_surcharge(env, 2.0);
  EXPECT_DOUBLE_EQ(bumped.effective_edge_price, 4.0);
  EXPECT_DOUBLE_EQ(bumped.sigma1_sq, 0.9 * 0.2 * 100.0 / (4.0 - 1.0));
  EXPECT_EQ(bumped.share_coeff, env.share_coeff);
}

}  // namespace
}  // namespace hecmine::core
