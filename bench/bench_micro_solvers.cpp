// Micro-benchmarks (google-benchmark) for the hot paths: the miner best
// response, the follower-stage equilibria, the GNEP decomposition, the
// extragradient VI solver and the PoW race simulator. google-benchmark's
// own --benchmark_out=<file> writes the timings as JSON.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/miner.hpp"
#include "core/oracle.hpp"
#include "chain/race.hpp"
#include "support/rng.hpp"

namespace {

using namespace hecmine;

core::NetworkParams bench_params() {
  core::NetworkParams params;
  params.reward = 100.0;
  params.fork_rate = 0.2;
  params.edge_success = 0.9;
  params.edge_capacity = 8.0;
  params.cost_edge = 1.0;
  params.cost_cloud = 0.4;
  return params;
}

void BM_MinerBestResponse(benchmark::State& state) {
  core::MinerEnv env;
  env.reward = 100.0;
  env.fork_rate = 0.2;
  env.edge_success = 0.9;
  env.prices = {2.0, 1.0};
  env.budget = 40.0;
  env.others = {10.0, 20.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::miner_best_response(env));
  }
}
BENCHMARK(BM_MinerBestResponse);

void BM_ConnectedNepSolve(benchmark::State& state) {
  const auto params = bench_params();
  const core::Prices prices{2.0, 1.0};
  const std::vector<double> budgets(static_cast<std::size_t>(state.range(0)),
                                    40.0);
  const core::ConnectedNepOracle oracle(params, budgets);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.solve(prices));
  }
}
BENCHMARK(BM_ConnectedNepSolve)->Arg(3)->Arg(5)->Arg(10);

void BM_SymmetricConnectedClosedForm(benchmark::State& state) {
  const auto params = bench_params();
  const core::Prices prices{2.0, 1.0};
  const core::SymmetricFollowerOracle oracle(params, 40.0, 5,
                                             core::EdgeMode::kConnected);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.solve(prices));
  }
}
BENCHMARK(BM_SymmetricConnectedClosedForm);

void BM_StandaloneGnepSolve(benchmark::State& state) {
  const auto params = bench_params();
  const core::Prices prices{2.0, 1.0};
  const std::vector<double> budgets(static_cast<std::size_t>(state.range(0)),
                                    40.0);
  const core::StandaloneGnepOracle oracle(params, budgets);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.solve(prices));
  }
}
BENCHMARK(BM_StandaloneGnepSolve)->Arg(3)->Arg(5);

void BM_StandaloneGnepVi(benchmark::State& state) {
  const auto params = bench_params();
  const core::Prices prices{2.0, 1.0};
  const std::vector<double> budgets(3, 40.0);
  core::MinerSolveOptions options;
  options.vi_tolerance = 1e-7;
  const core::StandaloneGnepOracle oracle(params, budgets,
                                          core::GnepAlgorithm::kVi, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.solve(prices));
  }
}
BENCHMARK(BM_StandaloneGnepVi);

void BM_PowRace(benchmark::State& state) {
  support::Rng rng{7};
  const std::vector<chain::Allocation> allocations{
      {2.0, 1.0}, {1.5, 2.5}, {1.0, 4.0}, {0.5, 0.5}, {3.0, 0.0}};
  const chain::RaceConfig config{0.2, 1.0, 1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain::run_race(allocations, config, rng));
  }
}
BENCHMARK(BM_PowRace);

}  // namespace

BENCHMARK_MAIN();
