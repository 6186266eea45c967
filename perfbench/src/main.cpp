// hecmine_perfbench: the repository benchmark.
//
//   hecmine_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       [--reference-dir DIR] [--work-dir DIR] [--trace-out FILE]
//       [--setup-samples a,b,...] [--setup-only]
//   hecmine_perfbench --make-reference DIR
//
// One closed-loop caller runs the workload's ops back to back (the next op
// starts only after the previous one returned), with no telemetry sink
// attached, and checks every answer. The loop ends on the first whole
// stratum cycle after --seconds. With --trace 1 a traced pass follows on
// the same seed: spans recorded around the calls into each layer (kept in
// memory, written to --trace-out at exit) and the library's work counters
// read in a serial counted pass give the per-layer metrics.
//
// Output: a provenance line, a metric table (value, unit, sample count),
// and as the last line one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. --setup-only stops after set-up and prints setup_s; the
// run.py runs it a few times and hands the values back through
// --setup-samples so the reported setup_s is a median.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chain/race.hpp"
#include "core/aggregate_oracle.hpp"
#include "core/equilibrium_cache.hpp"
#include "net/campaign_monitor.hpp"
#include "net/offload.hpp"
#include "stats.hpp"
#include "support/json.hpp"
#include "support/prof.hpp"
#include "support/provenance.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace support = hecmine::support;
namespace chain = hecmine::chain;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Catalogue seed of the committed reference files.
constexpr std::uint64_t kCatalogueSeed = 0x68656331;
/// Samples per traced op for the repeated follower / leader-eval timings.
constexpr int kMinLayerSamples = 100;

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

class MetricTable {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    for (Metric& metric : metrics_) {
      if (metric.name == name) {
        metric = {name, value, unit, samples};
        return;
      }
    }
    metrics_.push_back({name, value, unit, samples});
  }
  [[nodiscard]] const std::vector<Metric>& all() const noexcept {
    return metrics_;
  }
  void print(std::ostream& os, const char* title) const {
    os << title << "\n";
    char line[160];
    std::snprintf(line, sizeof line, "  %-30s %16s  %-6s %8s\n", "metric",
                  "value", "unit", "samples");
    os << line;
    for (const Metric& metric : metrics_) {
      std::snprintf(line, sizeof line, "  %-30s %16.6g  %-6s %8llu\n",
                    metric.name.c_str(), metric.value, metric.unit.c_str(),
                    static_cast<unsigned long long>(metric.samples));
      os << line;
    }
  }

 private:
  std::vector<Metric> metrics_;
};

/// Every per-layer metric, in BENCHMARK.json order, with its unit. A
/// workload that does not call a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>>& layer_metric_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"build.ms", "ms"},
      {"build.ns_per_miner", "ns"},
      {"build.classes", "count"},
      {"follower.solve_us_p50", "us"},
      {"follower.solve_us_p90", "us"},
      {"follower.sweeps", "count"},
      {"follower.best_response_evals", "count"},
      {"follower.converged_frac", "ratio"},
      {"follower.corner_ms", "ms"},
      {"follower.corner_sweeps", "count"},
      {"leader_eval.count", "count"},
      {"leader_eval.us", "us"},
      {"leader_stage.ms", "ms"},
      {"leader_stage.rounds", "count"},
      {"leader_stage.fallback_frac", "ratio"},
      {"leader_stage.self_ms", "ms"},
      {"cache.hit_rate", "ratio"},
      {"cache.evictions", "count"},
      {"parallel.efficiency", "ratio"},
      {"audit.ms", "ms"},
      {"audit.gap_max", "abs"},
      {"audit.capacity_probe_violation", "abs"},
      {"campaign_round.us_per_block", "us"},
      {"offload.admit_us", "us"},
      {"race.us", "us"},
      {"campaign.equilibrium_ms", "ms"},
      {"monitor.us_per_block", "us"},
      {"monitor.incidents", "count"},
      {"blocklog.us_per_block", "us"},
      {"blocklog.bytes_per_block", "B"},
      {"trace.overhead_pct", "%"},
  };
  return units;
}

class LayerMetrics {
 public:
  LayerMetrics() {
    for (const auto& [name, unit] : layer_metric_units())
      table_.set(name, 0.0, unit, 0);
  }
  void set(const std::string& name, double value, std::uint64_t samples) {
    for (const auto& [known, unit] : layer_metric_units()) {
      if (name == known) {
        table_.set(name, value, unit, samples);
        return;
      }
    }
    throw std::logic_error("unknown per-layer metric " + name);
  }
  [[nodiscard]] const MetricTable& table() const noexcept { return table_; }

 private:
  MetricTable table_;
};

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Per-op work counters of a serial counted pass (sink attached, threads=1).
template <typename Body>
support::prof::WorkCounters counted(const Body& body) {
  support::Telemetry telemetry;
  const support::TelemetryScope scope(&telemetry);
  body(&telemetry);
  return telemetry.work.total();
}

/// Times `reps` calls of `body` (each one sample, in microseconds).
template <typename Body>
std::vector<double> repeat_us(int reps, const Body& body) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    body();
    samples.push_back(ms_since(start) * 1e3);
  }
  return samples;
}

/// Follower and leader-eval layer samples at one price point: `reps`
/// solves of `oracle`, then `reps` solves plus sp_profits.
struct PointSamples {
  std::vector<double> follower_us;
  std::vector<double> leader_eval_us;
  std::uint64_t converged = 0;
  std::uint64_t solves = 0;
};

void sample_point(const core::FollowerOracle& oracle,
                  const core::NetworkParams& params, const core::Prices& prices,
                  int reps, SpanRecorder& spans, long op, PointSamples& out) {
  {
    ScopedSpan span(spans, "follower", op);
    for (const double us : repeat_us(reps, [&] {
           const auto profile = oracle.solve(prices);
           out.converged += profile.converged ? 1 : 0;
           ++out.solves;
         }))
      out.follower_us.push_back(us);
  }
  ScopedSpan span(spans, "leader_eval", op);
  double sink = 0.0;
  for (const double us : repeat_us(reps, [&] {
         const auto profile = oracle.solve(prices);
         const auto profits = core::sp_profits(params, prices, profile.totals);
         sink += profits.edge + profits.cloud;
       }))
    out.leader_eval_us.push_back(us);
  if (!std::isfinite(sink)) throw std::runtime_error("non-finite SP profit");
}

void report_point_samples(const PointSamples& samples, LayerMetrics& layers) {
  const std::size_t n = samples.follower_us.size();
  if (n == 0) return;
  layers.set("follower.solve_us_p50", quantile(samples.follower_us, 0.5), n);
  if (tail_reportable(n, 0.9))
    layers.set("follower.solve_us_p90", quantile(samples.follower_us, 0.9), n);
  layers.set("follower.converged_frac",
             static_cast<double>(samples.converged) /
                 static_cast<double>(samples.solves),
             samples.solves);
  layers.set("leader_eval.us", mean(samples.leader_eval_us),
             samples.leader_eval_us.size());
}

int reps_per_op(std::size_t traced_ops) {
  const auto ops = static_cast<int>(std::max<std::size_t>(traced_ops, 1));
  return (kMinLayerSamples + ops - 1) / ops;
}

// --- workload runners ---------------------------------------------------------

/// Timed record of one op of the closed loop.
struct OpRecord {
  double ms = 0.0;
  bool ok = false;
  double blocks = 0.0;  ///< simulated blocks (campaign-live)
};

class Runner {
 public:
  virtual ~Runner() = default;
  /// Untimed input generation of op `op` (excluded from set-up and timing).
  virtual void prepare(std::size_t op) = 0;
  /// The timed op on the prepared input; returns its wall time in ms.
  virtual double run() = 0;
  /// Checks the last op's answer.
  [[nodiscard]] virtual Verdict check() = 0;
  /// Blocks simulated by the last op (campaign-live only).
  [[nodiscard]] virtual double blocks() const { return 0.0; }
  /// Generation of the canonical warm-up input (excluded from setup_s).
  virtual void prepare_warm_up() = 0;
  /// Proves the checks reject a perturbed copy of the last answer while
  /// accepting the answer itself; returns a failure description or "".
  [[nodiscard]] virtual std::string self_check() = 0;
  /// The traced and counted passes over the first ops of the timed run.
  virtual void traced_pass(const std::vector<OpRecord>& timed,
                           SpanRecorder& spans, LayerMetrics& layers,
                           std::vector<std::string>& problems) = 0;
};

/// Self-check shared by all runners: the tally must count the perturbed
/// answer as failed and the real one as passed.
std::string tally_self_check(const Verdict& real, const Verdict& perturbed) {
  OpTally tally;
  tally.record(real.ok);
  tally.record(perturbed.ok);
  if (tally.attempted != 2 || tally.failed != 1 || !real.ok)
    return "self-check: perturbed answer not counted as failed (" +
           real.reason + ")";
  return "";
}

class LeaderRunner final : public Runner {
 public:
  LeaderRunner(Workload workload, std::vector<Game> games, std::uint64_t seed)
      : workload_(workload),
        games_(std::move(games)),
        schedule_(games_, workload, seed),
        threads_(workload_threads(workload)) {}

  void prepare(std::size_t op) override {
    game_ = &games_[schedule_.game_for(op)];
    warm_up_ = false;
  }
  void prepare_warm_up() override {
    game_ = &games_.front();
    warm_up_ = true;
  }

  double run() override {
    const auto start = Clock::now();
    result_ = solve(*game_, threads_);
    const double ms = ms_since(start);
    if (!warm_up_) results_.push_back(result_.prices);
    return ms;
  }

  Verdict check() override {
    const auto audit = audit_game(*game_, result_);
    return check_leader(*game_, result_, core::worst_violation(audit));
  }

  std::string self_check() override {
    const Verdict real = check();
    core::LeaderStageResult perturbed = result_;
    perturbed.profits.edge += 2.0 * kValueTolerance * std::abs(game_->ref_value);
    const auto audit = audit_game(*game_, result_);
    return tally_self_check(
        real, check_leader(*game_, perturbed, core::worst_violation(audit)));
  }

  void traced_pass(const std::vector<OpRecord>& timed, SpanRecorder& spans,
                   LayerMetrics& layers,
                   std::vector<std::string>& problems) override {
    const bool symmetric = workload_ == Workload::kPriceSymmetric;
    // price-symmetric: 8 cycles of its cheap ops; price-profile: one cycle.
    const std::size_t ops = std::min(
        timed.size(), symmetric ? 8 * cycle_length(workload_)
                                : cycle_length(workload_));
    const int reps = reps_per_op(ops);
    PointSamples point;
    std::vector<double> build_ms;
    std::vector<double> rounds;
    std::vector<double> audit_gap;
    std::vector<double> t1_ms;
    std::uint64_t fallbacks = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    double timed_ms = 0.0;
    for (std::size_t k = 0; k < ops; ++k) {
      const long op = static_cast<long>(k);
      const Game& game = games_[schedule_.game_for(k)];
      timed_ms += timed[k].ms;
      core::LeaderStageResult result;
      {
        ScopedSpan op_span(spans, "op", op);
        ScopedSpan stage(spans, "leader_stage", op);
        std::optional<core::FollowerEquilibriumCache> cache;
        if (symmetric) cache.emplace();
        result = solve_game(workload_, game, threads_,
                            cache ? &*cache : nullptr);
        if (cache) {
          const auto stats = cache->stats();
          hits += stats.hits;
          misses += stats.misses;
          evictions += stats.evictions;
        }
      }
      rounds.push_back(result.rounds);
      if (result.method == core::SpSolveMethod::kSequential) ++fallbacks;
      {
        ScopedSpan span(spans, "audit", op);
        audit_gap.push_back(core::worst_violation(audit_game(game, result)));
      }
      if (!symmetric) {
        // Threads=1 rerun: times the pool's contribution and must
        // reproduce the threads=2 prices of the timed run bitwise.
        ScopedSpan span(spans, "leader_stage.threads1", op);
        const auto serial = solve(game, 1);
        t1_ms.push_back(span.close());
        if (serial.prices.edge != results_[k].edge ||
            serial.prices.cloud != results_[k].cloud)
          problems.push_back("price-profile op " + std::to_string(k) +
                             ": threads=1 prices differ from threads=2");
      }
      // Build and point layers on the oracle this workload's stage uses.
      std::unique_ptr<core::FollowerOracle> oracle;
      {
        ScopedSpan span(spans, "build", op);
        if (symmetric)
          oracle = std::make_unique<core::SymmetricFollowerOracle>(
              game.params, game.budgets[0], game.miners, game.mode);
        else
          oracle = core::make_profile_oracle(game.params, game.budgets,
                                             game.mode);
        build_ms.push_back(span.close());
      }
      sample_point(*oracle, game.params, result.prices, reps, spans, op, point);
    }
    // Counted pass: the library's deterministic work counters, serial.
    support::prof::WorkCounters work;
    for (std::size_t k = 0; k < ops; ++k) {
      const Game& game = games_[schedule_.game_for(k)];
      work += counted([&](support::Telemetry* sink) {
        std::optional<core::FollowerEquilibriumCache> cache;
        if (symmetric) cache.emplace();
        (void)solve_game(workload_, game, 1, cache ? &*cache : nullptr, sink);
      });
    }
    using support::prof::WorkField;
    const double n = static_cast<double>(ops);
    const double stage_ms = spans.total_ms("leader_stage") / n;
    const double evals = static_cast<double>(work[WorkField::kUtilityEvals]) / n;
    report_point_samples(point, layers);
    layers.set("build.ms", mean(build_ms), ops);
    layers.set("build.classes", symmetric ? 1.0 : mean_miners(ops), ops);
    layers.set("follower.sweeps",
               static_cast<double>(work[WorkField::kSweeps]) / n, ops);
    layers.set("follower.best_response_evals",
               static_cast<double>(work[WorkField::kBestResponseEvals]) / n,
               ops);
    layers.set("leader_eval.count", evals, ops);
    layers.set("leader_stage.ms", stage_ms, ops);
    layers.set("leader_stage.rounds", mean(rounds), ops);
    layers.set("leader_stage.fallback_frac", static_cast<double>(fallbacks) / n,
               ops);
    layers.set("leader_stage.self_ms",
               stage_ms - evals * mean(point.leader_eval_us) * 1e-3, ops);
    if (symmetric) {
      layers.set("cache.hit_rate",
                 static_cast<double>(hits) / static_cast<double>(hits + misses),
                 ops);
      layers.set("cache.evictions", static_cast<double>(evictions) / n, ops);
    } else {
      layers.set("parallel.efficiency",
                 sum(t1_ms) / (2.0 * spans.total_ms("leader_stage")), ops);
    }
    layers.set("audit.ms", spans.total_ms("audit") / n, ops);
    layers.set("audit.gap_max", *std::max_element(audit_gap.begin(),
                                                  audit_gap.end()),
               ops);
    layers.set("trace.overhead_pct",
               100.0 * (spans.total_ms("op") - timed_ms) / timed_ms, ops);
  }

 private:
  core::LeaderStageResult solve(const Game& game, int threads) const {
    // price-symmetric runs hecmine_cli solve's set-up: a fresh follower
    // cache per game.
    if (workload_ == Workload::kPriceSymmetric) {
      core::FollowerEquilibriumCache cache;
      return solve_game(workload_, game, threads, &cache);
    }
    return solve_game(workload_, game, threads, nullptr);
  }
  double mean_miners(std::size_t ops) const {
    double total = 0.0;
    for (std::size_t k = 0; k < ops; ++k)
      total += games_[schedule_.game_for(k)].miners;
    return total / static_cast<double>(ops);
  }

  Workload workload_;
  std::vector<Game> games_;
  CatalogueSchedule schedule_;
  int threads_;
  const Game* game_ = nullptr;
  bool warm_up_ = false;
  core::LeaderStageResult result_;
  std::vector<core::Prices> results_;  ///< prices of every timed op
};

class PoolRunner final : public Runner {
 public:
  explicit PoolRunner(std::uint64_t seed) : seed_(seed) {}

  void prepare(std::size_t op) override { op_ = make_pool_op(seed_, op); }
  void prepare_warm_up() override { op_ = canonical_pool_op(); }

  double run() override {
    const auto start = Clock::now();
    outcome_ = run_pool_op(op_);
    return ms_since(start);
  }
  Verdict check() override { return check_pool(outcome_); }

  std::string self_check() override {
    PoolOutcome perturbed = outcome_;
    perturbed.audit.best_response_gap = 1e3 * kAuditTolerance;
    return tally_self_check(check(), check_pool(perturbed));
  }

  void traced_pass(const std::vector<OpRecord>& timed, SpanRecorder& spans,
                   LayerMetrics& layers, std::vector<std::string>&) override {
    const std::size_t ops = std::min(timed.size(), cycle_length(Workload::kPoolScale));
    const int reps = reps_per_op(ops);
    PointSamples point;
    std::vector<double> gaps;
    double miners = 0.0;
    double classes = 0.0;
    double timed_ms = 0.0;
    support::prof::WorkCounters work;
    for (std::size_t k = 0; k < ops; ++k) {
      const long op = static_cast<long>(k);
      const PoolOp input = make_pool_op(seed_, k);
      timed_ms += timed[k].ms;
      miners += static_cast<double>(input.budgets.size());
      std::unique_ptr<core::FollowerOracle> oracle;
      core::EquilibriumProfile profile;
      {
        ScopedSpan op_span(spans, "op", op);
        {
          ScopedSpan span(spans, "build", op);
          oracle = core::make_profile_oracle(input.params, input.budgets,
                                             input.mode, pool_context());
        }
        {
          ScopedSpan span(spans, "follower.solve", op);
          profile = oracle->solve(input.prices);
        }
        ScopedSpan span(spans, "audit", op);
        gaps.push_back(core::worst_violation(core::audit_equilibrium(
            pool_scenario(input), input.prices, profile, pool_audit_options())));
      }
      if (const auto* aggregate =
              dynamic_cast<const core::ClassAggregateOracle*>(oracle.get()))
        classes += aggregate->class_count();
      sample_point(*oracle, input.params, input.prices, reps, spans, op, point);
      work += counted([&](support::Telemetry*) {
        (void)oracle->solve(input.prices);
      });
    }
    // The binding-capacity standalone pool the timed ops stay out of
    // (finding F4).
    {
      const PoolOp probe = capacity_probe_op();
      ScopedSpan span(spans, "audit.capacity_probe", -1);
      const auto profile =
          core::make_profile_oracle(probe.params, probe.budgets, probe.mode,
                                    pool_context())
              ->solve(probe.prices);
      layers.set("audit.capacity_probe_violation",
                 core::worst_violation(core::audit_equilibrium(
                     pool_scenario(probe), probe.prices, profile,
                     pool_audit_options())),
                 1);
    }
    // The P_c >= P_e corner the timed ops stay out of (finding F1).
    const PoolOp corner = corner_probe_op(seed_);
    {
      ScopedSpan span(spans, "follower.corner", -1);
      const auto profile =
          core::make_profile_oracle(corner.params, corner.budgets, corner.mode,
                                    pool_context())
              ->solve(corner.prices);
      layers.set("follower.corner_ms", span.close(), 1);
      layers.set("follower.corner_sweeps", profile.iterations, 1);
    }
    using support::prof::WorkField;
    const double n = static_cast<double>(ops);
    report_point_samples(point, layers);
    layers.set("build.ms", spans.total_ms("build") / n, ops);
    layers.set("build.ns_per_miner", spans.total_ms("build") * 1e6 / miners,
               ops);
    layers.set("build.classes", classes / n, ops);
    layers.set("follower.sweeps",
               static_cast<double>(work[WorkField::kSweeps]) / n, ops);
    layers.set("follower.best_response_evals",
               static_cast<double>(work[WorkField::kBestResponseEvals]) / n,
               ops);
    layers.set("audit.ms", spans.total_ms("audit") / n, ops);
    layers.set("audit.gap_max", *std::max_element(gaps.begin(), gaps.end()),
               ops);
    layers.set("trace.overhead_pct",
               100.0 * (spans.total_ms("op") - timed_ms) / timed_ms, ops);
  }

 private:
  std::uint64_t seed_;
  PoolOp op_;
  PoolOutcome outcome_;
};

class CampaignRunner final : public Runner {
 public:
  CampaignRunner(std::uint64_t seed, std::filesystem::path work_dir,
                 const support::provenance::RunManifest& manifest)
      : seed_(seed), work_dir_(std::move(work_dir)), manifest_(manifest) {}

  void prepare(std::size_t op) override {
    op_ = make_campaign_op(seed_, op);
    warm_up_ = false;
    open_sinks();
  }
  void prepare_warm_up() override {
    op_ = canonical_campaign_op();
    warm_up_ = true;
    open_sinks();
  }

  double run() override {
    net::CampaignConfig config = campaign_config(op_);
    config.monitor = &*monitor_;
    config.block_log = &*log_;
    const auto start = Clock::now();
    run_ = net::run_campaign_at_equilibrium(config, op_.budgets,
                                            op_.campaign_seed, context());
    const double ms = ms_since(start);
    if (!warm_up_) results_.push_back(run_.result);
    return ms;
  }

  Verdict check() override {
    close_sinks();
    const BlockLogCounts counts = count_block_log(log_path());
    std::filesystem::remove(log_path());
    return check_campaign(op_, run_, counts);
  }

  double blocks() const override {
    return static_cast<double>(run_.result.blocks_mined);
  }

  std::string self_check() override {
    close_sinks();
    const BlockLogCounts counts = count_block_log(log_path());
    net::EquilibriumCampaignResult perturbed = run_;
    perturbed.result.miners.front().income += op_.params.reward;
    const std::string problem = tally_self_check(
        check_campaign(op_, run_, counts), check_campaign(op_, perturbed, counts));
    std::filesystem::remove(log_path());
    return problem;
  }

  void traced_pass(const std::vector<OpRecord>& timed, SpanRecorder& spans,
                   LayerMetrics& layers,
                   std::vector<std::string>& problems) override {
    // Every other pool-size bin, modes alternating: ops 1, 11, 5, 15 (bins
    // 1, 3, 5, 7; standalone, connected, standalone, connected), as far as
    // the timed run got.
    std::vector<std::size_t> traced;
    for (const std::size_t k : {1, 11, 5, 15})
      if (k < timed.size()) traced.push_back(k);
    const std::size_t ops = traced.size();
    const int reps = reps_per_op(ops);
    PointSamples point;
    std::vector<double> build_ms;
    double blocks = 0.0;
    double bare_ms = 0.0;
    double monitor_ms = 0.0;
    double full_ms = 0.0;
    double bytes = 0.0;
    double records = 0.0;
    double incidents = 0.0;
    double timed_ms = 0.0;
    std::vector<double> admit_us;
    std::vector<double> race_us;
    support::prof::WorkCounters work;
    for (const std::size_t k : traced) {
      const long op = static_cast<long>(k);
      op_ = make_campaign_op(seed_, k);
      timed_ms += timed[k].ms;
      const net::CampaignConfig bare = campaign_config(op_);
      ScopedSpan op_span(spans, "op", op);
      core::EquilibriumProfile equilibrium;
      {
        ScopedSpan span(spans, "campaign.equilibrium", op);
        equilibrium = core::solve_followers(op_.params, op_.prices,
                                            op_.budgets, op_.mode, context());
      }
      const std::vector<core::MinerRequest> strategies = equilibrium.expanded();
      // Three reruns with the same seed: bare, + monitor, + monitor + log.
      // Neither sink draws from the RNG, so all must equal the timed run.
      net::CampaignResult result_bare;
      {
        ScopedSpan span(spans, "campaign_round", op);
        result_bare = net::run_campaign(bare, strategies, op_.campaign_seed);
        bare_ms += span.close();
      }
      net::CampaignResult result_monitor;
      {
        support::Telemetry sink;
        net::CampaignMonitor monitor(sink, monitor_options());
        install_reference(monitor, nullptr, strategies);
        net::CampaignConfig config = bare;
        config.monitor = &monitor;
        ScopedSpan span(spans, "campaign_round+monitor", op);
        result_monitor = net::run_campaign(config, strategies, op_.campaign_seed);
        monitor_ms += span.close();
      }
      net::CampaignResult result_full;
      {
        support::Telemetry sink;
        net::CampaignMonitor monitor(sink, monitor_options());
        {
          chain::BlockLogWriter log(log_path(), &manifest_);
          install_reference(monitor, &log, strategies);
          net::CampaignConfig config = bare;
          config.monitor = &monitor;
          config.block_log = &log;
          ScopedSpan span(spans, "campaign_round+monitor+blocklog", op);
          result_full = net::run_campaign(config, strategies, op_.campaign_seed);
          full_ms += span.close();
        }
        incidents += static_cast<double>(monitor.incidents());
        const BlockLogCounts counts = count_block_log(log_path());
        std::filesystem::remove(log_path());
        bytes += static_cast<double>(counts.bytes);
        records += static_cast<double>(counts.records);
      }
      op_span.close();
      blocks += static_cast<double>(op_.blocks);
      if (!same_campaign(result_bare, results_[k]) ||
          !same_campaign(result_monitor, results_[k]) ||
          !same_campaign(result_full, results_[k]))
        problems.push_back("campaign op " + std::to_string(k) +
                           ": bare / monitor / log reruns differ");
      // Direct calls into the round's two layers on this pool.
      support::Rng rng(op_.campaign_seed);
      const auto records_admitted = net::admit_requests(
          strategies, bare.policy, op_.prices, rng);
      std::vector<chain::Allocation> allocations;
      for (const auto& record : records_admitted)
        allocations.push_back(record.granted);
      chain::RaceConfig race;
      race.fork_rate = op_.params.fork_rate;
      {
        ScopedSpan span(spans, "offload.admit", op);
        for (const double us : repeat_us(reps, [&] {
               (void)net::admit_requests(strategies, bare.policy, op_.prices,
                                         rng);
             }))
          admit_us.push_back(us);
      }
      {
        ScopedSpan span(spans, "race", op);
        for (const double us : repeat_us(reps, [&] {
               (void)chain::run_race(allocations, race, rng);
             }))
          race_us.push_back(us);
      }
      std::unique_ptr<core::FollowerOracle> oracle;
      {
        ScopedSpan span(spans, "build", op);
        oracle = core::make_profile_oracle(op_.params, op_.budgets, op_.mode,
                                           context());
        build_ms.push_back(span.close());
      }
      sample_point(*oracle, op_.params, op_.prices, reps, spans, op, point);
      work += counted([&](support::Telemetry*) {
        (void)oracle->solve(op_.prices);
      });
    }
    using support::prof::WorkField;
    const double n = static_cast<double>(ops);
    report_point_samples(point, layers);
    layers.set("build.ms", mean(build_ms), ops);
    layers.set("build.classes", mean_pool(traced), ops);
    layers.set("follower.sweeps",
               static_cast<double>(work[WorkField::kSweeps]) / n, ops);
    layers.set("follower.best_response_evals",
               static_cast<double>(work[WorkField::kBestResponseEvals]) / n,
               ops);
    layers.set("campaign_round.us_per_block", bare_ms * 1e3 / blocks, ops);
    layers.set("offload.admit_us", mean(admit_us), admit_us.size());
    layers.set("race.us", mean(race_us), race_us.size());
    layers.set("campaign.equilibrium_ms",
               spans.total_ms("campaign.equilibrium") / n, ops);
    layers.set("monitor.us_per_block", (monitor_ms - bare_ms) * 1e3 / blocks,
               ops);
    layers.set("monitor.incidents", incidents, ops);
    layers.set("blocklog.us_per_block", (full_ms - monitor_ms) * 1e3 / blocks,
               ops);
    layers.set("blocklog.bytes_per_block", bytes / records, ops);
    const double traced_op_ms =
        spans.total_ms("campaign.equilibrium") + full_ms;
    layers.set("trace.overhead_pct",
               100.0 * (traced_op_ms - timed_ms) / timed_ms, ops);
  }

 private:
  static core::SolveContext context() {
    core::SolveContext context;
    context.threads = 1;
    return context;
  }
  static net::CampaignMonitorOptions monitor_options() {
    net::CampaignMonitorOptions options;
    options.action = support::health::WatchdogAction::kObserve;
    return options;
  }
  std::string log_path() const { return (work_dir_ / "blocklog.jsonl").string(); }

  /// What run_campaign_at_equilibrium installs before its campaign.
  void install_reference(net::CampaignMonitor& monitor,
                         chain::BlockLogWriter* log,
                         const std::vector<core::MinerRequest>& strategies) const {
    const bool connected = op_.mode == core::EdgeMode::kConnected;
    const double edge_success = connected ? op_.params.edge_success : 1.0;
    monitor.set_reference(strategies, op_.mode, op_.params.fork_rate,
                          edge_success);
    if (log == nullptr) return;
    std::vector<chain::Allocation> requests;
    for (const auto& request : strategies)
      requests.push_back({request.edge, request.cloud});
    log->write_reference(connected ? "connected" : "standalone",
                         op_.params.fork_rate, edge_success, requests);
  }

  void open_sinks() {
    monitor_.reset();
    log_.reset();
    monitor_sink_ = std::make_unique<support::Telemetry>();
    monitor_.emplace(*monitor_sink_, monitor_options());
    log_.emplace(log_path(), &manifest_);
  }
  void close_sinks() { log_.reset(); }

  double mean_pool(const std::vector<std::size_t>& ops) const {
    double total = 0.0;
    for (const std::size_t k : ops)
      total += static_cast<double>(make_campaign_op(seed_, k).budgets.size());
    return total / static_cast<double>(ops.size());
  }

  std::uint64_t seed_;
  std::filesystem::path work_dir_;
  const support::provenance::RunManifest& manifest_;
  CampaignOp op_;
  bool warm_up_ = false;
  std::unique_ptr<support::Telemetry> monitor_sink_;
  std::optional<net::CampaignMonitor> monitor_;
  std::optional<chain::BlockLogWriter> log_;
  net::EquilibriumCampaignResult run_;
  std::vector<net::CampaignResult> results_;  ///< every timed campaign
};

// --- command line ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::vector<double> setup_samples;
  std::string reference_dir = "perfbench/reference";
  std::string work_dir = ".bench_build/run";
  std::string trace_out;
  std::string make_reference;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "hecmine_perfbench: " << problem
            << "\nusage: hecmine_perfbench --workload "
               "<price-symmetric|price-profile|pool-scale|campaign-live> "
               "--seed N --seconds S --trace 0|1 [--reference-dir D] "
               "[--work-dir D] [--trace-out F] [--setup-samples a,b] "
               "[--setup-only]\n       hecmine_perfbench --make-reference D\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      options.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--setup-samples") {
        std::istringstream list(value);
        for (std::string item; std::getline(list, item, ',');)
          if (!item.empty()) options.setup_samples.push_back(std::stod(item));
      } else if (flag == "--reference-dir") {
        options.reference_dir = value;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else if (flag == "--make-reference") {
        options.make_reference = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (options.make_reference.empty()) {
    if (!parse_workload(options.workload)) usage("unknown or missing --workload");
    if (!have_seed) usage("missing --seed");
    if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  }
  return options;
}

std::string catalogue_path(const std::string& dir, Workload workload) {
  return dir + "/" + workload_name(workload) + ".tsv";
}

/// Regenerates the reference catalogues: each game solved with its
/// workload's settings, the answer recorded next to the inputs.
int make_reference(const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const Workload workload :
       {Workload::kPriceSymmetric, Workload::kPriceProfile}) {
    std::vector<Game> games = generate_catalogue(workload, kCatalogueSeed);
    for (Game& game : games) {
      std::optional<core::FollowerEquilibriumCache> cache;
      if (workload == Workload::kPriceSymmetric) cache.emplace();
      const auto result = solve_game(workload, game, workload_threads(workload),
                                     cache ? &*cache : nullptr);
      game.ref_value = result.profits.edge + result.profits.cloud;
      game.ref_prices = result.prices;
      const double worst = core::worst_violation(audit_game(game, result));
      if (!result.converged || !result.followers.converged ||
          !(worst <= kAuditTolerance))
        std::cerr << workload_name(workload) << " game " << game.id
                  << " does not pass its checks (worst " << worst << ")\n";
    }
    write_catalogue(catalogue_path(dir, workload), workload, games);
    std::cout << "wrote " << games.size() << " games to "
              << catalogue_path(dir, workload) << "\n";
  }
  return 0;
}

void print_result_line(bool correct, const OpTally& tally,
                       const MetricTable& metrics) {
  std::ostringstream line;
  support::json::Writer writer(line);
  writer.begin_object();
  writer.member("correct", correct);
  writer.member("attempted", tally.attempted);
  writer.member("failed", tally.failed);
  writer.key("metrics");
  writer.begin_object();
  for (const Metric& metric : metrics.all()) {
    writer.key(metric.name);
    writer.begin_object();
    writer.member("value", metric.value);
    writer.member("unit", metric.unit);
    writer.end_object();
  }
  writer.end_object();
  writer.end_object();
  writer.finish();
  std::cout << line.str() << std::flush;
}

int run(int argc, char** argv, Clock::time_point process_start) {
  const Options options = parse_options(argc, argv);
  if (!options.make_reference.empty()) return make_reference(options.make_reference);
  const Workload workload = *parse_workload(options.workload);
  const int threads = workload_threads(workload);
  support::provenance::RunManifest manifest =
      support::provenance::collect(threads, options.seed, argc, argv);

  // Input generation before the first op is excluded from setup_s.
  double excluded_ms = 0.0;
  auto generation = Clock::now();
  std::unique_ptr<Runner> runner;
  switch (workload) {
    case Workload::kPriceSymmetric:
    case Workload::kPriceProfile:
      runner = std::make_unique<LeaderRunner>(
          workload,
          read_catalogue(catalogue_path(options.reference_dir, workload)),
          options.seed);
      break;
    case Workload::kPoolScale:
      runner = std::make_unique<PoolRunner>(options.seed);
      break;
    case Workload::kCampaignLive:
      std::filesystem::create_directories(options.work_dir);
      runner = std::make_unique<CampaignRunner>(options.seed, options.work_dir,
                                                manifest);
      break;
  }
  runner->prepare_warm_up();
  excluded_ms += ms_since(generation);

  // Set-up: one untimed warm-up op on the canonical input (thread pool
  // start, first touch of large buffers, block-log file open) ...
  (void)runner->run();
  std::vector<std::string> problems;
  if (const std::string problem = runner->self_check(); !problem.empty())
    problems.push_back(problem);
  const auto loop_start = Clock::now();
  generation = Clock::now();
  runner->prepare(0);
  excluded_ms += ms_since(generation);
  // ... and ends where the first timed op starts.
  const double setup_s =
      (std::chrono::duration<double, std::milli>(Clock::now() - process_start)
           .count() -
       excluded_ms) *
      1e-3;

  std::cout << "perfbench workload=" << workload_name(workload)
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << " threads=" << threads
            << " nproc=" << std::thread::hardware_concurrency() << "\n";
  std::cout << "provenance " << support::provenance::to_json(manifest) << "\n";
  if (options.setup_only) {
    std::cout << "{\"setup_s\": " << setup_s << "}\n";
    return problems.empty() ? 0 : 3;
  }

  // The closed loop: ops back to back, each checked; ends on the first
  // whole cycle after --seconds (or, as a guard, at 4x --seconds).
  const std::size_t cycle = cycle_length(workload);
  std::vector<OpRecord> records;
  OpTally tally;
  std::size_t failures_shown = 0;
  for (std::size_t op = 0;; ++op) {
    if (op > 0) runner->prepare(op);
    OpRecord record;
    Verdict verdict;
    const auto start = Clock::now();
    try {
      record.ms = runner->run();
      record.blocks = runner->blocks();
      verdict = runner->check();
    } catch (const std::exception& error) {
      record.ms = ms_since(start);
      verdict = {false, std::string("threw: ") + error.what()};
    }
    record.ok = verdict.ok;
    tally.record(verdict.ok);
    records.push_back(record);
    if (!verdict.ok && failures_shown++ < 10)
      std::cout << "op " << op << " FAILED: " << verdict.reason << "\n";
    const double elapsed_s = ms_since(loop_start) * 1e-3;
    if (((op + 1) % cycle == 0 && elapsed_s >= options.seconds) ||
        elapsed_s >= 4.0 * options.seconds)
      break;
  }
  const double peak_rss = peak_rss_mib();

  std::vector<double> op_ms;
  double timed_ms = 0.0;
  double blocks = 0.0;
  for (const OpRecord& record : records) {
    op_ms.push_back(record.ms);
    timed_ms += record.ms;
    blocks += record.blocks;
  }
  std::vector<double> setup_samples = options.setup_samples;
  setup_samples.push_back(setup_s);
  const std::uint64_t n = records.size();
  MetricTable end_to_end;
  end_to_end.set("setup_s", quantile(setup_samples, 0.5), "s",
                 setup_samples.size());
  end_to_end.set("equilibrium_ms_p50", quantile(op_ms, 0.5), "ms", n);
  end_to_end.set("equilibria_per_s", static_cast<double>(n) / (timed_ms * 1e-3),
                 "1/s", n);
  end_to_end.set("peak_rss_mb", peak_rss, "MiB", 1);
  // Reported but not part of the result line: they do not exist on every
  // workload or can be zero (see README).
  MetricTable extra;
  if (tail_reportable(n, 0.9))
    extra.set("equilibrium_ms_p90", quantile(op_ms, 0.9), "ms", n);
  if (workload == Workload::kCampaignLive)
    extra.set("blocks_per_s", blocks / (timed_ms * 1e-3), "1/s", n);
  extra.set("failed_frac", tally.failed_frac(), "ratio", n);

  std::cout << "\n";
  end_to_end.print(std::cout, "end-to-end (closed loop, 1 caller, no sink)");
  extra.print(std::cout, "end-to-end, not gated");

  LayerMetrics layers;
  if (options.trace) {
    SpanRecorder spans;
    runner->traced_pass(records, spans, layers, problems);
    layers.table().print(std::cout, "per-layer (traced and counted passes)");
    if (!options.trace_out.empty()) {
      std::filesystem::path path(options.trace_out);
      if (path.has_parent_path())
        std::filesystem::create_directories(path.parent_path());
      spans.write_chrome_trace(options.trace_out, manifest);
      std::cout << "trace: " << options.trace_out << " ("
                << spans.spans().size() << " spans)\n";
    }
  }
  for (const std::string& problem : problems)
    std::cout << "CHECK FAILED: " << problem << "\n";
  const bool correct = problems.empty() && tally.failed == 0;
  print_result_line(correct, tally,
                    options.trace ? layers.table() : end_to_end);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  try {
    return perfbench::run(argc, argv, process_start);
  } catch (const std::exception& error) {
    std::cerr << "hecmine_perfbench: " << error.what() << "\n";
    return 1;
  }
}
