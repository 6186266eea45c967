// Sample statistics and failure accounting of the benchmark.
#pragma once
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (the "type 7" estimator) of `samples`,
/// q in [0, 1]. Requires at least one sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// True when at least `min_beyond` samples lie strictly above the q-th
/// quantile position, i.e. samples * (1 - q) >= min_beyond. A percentile is
/// reported only then; p90 therefore needs 100 samples.
[[nodiscard]] bool tail_reportable(std::size_t samples, double q,
                                   std::size_t min_beyond = 10);

/// Attempted/failed operation counts. Every attempted op is recorded once;
/// failed ops stay in the timings.
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) noexcept {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double failed_frac() const noexcept {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Peak resident set size of this process image so far (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mib();

/// 64-bit mix of a seed and a stream index (splitmix64 finalizer); gives
/// each op its own reproducible input stream.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed,
                                     std::uint64_t stream) noexcept;

}  // namespace perfbench
