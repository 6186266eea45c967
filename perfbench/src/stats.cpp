#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile: no samples");
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] + fraction * (samples[upper] - samples[lower]);
}

bool tail_reportable(std::size_t samples, double q, std::size_t min_beyond) {
  // Compare in integers: samples * (1 - q) >= min_beyond, with q given to
  // percent precision so 0.9 does not round 100 samples down to 9.999.
  const auto percent = static_cast<std::size_t>(std::lround(q * 100.0));
  return samples * (100 - percent) >= min_beyond * 100;
}

double peak_rss_mib() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss survives
  // execve, so a child of a larger parent (the Python run.py) would
  // report the parent's peak.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
