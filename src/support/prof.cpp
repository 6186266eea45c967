#include "support/prof.hpp"

#include <cerrno>
#include <cstring>

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace hecmine::support::prof {

const char* work_field_name(WorkField field) noexcept {
  switch (field) {
    case WorkField::kSweeps:
      return "sweeps";
    case WorkField::kBestResponseEvals:
      return "best_response_evals";
    case WorkField::kUtilityEvals:
      return "utility_evals";
    case WorkField::kGradientEvals:
      return "gradient_evals";
    case WorkField::kBisectionIters:
      return "bisection_iters";
    case WorkField::kProjectionClips:
      return "projection_clips";
    case WorkField::kConvergenceChecks:
      return "convergence_checks";
    case WorkField::kCacheHits:
      return "cache_hits";
    case WorkField::kCacheMisses:
      return "cache_misses";
  }
  return "unknown";
}

ThreadWorkBlock& WorkProfile::local() {
  const std::thread::id tid = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, block] : blocks_)
    if (id == tid) return *block;
  blocks_.emplace_back(tid, std::make_unique<ThreadWorkBlock>());
  return *blocks_.back().second;
}

WorkCounters WorkProfile::total() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  WorkCounters sum;
  for (const auto& [id, block] : blocks_) sum += block->snapshot();
  return sum;
}

int WorkProfile::thread_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(blocks_.size());
}

namespace {
thread_local ThreadWorkBlock* t_current_block = nullptr;
}  // namespace

ThreadWorkBlock* current_block() noexcept { return t_current_block; }

ThreadWorkBlock* exchange_current_block(ThreadWorkBlock* block) noexcept {
  ThreadWorkBlock* previous = t_current_block;
  t_current_block = block;
  return previous;
}

#ifdef __linux__

namespace {

int perf_open_one(std::uint32_t type, std::uint64_t config, int group_fd) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  if (group_fd < 0) attr.disabled = 1;  // leader starts the group disabled
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  // pid=0, cpu=-1: this thread, any CPU.
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0, -1, group_fd, 0));
}

}  // namespace

PerfSampler::~PerfSampler() {
  for (int& fd : fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

bool PerfSampler::open() {
  if (live()) return true;
  struct Event {
    std::uint32_t type;
    std::uint64_t config;
  };
  static constexpr Event kEvents[3] = {
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
  };
  for (std::size_t i = 0; i < 3; ++i) {
    fds_[i] = perf_open_one(kEvents[i].type, kEvents[i].config,
                            i == 0 ? -1 : fds_[0]);
    if (fds_[i] < 0) {
      status_ = std::string("unavailable: ") + std::strerror(errno);
      for (int& fd : fds_) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
      return false;
    }
  }
  ioctl(fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  status_ = "on";
  return true;
}

PerfSample PerfSampler::read() const noexcept {
  PerfSample sample;
  if (!live()) return sample;
  std::uint64_t* slots[3] = {&sample.cycles, &sample.instructions,
                             &sample.cache_misses};
  for (std::size_t i = 0; i < 3; ++i) {
    std::uint64_t value = 0;
    if (::read(fds_[i], &value, sizeof(value)) == sizeof(value))
      *slots[i] = value;
  }
  return sample;
}

#else  // !__linux__

PerfSampler::~PerfSampler() = default;

bool PerfSampler::open() {
  status_ = "unavailable: perf_event_open requires Linux";
  return false;
}

PerfSample PerfSampler::read() const noexcept { return {}; }

#endif

}  // namespace hecmine::support::prof
