// In-memory span recorder for the traced pass. Spans are recorded from the
// benchmark's own code around calls into the library's layers, kept in
// memory, and written once at exit as Chrome Trace Event JSON in the shape
// hecmine_prof reads (complete "X" events; args carry id, parent and op).
#pragma once
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "support/provenance.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;  ///< since recorder construction
    double end_us = 0.0;
    int parent = -1;        ///< index of the enclosing open span, or -1
    long op = -1;           ///< op id the span belongs to
    [[nodiscard]] double ms() const noexcept {
      return (end_us - start_us) * 1e-3;
    }
  };

  /// Opens a span nested under the innermost open one.
  [[nodiscard]] int begin(std::string name, long op);
  /// Closes span `id` and returns its duration in milliseconds.
  double end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Sum of the durations of every closed span named `name`, in ms.
  [[nodiscard]] double total_ms(const std::string& name) const;

  /// Writes {"traceEvents": [...], "manifest": {...}} to `path`.
  void write_chrome_trace(
      const std::string& path,
      const hecmine::support::provenance::RunManifest& manifest) const;

 private:
  [[nodiscard]] double now_us() const;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: begin at construction, end at destruction or at close().
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, long op)
      : recorder_(recorder), id_(recorder.begin(std::move(name), op)) {}
  ~ScopedSpan() {
    if (id_ >= 0) recorder_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Ends the span now and returns its duration in ms.
  double close() {
    const double ms = recorder_.end(id_);
    id_ = -1;
    return ms;
  }

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace perfbench
