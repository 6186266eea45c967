#include "trace.hpp"

#include <fstream>
#include <stdexcept>

#include "support/json.hpp"

namespace perfbench {

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::begin(std::string name, long op) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double SpanRecorder::end(int id) {
  const double now = now_us();
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end_us = now;
  // Spans close innermost-first; tolerate an out-of-order close by
  // dropping the id wherever it sits on the open stack.
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (*it == id) {
      open_.erase(std::next(it).base());
      break;
    }
  }
  return span.ms();
}

double SpanRecorder::total_ms(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_)
    if (span.name == name) total += span.ms();
  return total;
}

void SpanRecorder::write_chrome_trace(
    const std::string& path,
    const hecmine::support::provenance::RunManifest& manifest) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  hecmine::support::json::Writer writer(out);
  writer.begin_object(hecmine::support::json::Writer::kBlock);
  writer.key("traceEvents");
  writer.begin_array(hecmine::support::json::Writer::kBlock);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    writer.begin_object();
    writer.member("name", span.name);
    writer.member("ph", "X");
    writer.member("ts", span.start_us);
    writer.member("dur", span.end_us - span.start_us);
    writer.member("pid", 1);
    writer.member("tid", 1);
    writer.key("args");
    writer.begin_object();
    writer.member("id", static_cast<std::int64_t>(i));
    writer.member("parent", span.parent);
    writer.member("op", static_cast<std::int64_t>(span.op));
    writer.end_object();
    writer.end_object();
  }
  writer.end_array();
  writer.key("manifest");
  hecmine::support::provenance::write(writer, manifest);
  writer.end_object();
  writer.finish();
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
