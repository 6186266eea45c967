#include "support/openmetrics.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "support/error.hpp"
#include "support/prof.hpp"

namespace hecmine::support {

namespace {

/// OpenMetrics number: round-trippable decimal, with the format's own
/// non-finite spellings (JSON's `null` degradation does not apply here).
void om_number(std::ostream& os, double value) {
  if (std::isnan(value)) {
    os << "NaN";
    return;
  }
  if (std::isinf(value)) {
    os << (value > 0 ? "+Inf" : "-Inf");
    return;
  }
  std::ostringstream buffer;
  buffer.precision(std::numeric_limits<double>::max_digits10);
  buffer << value;
  os << buffer.str();
}

/// Label values escape backslash, double-quote and newline.
void om_label_value(std::ostream& os, std::string_view text) {
  os << '"';
  for (const char c : text) {
    switch (c) {
      case '\\':
        os << "\\\\";
        break;
      case '"':
        os << "\\\"";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        os << c;
    }
  }
  os << '"';
}

void type_line(std::ostream& os, const std::string& family,
               const char* type) {
  os << "# TYPE " << family << ' ' << type << '\n';
}

[[nodiscard]] bool valid_name_char(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':')
    return true;
  return !first && c >= '0' && c <= '9';
}

}  // namespace

std::string openmetrics_name(std::string_view name) {
  std::string out = "hecmine_";
  for (const char c : name)
    out.push_back(valid_name_char(c, /*first=*/false) ? c : '_');
  return out;
}

std::string render_openmetrics(const Telemetry& telemetry) {
  const MetricsSnapshot snap = telemetry.metrics.snapshot();
  std::ostringstream os;

  for (const CounterSample& counter : snap.counters) {
    const std::string family = openmetrics_name(counter.name);
    type_line(os, family, "counter");
    os << family << "_total " << counter.value << '\n';
  }

  // Deterministic work totals as counters under hecmine_work_*. Emitted
  // before the gauges so families stay grouped by kind; every field is
  // present (zeros included) to keep the document shape seed-stable.
  {
    const prof::WorkCounters work = telemetry.work.total();
    for (std::size_t i = 0; i < prof::kWorkFieldCount; ++i) {
      const auto field = static_cast<prof::WorkField>(i);
      const std::string family =
          openmetrics_name(std::string("work.") + prof::work_field_name(field));
      type_line(os, family, "counter");
      os << family << "_total " << work[field] << '\n';
    }
  }

  for (const GaugeSample& gauge : snap.gauges) {
    const std::string family = openmetrics_name(gauge.name);
    type_line(os, family, "gauge");
    os << family << ' ';
    om_number(os, gauge.value);
    os << '\n';
  }

  for (const HistogramSample& histogram : snap.histograms) {
    const std::string family = openmetrics_name(histogram.name);
    type_line(os, family, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < histogram.edges.size(); ++i) {
      cumulative += i < histogram.counts.size() ? histogram.counts[i] : 0;
      os << family << "_bucket{le=";
      std::ostringstream edge;
      om_number(edge, histogram.edges[i]);
      om_label_value(os, edge.str());
      os << "} " << cumulative << '\n';
    }
    os << family << "_bucket{le=\"+Inf\"} " << histogram.count << '\n';
    os << family << "_count " << histogram.count << '\n';
    os << family << "_sum ";
    om_number(os, histogram.sum);
    os << '\n';
  }

  // Build provenance as an info metric: constant 1 with the identifying
  // fields as labels — the Prometheus idiom for build metadata.
  {
    const provenance::RunManifest& manifest = telemetry.manifest;
    type_line(os, "hecmine_build", "info");
    os << "hecmine_build_info{git_sha=";
    om_label_value(os, manifest.git_sha);
    os << ",build_type=";
    om_label_value(os, manifest.build_type);
    os << ",compiler=";
    om_label_value(os, manifest.compiler);
    os << ",sanitizer=";
    om_label_value(os, manifest.sanitizer);
    os << "} 1\n";
  }

  os << "# EOF\n";
  return os.str();
}

void write_openmetrics(const Telemetry& telemetry, const std::string& path) {
  const std::filesystem::path file_path{path};
  if (file_path.has_parent_path())
    std::filesystem::create_directories(file_path.parent_path());
  std::ofstream out{file_path};
  HECMINE_REQUIRE(out.good(), "cannot open metrics file: " + path);
  out << render_openmetrics(telemetry);
  HECMINE_REQUIRE(out.good(), "failed writing metrics file: " + path);
}

namespace {

struct LintState {
  std::vector<std::string> errors;
  std::map<std::string, std::string> family_type;  ///< family -> type
  std::map<std::string, bool> family_sampled;      ///< samples seen yet?
  // Histogram bookkeeping, per family.
  std::map<std::string, std::uint64_t> last_bucket;
  std::map<std::string, bool> has_inf_bucket;
  std::map<std::string, double> inf_bucket_value;
  std::map<std::string, double> count_value;
  bool saw_eof = false;

  void error(std::size_t line_no, const std::string& message) {
    errors.push_back("line " + std::to_string(line_no) + ": " + message);
  }
};

[[nodiscard]] bool parse_metric_name(std::string_view text, std::size_t& pos) {
  const std::size_t start = pos;
  while (pos < text.size() && valid_name_char(text[pos], pos == start))
    ++pos;
  return pos > start;
}

/// Parses `{name="value",...}`; returns false on malformed labels. On
/// success `le_value` holds the value of an `le` label if present.
[[nodiscard]] bool parse_labels(std::string_view text, std::size_t& pos,
                                std::string* le_value) {
  if (pos >= text.size() || text[pos] != '{') return true;  // no labels
  ++pos;
  bool first = true;
  while (pos < text.size() && text[pos] != '}') {
    if (!first) {
      if (text[pos] != ',') return false;
      ++pos;
    }
    first = false;
    const std::size_t name_start = pos;
    if (!parse_metric_name(text, pos)) return false;
    const std::string label_name(text.substr(name_start, pos - name_start));
    if (pos >= text.size() || text[pos] != '=') return false;
    ++pos;
    if (pos >= text.size() || text[pos] != '"') return false;
    ++pos;
    std::string value;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') {
        ++pos;
        if (pos >= text.size()) return false;
        switch (text[pos]) {
          case '\\':
            value.push_back('\\');
            break;
          case '"':
            value.push_back('"');
            break;
          case 'n':
            value.push_back('\n');
            break;
          default:
            return false;
        }
      } else {
        value.push_back(text[pos]);
      }
      ++pos;
    }
    if (pos >= text.size()) return false;
    ++pos;  // closing quote
    if (label_name == "le" && le_value != nullptr) *le_value = value;
  }
  if (pos >= text.size()) return false;
  ++pos;  // closing brace
  return true;
}

[[nodiscard]] bool parse_number(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return false;
  *out = value;
  return true;
}

/// Maps a sample name to its declared family + the suffix used. Exact
/// match wins (gauge samples); otherwise the known typed suffixes are
/// tried longest-first.
[[nodiscard]] bool resolve_family(const LintState& state,
                                  const std::string& sample,
                                  std::string* family, std::string* suffix) {
  if (state.family_type.count(sample) != 0) {
    *family = sample;
    suffix->clear();
    return true;
  }
  static const char* kSuffixes[] = {"_bucket", "_count", "_total",
                                    "_info", "_sum"};
  for (const char* candidate : kSuffixes) {
    const std::string tail = candidate;
    if (sample.size() > tail.size() &&
        sample.compare(sample.size() - tail.size(), tail.size(), tail) == 0) {
      const std::string base = sample.substr(0, sample.size() - tail.size());
      if (state.family_type.count(base) != 0) {
        *family = base;
        *suffix = tail;
        return true;
      }
    }
  }
  return false;
}

void lint_sample_line(LintState& state, std::size_t line_no,
                      const std::string& line) {
  std::size_t pos = 0;
  const std::size_t name_start = pos;
  if (!parse_metric_name(line, pos)) {
    state.error(line_no, "sample line does not start with a metric name");
    return;
  }
  const std::string sample_name(line.substr(name_start, pos - name_start));
  std::string le_value;
  if (!parse_labels(line, pos, &le_value)) {
    state.error(line_no, "malformed label set on " + sample_name);
    return;
  }
  if (pos >= line.size() || line[pos] != ' ') {
    state.error(line_no, "missing value separator on " + sample_name);
    return;
  }
  ++pos;
  // Value, optionally followed by a timestamp (which we accept and skip).
  const std::size_t value_end = line.find(' ', pos);
  const std::string value_token = line.substr(
      pos, value_end == std::string::npos ? std::string::npos
                                          : value_end - pos);
  double value = 0.0;
  if (!parse_number(value_token, &value)) {
    state.error(line_no,
                "invalid sample value '" + value_token + "' on " + sample_name);
    return;
  }

  std::string family;
  std::string suffix;
  if (!resolve_family(state, sample_name, &family, &suffix)) {
    state.error(line_no, "sample " + sample_name + " has no preceding # TYPE");
    return;
  }
  state.family_sampled[family] = true;
  const std::string& type = state.family_type[family];
  if (type == "counter") {
    if (suffix != "_total" && suffix != "_created")
      state.error(line_no, "counter sample " + sample_name +
                               " must use the _total suffix");
    if (value < 0.0)
      state.error(line_no, "counter " + sample_name + " is negative");
  } else if (type == "gauge") {
    if (!suffix.empty())
      state.error(line_no, "gauge sample " + sample_name +
                               " must not use a typed suffix");
  } else if (type == "info") {
    if (suffix != "_info")
      state.error(line_no,
                  "info sample " + sample_name + " must use the _info suffix");
  } else if (type == "histogram") {
    if (suffix == "_bucket") {
      if (le_value.empty()) {
        state.error(line_no, "histogram bucket " + sample_name +
                                 " is missing the le label");
        return;
      }
      auto last = state.last_bucket.find(family);
      if (last != state.last_bucket.end() &&
          value + 0.5 < static_cast<double>(last->second))
        state.error(line_no, "histogram " + family +
                                 " bucket counts are not cumulative");
      state.last_bucket[family] = static_cast<std::uint64_t>(value);
      if (le_value == "+Inf") {
        state.has_inf_bucket[family] = true;
        state.inf_bucket_value[family] = value;
      }
    } else if (suffix == "_count") {
      state.count_value[family] = value;
    } else if (suffix != "_sum" && suffix != "_created") {
      state.error(line_no, "histogram sample " + sample_name +
                               " must use _bucket/_count/_sum");
    }
  }
}

}  // namespace

std::vector<std::string> lint_openmetrics(std::string_view text) {
  LintState state;
  if (text.empty()) {
    state.errors.push_back("empty document");
    return state.errors;
  }
  if (text.back() != '\n')
    state.errors.push_back("document does not end with a newline");

  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t stop = text.find('\n', start);
    if (stop == std::string_view::npos) stop = text.size();
    const std::string line(text.substr(start, stop - start));
    start = stop + 1;
    ++line_no;
    if (state.saw_eof) {
      state.error(line_no, "content after # EOF");
      continue;
    }
    if (line.empty()) {
      state.error(line_no, "blank line");
      continue;
    }
    if (line[0] == '#') {
      if (line == "# EOF") {
        state.saw_eof = true;
        continue;
      }
      std::istringstream header(line);
      std::string hash, keyword, family, type;
      header >> hash >> keyword;
      if (keyword == "TYPE") {
        header >> family >> type;
        if (family.empty() || type.empty()) {
          state.error(line_no, "malformed # TYPE line");
          continue;
        }
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "info" && type != "stateset" &&
            type != "unknown") {
          state.error(line_no, "unknown metric type '" + type + "'");
          continue;
        }
        if (state.family_type.count(family) != 0) {
          state.error(line_no, "duplicate # TYPE for " + family);
          continue;
        }
        if (state.family_sampled.count(family) != 0)
          state.error(line_no, "# TYPE for " + family + " after its samples");
        state.family_type[family] = type;
      } else if (keyword != "HELP" && keyword != "UNIT") {
        state.error(line_no, "unknown comment keyword '" + keyword + "'");
      }
      continue;
    }
    lint_sample_line(state, line_no, line);
  }

  if (!state.saw_eof) state.errors.push_back("missing # EOF terminator");
  for (const auto& [family, type] : state.family_type) {
    if (type != "histogram") continue;
    if (state.family_sampled.count(family) == 0) continue;
    if (state.has_inf_bucket.count(family) == 0) {
      state.errors.push_back("histogram " + family +
                             " has no le=\"+Inf\" bucket");
      continue;
    }
    auto count = state.count_value.find(family);
    if (count == state.count_value.end()) {
      state.errors.push_back("histogram " + family + " has no _count sample");
    } else if (count->second != state.inf_bucket_value[family]) {
      state.errors.push_back("histogram " + family +
                             " _count disagrees with its +Inf bucket");
    }
  }
  return state.errors;
}

}  // namespace hecmine::support
