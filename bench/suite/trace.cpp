#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "json/json.hpp"

namespace fbench {

namespace {

using cosmo::telemetry::Tracer;

/// Span names that mark an end-to-end op.
constexpr const char kOpPrefix[] = "op.";

void append_event(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void append_event(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (!out.empty()) out.push_back(',');
  out.append(buf, static_cast<std::size_t>(std::clamp(n, 0, static_cast<int>(sizeof(buf)) - 1)));
}

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

}  // namespace

void Trace::start(std::size_t ring_spans) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    given_.clear();
  }
  Tracer::enable(ring_spans);
  start_ = Clock::now();
  active_.store(true);
}

void Trace::stop() {
  active_.store(false);
  Tracer::disable();
}

void Trace::record_op(const char* name, Clock::time_point start, Clock::time_point end,
                      std::map<std::string, double> rows) {
  if (!active()) return;
  OpBreakdown op{name, seconds(start - start_), seconds(end - start), std::move(rows)};
  double given = 0.0;
  for (const auto& [row, s] : op.rows) given += s;
  op.rows["unattributed"] = op.wall_s - given;
  std::lock_guard<std::mutex> lock(mu_);
  given_.push_back(std::move(op));
}

TraceReport Trace::analyze() const {
  TraceReport report;
  std::string events;
  std::vector<SpanRec> all;
  for (const auto& s : Tracer::snapshot()) {
    all.push_back({s.name, s.tid, s.start_ns, s.end_ns});
    append_event(events,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"depth\":%u}}",
                 s.name, s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3, s.tid, s.depth);
  }
  report.spans = all.size();
  report.totals = fold_spans(all);

  const auto add_op = [&](OpBreakdown op) {
    double sum = 0.0;
    for (const auto& [name, s] : op.rows) sum += s;
    if (std::fabs(sum - op.wall_s) > 0.05 * op.wall_s ||
        op.rows["unattributed"] < -0.05 * op.wall_s) {
      ++report.unbalanced_ops;
    }
    report.ops_wall_s += op.wall_s;
    report.ops.push_back(std::move(op));
  };

  // Spans per thread in start order (the snapshot's), so each op only
  // scans its own window.
  std::map<std::uint32_t, std::vector<SpanRec>> by_tid;
  for (const SpanRec& s : all) by_tid[s.tid].push_back(s);
  const auto by_start = [](const SpanRec& s, std::uint64_t t) { return s.start_ns < t; };
  for (const SpanRec& s : all) {
    if (s.name.rfind(kOpPrefix, 0) != 0) continue;
    const std::vector<SpanRec>& list = by_tid.at(s.tid);
    const auto lo = std::lower_bound(list.begin(), list.end(), s.start_ns, by_start);
    const auto hi = std::lower_bound(lo, list.end(), s.end_ns, by_start);
    add_op({s.name, s.start_ns * 1e-9, (s.end_ns - s.start_ns) * 1e-9,
            attribute_op(s, std::vector<SpanRec>(lo, hi))});
  }

  // Ops handed over whole appear as async events from their start to end.
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < given_.size(); ++i) {
    const OpBreakdown& g = given_[i];
    for (const char phase : {'b', 'e'}) {
      append_event(events,
                   "{\"name\":\"%s\",\"cat\":\"op\",\"ph\":\"%c\",\"id\":%zu,\"ts\":%.3f,"
                   "\"pid\":2,\"tid\":0}",
                   g.name.c_str(), phase, i + 1,
                   (phase == 'b' ? g.start_s : g.start_s + g.wall_s) * 1e6);
    }
    add_op(g);
  }

  cosmo::json::Array ops;
  for (const OpBreakdown& op : report.ops) {
    cosmo::json::Object rows;
    for (const auto& [name, s] : op.rows) rows[name] = s * 1e3;
    ops.push_back(cosmo::json::Object{{"name", op.name},
                                      {"start_ms", op.start_s * 1e3},
                                      {"wall_ms", op.wall_s * 1e3},
                                      {"rows_ms", std::move(rows)}});
  }
  report.chrome_json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[" + events +
                       "],\"otherData\":{\"dropped_spans\":" +
                       std::to_string(Tracer::dropped()) +
                       "},\"ops\":" + cosmo::json::Value(std::move(ops)).dump() + "}";
  return report;
}

}  // namespace fbench
