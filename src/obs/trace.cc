#include "obs/trace.h"

namespace restorable::obs {

namespace {
void escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}
}  // namespace

Tracer::Tracer(Sink sink, Config cfg)
    : every_(cfg.sample_every ? cfg.sample_every : 1), sink_(std::move(sink)) {}

std::string Tracer::to_jsonl(const QueryTrace& trace) {
  std::string line;
  line += "{\"trace\": " + std::to_string(trace.id()) + ", \"spans\": [";
  const auto& spans = trace.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    if (i) line += ", ";
    line += "{\"id\": " + std::to_string(i);
    line += ", \"parent\": " + std::to_string(s.parent);
    line += ", \"name\": \"";
    escape_into(line, s.name);
    line += "\", \"start_ns\": " + std::to_string(s.start_ns);
    line += ", \"dur_ns\": " + std::to_string(s.dur_ns);
    if (!s.attrs.empty()) {
      line += ", \"attrs\": {";
      for (size_t a = 0; a < s.attrs.size(); ++a) {
        if (a) line += ", ";
        line += '"';
        escape_into(line, s.attrs[a].first);
        line += "\": \"";
        escape_into(line, s.attrs[a].second);
        line += '"';
      }
      line += '}';
    }
    line += '}';
  }
  line += "]}";
  return line;
}

void Tracer::finish(std::unique_ptr<QueryTrace> trace) {
  if (!trace) return;
  emitted_.fetch_add(1, std::memory_order_relaxed);
  if (!sink_) return;
  std::lock_guard<std::mutex> lock(mu_);
  sink_(*trace);
}

}  // namespace restorable::obs
