#include "obs/metrics.h"

#include <sstream>

namespace restorable::obs {

const MetricValue* MetricsSnapshot::find(std::string_view component,
                                         std::string_view metric) const {
  for (const ComponentSnapshot& c : components) {
    if (c.component != component) continue;
    for (const MetricValue& m : c.metrics)
      if (m.name == metric) return &m;
  }
  return nullptr;
}

namespace {
const char* kind_name(MetricValue::Kind k) {
  switch (k) {
    case MetricValue::Kind::kCounter:
      return "counter";
    case MetricValue::Kind::kGauge:
      return "gauge";
    case MetricValue::Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

std::string join_buckets(const std::vector<uint64_t>& buckets) {
  std::string out;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(buckets[i]);
  }
  return out;
}
}  // namespace

void MetricsSnapshot::to_json(
    JsonRows& rows, const std::function<void(JsonRows&)>& tag) const {
  for (const ComponentSnapshot& c : components) {
    for (const MetricValue& m : c.metrics) {
      rows.row();
      if (tag) tag(rows);
      rows.field("component", c.component)
          .field("metric", m.name)
          .field("kind", kind_name(m.kind))
          .field("value", static_cast<int64_t>(m.value));
      if (m.kind == MetricValue::Kind::kHistogram)
        rows.field("sum", m.sum).field("buckets", join_buckets(m.buckets));
    }
  }
}

Table MetricsSnapshot::to_table() const {
  Table t({"component", "metric", "kind", "value", "detail"});
  for (const ComponentSnapshot& c : components) {
    for (const MetricValue& m : c.metrics) {
      std::string detail;
      if (m.kind == MetricValue::Kind::kHistogram) {
        detail = "sum=" + std::to_string(m.sum);
        if (m.value > 0)
          detail += " mean=" + std::to_string(m.sum / static_cast<uint64_t>(
                                                          m.value));
        detail += " buckets=[" + join_buckets(m.buckets) + "]";
      }
      t.add_row(c.component, m.name, kind_name(m.kind), m.value, detail);
    }
  }
  return t;
}

void Registration::release() {
  if (reg_) {
    reg_->remove(id_);
    reg_ = nullptr;
  }
}

Registration MetricsRegistry::add(std::string component, Provider provider) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  entries_.push_back({id, std::move(component), std::move(provider)});
  return Registration(this, id);
}

void MetricsRegistry::remove(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].id == id) {
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.components.reserve(entries_.size());
  for (const Entry& e : entries_) {
    ComponentSnapshot cs;
    cs.component = e.component;
    ComponentBuilder b(&cs);
    e.provider(b);
    snap.components.push_back(std::move(cs));
  }
  return snap;
}

size_t MetricsRegistry::component_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace restorable::obs
