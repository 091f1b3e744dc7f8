#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace bento::obs {

Registry& registry() {
  static Registry instance;
  return instance;
}

Counter Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    auto cell = std::make_unique<CounterCell>();
    cell->name = std::string(name);
    it = counters_.emplace(std::string(name), std::move(cell)).first;
  }
  return Counter(it->second.get());
}

Gauge Registry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    auto cell = std::make_unique<GaugeCell>();
    cell->name = std::string(name);
    it = gauges_.emplace(std::string(name), std::move(cell)).first;
  }
  return Gauge(it->second.get());
}

Histogram Registry::histogram(std::string_view name,
                              std::span<const std::int64_t> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) {
      throw std::invalid_argument("Registry::histogram: empty bucket bounds");
    }
    if (!std::is_sorted(bounds.begin(), bounds.end()) ||
        std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end()) {
      throw std::invalid_argument(
          "Registry::histogram: bounds must be strictly ascending");
    }
    auto cell = std::make_unique<HistogramCell>();
    cell->name = std::string(name);
    cell->bounds.assign(bounds.begin(), bounds.end());
    cell->buckets.assign(bounds.size() + 1, 0);
    it = histograms_.emplace(std::string(name), std::move(cell)).first;
  }
  return Histogram(it->second.get());
}

void Registry::reset() {
  for (auto& [name, cell] : counters_) cell->value = 0;
  for (auto& [name, cell] : gauges_) {
    cell->value = 0;
    cell->high_water = std::numeric_limits<std::int64_t>::min();
  }
  for (auto& [name, cell] : histograms_) {
    std::fill(cell->buckets.begin(), cell->buckets.end(), 0);
    cell->count = 0;
    cell->sum = 0;
    cell->min = std::numeric_limits<std::int64_t>::max();
    cell->max = std::numeric_limits<std::int64_t>::min();
  }
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) snap.counters.push_back(*cell);
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) snap.gauges.push_back(*cell);
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, cell] : histograms_) snap.histograms.push_back(*cell);
  return snap;
}

std::string Snapshot::to_string() const {
  std::ostringstream os;
  os << "=== metrics snapshot ===\n";
  if (!counters.empty()) {
    os << "counters:\n";
    for (const auto& c : counters) os << "  " << c.name << " = " << c.value << "\n";
  }
  if (!gauges.empty()) {
    os << "gauges:\n";
    for (const auto& g : gauges) {
      os << "  " << g.name << " = " << g.value;
      if (g.high_water != std::numeric_limits<std::int64_t>::min()) {
        os << " (high-water " << g.high_water << ")";
      }
      os << "\n";
    }
  }
  for (const auto& h : histograms) {
    os << "histogram " << h.name << ": count=" << h.count;
    if (h.count > 0) {
      os << " sum=" << h.sum << " min=" << h.min << " max=" << h.max
         << " mean=" << (h.sum / static_cast<std::int64_t>(h.count));
    }
    os << "\n";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      os << "  ";
      if (i == 0) {
        os << "(-inf, " << h.bounds[0] << ")";
      } else if (i == h.bounds.size()) {
        os << "[" << h.bounds.back() << ", +inf)";
      } else {
        os << "[" << h.bounds[i - 1] << ", " << h.bounds[i] << ")";
      }
      os << " = " << h.buckets[i] << "\n";
    }
  }
  for (const auto& section : sections) {
    os << section;
    if (!section.empty() && section.back() != '\n') os << "\n";
  }
  return os.str();
}

namespace {
void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}
}  // namespace

void Snapshot::to_json(std::ostream& os) const {
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) os << ",";
    json_escape(os, counters[i].name);
    os << ":" << counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) os << ",";
    const GaugeCell& g = gauges[i];
    const std::int64_t high =
        g.high_water == std::numeric_limits<std::int64_t>::min() ? 0 : g.high_water;
    json_escape(os, g.name);
    os << ":{\"value\":" << g.value << ",\"high_water\":" << high << "}";
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    if (i > 0) os << ",";
    const HistogramCell& h = histograms[i];
    json_escape(os, h.name);
    os << ":{\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"min\":" << (h.count > 0 ? h.min : 0)
       << ",\"max\":" << (h.count > 0 ? h.max : 0) << ",\"buckets\":[";
    for (std::size_t j = 0; j < h.buckets.size(); ++j) {
      if (j > 0) os << ",";
      // [upper_bound, count]; the final overflow bucket has a null bound.
      os << "[";
      if (j < h.bounds.size()) {
        os << h.bounds[j];
      } else {
        os << "null";
      }
      os << "," << h.buckets[j] << "]";
    }
    os << "]}";
  }
  os << "},\"sections\":[";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (i > 0) os << ",";
    json_escape(os, sections[i]);
  }
  os << "]}\n";
}

}  // namespace bento::obs
