#include "obs/metrics.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace asyncmr::obs {

namespace {

/// Shortest representation that round-trips: integers stay integers.
void AppendNumber(std::ostream& os, double v) {
  char buf[32];
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  os << buf;
}

void AppendEscaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
}

void AppendDoubles(std::ostream& os, const std::vector<double>& xs) {
  os << '[';
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i) os << ',';
    AppendNumber(os, xs[i]);
  }
  os << ']';
}

}  // namespace

size_t MetricsRegistry::AddProbe(std::string name, std::function<double()> fn) {
  Probe p;
  p.name = std::move(name);
  p.fn = std::move(fn);
  // Late registration: pad so the series stays aligned with the time axis.
  p.values.assign(sample_times_.size(), 0.0);
  probes_.push_back(std::move(p));
  return probes_.size() - 1;
}

void MetricsRegistry::RemoveProbe(size_t id) {
  AMR_CHECK(id < probes_.size());
  probes_[id].fn = nullptr;
}

Histogram* MetricsRegistry::AddHistogram(const std::string& name,
                                         Histogram proto) {
  for (auto& h : histograms_) {
    if (h->name == name) return &h->hist;
  }
  histograms_.push_back(
      std::make_unique<HistEntry>(HistEntry{name, std::move(proto)}));
  return &histograms_.back()->hist;
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  for (const auto& h : histograms_) {
    if (h->name == name) return &h->hist;
  }
  return nullptr;
}

void MetricsRegistry::Sample(double t_s) {
  sample_times_.push_back(t_s);
  for (Probe& p : probes_) {
    if (p.fn) {
      p.values.push_back(p.fn());
    } else {
      p.values.push_back(p.values.empty() ? 0.0 : p.values.back());
    }
  }
}

double MetricsRegistry::LastValue(const std::string& series) const {
  for (const Probe& p : probes_) {
    if (p.name == series) {
      AMR_CHECK(!p.values.empty()) << "series never sampled: " << series;
      return p.values.back();
    }
  }
  AMR_CHECK(false) << "unknown series: " << series;
  return 0.0;
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  os << "{\"schema_version\":2,\"t\":";
  AppendDoubles(os, sample_times_);
  os << ",\"series\":{";
  for (size_t i = 0; i < probes_.size(); ++i) {
    if (i) os << ',';
    os << '"';
    AppendEscaped(os, probes_[i].name);
    os << "\":";
    AppendDoubles(os, probes_[i].values);
  }
  os << "},\"histograms\":{";
  for (size_t i = 0; i < histograms_.size(); ++i) {
    if (i) os << ',';
    const Histogram& h = histograms_[i]->hist;
    os << '"';
    AppendEscaped(os, histograms_[i]->name);
    os << "\":{\"bounds\":";
    AppendDoubles(os, h.bounds());
    os << ",\"counts\":[";
    for (size_t b = 0; b < h.num_buckets(); ++b) {
      if (b) os << ',';
      os << h.bucket_count(b);
    }
    os << "],\"total\":" << h.total();
    os << ",\"min\":";
    AppendNumber(os, h.min_seen());
    os << ",\"max\":";
    AppendNumber(os, h.max_seen());
    os << ",\"p50\":";
    AppendNumber(os, h.Percentile(50));
    os << ",\"p95\":";
    AppendNumber(os, h.Percentile(95));
    os << ",\"p99\":";
    AppendNumber(os, h.Percentile(99));
    os << '}';
  }
  os << "}}";
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

Status MetricsRegistry::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Unavailable("cannot open metrics file: " + path);
  WriteJson(out);
  out.flush();
  if (!out) return Status::DataLoss("short write to metrics file: " + path);
  return Status::Ok();
}

}  // namespace asyncmr::obs
