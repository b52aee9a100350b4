// MetricsRegistry: sampled gauges ("probes") and histograms, serialized as one
// time-series JSON document.
//
// The registry stores no counters of its own: a counter lives in the struct
// its owner returns (e.g. async::AsyncResult), and a probe reading it is how
// it reaches the time series. Probes are callbacks read on every Sample(t) —
// the engine schedules Sample on a configurable virtual-time cadence, so the
// series axis is DES time, not host time. Histograms are
// distribution summaries (e.g. staleness lag at update-apply time) recorded
// whenever the instrumented event fires, independent of the sample cadence.
//
// Probes are sampled in registration order; a probe may therefore cache a
// cross-cutting intermediate (say, the min worker clock) for probes registered
// after it within the same Sample call.
//
// Like TraceSink, everything here is reached through a nullable pointer at the
// instrumentation sites: a null registry costs one branch and nothing else.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/status.hpp"

namespace asyncmr::obs {

class MetricsRegistry {
 public:
  /// Registers a gauge sampled on every Sample() call. Returns a handle for
  /// RemoveProbe. The callback must stay valid until removed.
  size_t AddProbe(std::string name, std::function<double()> fn);

  /// Detaches a probe's callback (its recorded series is kept). Instrumented
  /// objects that die before the registry must remove their probes.
  void RemoveProbe(size_t id);

  /// Get-or-create a histogram; `proto` supplies the bucket bounds on first
  /// registration and is ignored afterwards. The returned pointer stays valid
  /// for the registry's lifetime (entries are individually heap-allocated).
  Histogram* AddHistogram(const std::string& name, Histogram proto);

  /// Looks up an existing histogram, or nullptr.
  const Histogram* FindHistogram(const std::string& name) const;

  /// Takes one sample row at virtual time t_s: reads every live probe, in
  /// registration order, into its series. Detached probes repeat their last
  /// value so all series stay aligned with the time axis.
  void Sample(double t_s);

  size_t num_samples() const { return sample_times_.size(); }
  size_t num_series() const { return probes_.size(); }

  /// Last sampled value of a series (test convenience). CHECK-fails on an
  /// unknown name or an empty series.
  double LastValue(const std::string& series) const;

  /// {"schema_version":2,"t":[..],"series":{..},
  ///  "histograms":{name:{bounds,counts,total,min,max,p50,p95,p99}}}
  /// Deterministic: registration/insertion order, no host state.
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

 private:
  struct Probe {
    std::string name;
    std::function<double()> fn;  // empty once removed
    std::vector<double> values;
  };
  struct HistEntry {
    std::string name;
    Histogram hist;
  };

  std::vector<Probe> probes_;
  std::vector<std::unique_ptr<HistEntry>> histograms_;
  std::vector<double> sample_times_;
};

}  // namespace asyncmr::obs
