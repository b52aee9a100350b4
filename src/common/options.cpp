#include "common/options.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "common/logging.hpp"
#include "common/string_util.hpp"

namespace asyncmr {

std::optional<std::string> GetEnv(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

double GetEnvDouble(const std::string& name, double fallback) {
  auto v = GetEnv(name);
  if (!v) return fallback;
  try {
    return std::stod(*v);
  } catch (...) {
    return fallback;
  }
}

int64_t GetEnvInt(const std::string& name, int64_t fallback) {
  auto v = GetEnv(name);
  if (!v) return fallback;
  try {
    return std::stoll(*v);
  } catch (...) {
    return fallback;
  }
}

bool GetEnvBool(const std::string& name, bool fallback) {
  auto v = GetEnv(name);
  if (!v) return fallback;
  const std::string lower = ToLower(*v);
  if (lower == "1" || lower == "true" || lower == "yes" || lower == "on") return true;
  if (lower == "0" || lower == "false" || lower == "no" || lower == "off") return false;
  return fallback;
}

namespace {

void ApplyLogLevel(const std::string& name) {
  const auto level = ParseLogLevel(name);
  if (level.has_value()) {
    Logger::Get().set_level(*level);
  } else {
    AMR_LOG_WARN << "ignoring unknown log level '" << name << "'";
  }
}

}  // namespace

BenchOptions BenchOptions::FromEnv() {
  BenchOptions opts;
  opts.scale = GetEnvDouble("AMR_SCALE", 1.0);
  if (opts.scale <= 0) opts.scale = 1.0;
  opts.seed = static_cast<uint64_t>(GetEnvInt("AMR_SEED", 42));
  opts.csv = GetEnvBool("AMR_CSV", false);
  opts.trace_out = GetEnv("AMR_TRACE_OUT").value_or("");
  opts.metrics_out = GetEnv("AMR_METRICS_OUT").value_or("");
  opts.metrics_interval_s = GetEnvDouble("AMR_METRICS_INTERVAL", 1.0);
  if (opts.metrics_interval_s <= 0) opts.metrics_interval_s = 1.0;
  if (auto level = GetEnv("AMR_LOG_LEVEL")) ApplyLogLevel(*level);
  return opts;
}

BenchOptions BenchOptions::FromEnv(int argc, char** argv) {
  BenchOptions opts = FromEnv();
  // "--flag=value" or "--flag value"; takes the value, returns nullopt when
  // arg does not start with the flag.
  auto flag_value = [&](std::string_view arg, std::string_view flag,
                        int& i) -> std::optional<std::string> {
    if (arg.substr(0, flag.size()) != flag) return std::nullopt;
    const std::string_view rest = arg.substr(flag.size());
    if (rest.size() > 1 && rest[0] == '=') return std::string(rest.substr(1));
    if (rest.empty() && i + 1 < argc) return std::string(argv[++i]);
    return std::nullopt;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (auto level = flag_value(arg, "--log-level", i)) {
      ApplyLogLevel(*level);
    } else if (auto trace = flag_value(arg, "--trace-out", i)) {
      opts.trace_out = *trace;
    } else if (auto metrics = flag_value(arg, "--metrics-out", i)) {
      opts.metrics_out = *metrics;
    } else if (auto interval = flag_value(arg, "--metrics-interval", i)) {
      try {
        opts.metrics_interval_s = std::stod(*interval);
      } catch (...) {
        AMR_LOG_WARN << "ignoring bad --metrics-interval '" << *interval << "'";
      }
      if (opts.metrics_interval_s <= 0) opts.metrics_interval_s = 1.0;
    } else {
      AMR_LOG_WARN << "ignoring unknown argument '" << argv[i] << "'";
    }
  }
  return opts;
}

uint64_t BenchOptions::Scaled(uint64_t paper_value, uint64_t min_value) const {
  const auto scaled = static_cast<uint64_t>(static_cast<double>(paper_value) * scale);
  return std::max(min_value, scaled);
}

}  // namespace asyncmr
