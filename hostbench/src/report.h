// Sample statistics and the JSON report every hostbench mode prints.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace hostbench {

/// Linearly interpolated percentile (q in [0, 1]) of `v`; sorts `v`.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// Marginal cost of one repeated operation: a run that does it k+1 times
/// minus a run that does it once, over k. Launch and teardown cancel.
inline double marginal(double with_k_plus_1, double with_1, int k) {
  return (with_k_plus_1 - with_1) / k;
}

/// Median of the per-pair marginals of paired repetitions.
inline double median_marginal(const std::vector<double>& with_k_plus_1,
                              const std::vector<double>& with_1, int k) {
  std::vector<double> m;
  for (std::size_t i = 0; i < with_k_plus_1.size() && i < with_1.size(); ++i) {
    m.push_back(marginal(with_k_plus_1[i], with_1[i], k));
  }
  return median(m);
}

/// True when `name` follows the metric-name grammar: 1 to 64 characters
/// from [A-Za-z0-9_.-], starting with a letter or digit.
inline bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// Named metrics plus the operation tally of one mode, printed as one JSON
/// object on stdout.
class Report {
 public:
  /// A metric whose name breaks the grammar is dropped and tallied as a
  /// failure, so it can never reach the result unnoticed.
  void add(const std::string& name, double value, const std::string& unit) {
    if (!valid_metric_name(name)) {
      tally(false, "invalid metric name '" + name + "'");
      return;
    }
    metrics_.push_back({name, value, unit});
  }

  /// A timing series: `<name>.p50`, `<name>.p99` and its sample count.
  void add_timing(const std::string& name, std::vector<double> samples,
                  const std::string& unit) {
    add(name + ".p50", percentile(samples, 0.5), unit);
    add(name + ".p99", percentile(samples, 0.99), unit);
    add(name + ".n", static_cast<double>(samples.size()), "count");
  }

  /// Record one checked operation; a failure is kept with its reason.
  void tally(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
    }
  }

  void add_series(const std::string& name, const std::vector<double>& v) {
    series_.push_back({name, v});
  }

  void print() const {
    std::string s = "{\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      s += (i ? ", \"" : "\"") + escape(failures_[i]) + "\"";
    }
    s += "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      s += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
           num(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    s += "}, \"series\": {";
    for (std::size_t i = 0; i < series_.size(); ++i) {
      s += (i ? ", \"" : "\"") + series_[i].name + "\": [";
      for (std::size_t j = 0; j < series_[i].values.size(); ++j) {
        s += (j ? ", " : "") + num(series_[i].values[j]);
      }
      s += "]";
    }
    s += "}}\n";
    std::fputs(s.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  static std::string escape(const std::string& in) {
    std::string out;
    for (const char c : in) {
      if (c == '"' || c == '\\') out += '\\';
      out += (c == '\n') ? ' ' : c;
    }
    return out;
  }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Series {
    std::string name;
    std::vector<double> values;
  };
  std::vector<Metric> metrics_;
  std::vector<Series> series_;
  std::vector<std::string> failures_;
  long attempted_ = 0;
  long failed_ = 0;
};

}  // namespace hostbench
