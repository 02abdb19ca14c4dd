// In-memory span log for the traced run.
//
// The benchmark wraps its own calls into the runtime (MPI calls, phases,
// rounds) in Scope objects. Each rank appends to its own buffer from its
// own task fiber, so recording takes no lock; a fiber that migrates between
// workers is handed over through the scheduler's mutex. With no log
// installed a Scope is one null test.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  // index in the same rank's buffer, -1 for a root
};

class SpanLog {
 public:
  explicit SpanLog(int ranks) : ranks_(static_cast<std::size_t>(ranks)) {}

  int open(int rank, const char* name) {
    RankBuf& b = ranks_[static_cast<std::size_t>(rank)];
    const int idx = static_cast<int>(b.spans.size());
    b.spans.push_back({name, now_ns(), 0, b.open});
    b.open = idx;
    return idx;
  }

  void close(int rank, int idx) {
    RankBuf& b = ranks_[static_cast<std::size_t>(rank)];
    Span& s = b.spans[static_cast<std::size_t>(idx)];
    s.end_ns = now_ns();
    b.open = s.parent;
  }

  int ranks() const { return static_cast<int>(ranks_.size()); }
  const std::vector<Span>& spans(int rank) const {
    return ranks_[static_cast<std::size_t>(rank)].spans;
  }

  /// Durations in microseconds of every span called `name`, all ranks.
  std::vector<double> durations_us(const std::string& name) const;

 private:
  struct RankBuf {
    std::vector<Span> spans;
    int open = -1;
  };
  std::vector<RankBuf> ranks_;
};

/// The log of the launch being traced, or null when spans are off.
extern SpanLog* g_spans;

/// RAII span around a call into the runtime, recorded in the log that was
/// installed when it opened.
class Scope {
 public:
  Scope(int rank, const char* name)
      : log_(g_spans), rank_(rank), idx_(log_ ? log_->open(rank, name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(rank_, idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int rank_;
  int idx_;
};

/// Self time of spans[idx]: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
std::int64_t self_time_ns(const std::vector<Span>& spans, int idx);

/// Append the spans of `log` to a Chrome-trace event list (Perfetto opens
/// it): one process per log, one thread per rank, timestamps relative to
/// `origin_ns`. Each rank writes its first max_spans / ranks spans; the
/// rest are added to *dropped.
void append_chrome_events(const SpanLog& log, int pid, std::int64_t origin_ns,
                          std::size_t max_spans, std::string* out,
                          std::size_t* dropped);

}  // namespace hostbench
