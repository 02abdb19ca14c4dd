#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace hostbench {

SpanLog* g_spans = nullptr;

std::vector<double> SpanLog::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const RankBuf& b : ranks_) {
    for (const Span& s : b.spans) {
      if (name == s.name) out.push_back(1e-3 * (s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::int64_t self_time_ns(const std::vector<Span>& spans, int idx) {
  const Span& p = spans[static_cast<std::size_t>(idx)];
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& s : spans) {
    if (s.parent != idx) continue;
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids.emplace_back(lo, hi);
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0;
  std::int64_t reach = p.start_ns;
  for (const auto& [lo, hi] : kids) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return (p.end_ns - p.start_ns) - covered;
}

void append_chrome_events(const SpanLog& log, int pid, std::int64_t origin_ns,
                          std::size_t max_spans, std::string* out,
                          std::size_t* dropped) {
  char buf[320];
  const auto ranks = static_cast<std::size_t>(log.ranks());
  const std::size_t per_rank = std::max<std::size_t>(1, max_spans / ranks);
  for (int r = 0; r < log.ranks(); ++r) {
    const std::vector<Span>& spans = log.spans(r);
    const std::size_t n = std::min(spans.size(), per_rank);
    *dropped += spans.size() - n;
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      // A span's first child is always recorded right after it.
      const bool has_kids =
          i + 1 < spans.size() && spans[i + 1].parent == static_cast<int>(i);
      const std::int64_t self =
          has_kids ? self_time_ns(spans, static_cast<int>(i))
                   : s.end_ns - s.start_ns;
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"rank\":%d,"
                    "\"span\":%zu,\"parent\":%d,\"self_us\":%.3f}}",
                    out->empty() ? "" : ",\n", s.name, pid, r,
                    1e-3 * (s.start_ns - origin_ns),
                    1e-3 * (s.end_ns - s.start_ns), r, i, s.parent,
                    1e-3 * self);
      *out += buf;
    }
  }
}

}  // namespace hostbench
