// Self-tests of the benchmark's own arithmetic: span self time, the
// marginal-cost subtraction, percentiles and the metric-name grammar.
// Exit code 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <vector>

#include "report.h"
#include "spans.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_self_time() {
  using hostbench::Span;
  using hostbench::self_time_ns;
  // parent [0,100): children [10,30) and [20,50) overlap -> cover 40;
  // [90,120) is clipped to [90,100) -> 10; the grandchild does not count.
  const std::vector<Span> spans = {
      {"parent", 0, 100, -1}, {"a", 10, 30, 0}, {"b", 20, 50, 0},
      {"grandchild", 25, 45, 2}, {"c", 90, 120, 0}, {"other", 0, 100, -1},
  };
  expect(self_time_ns(spans, 0) == 100 - 40 - 10, "self time of parent");
  expect(self_time_ns(spans, 2) == 30 - 20, "self time of b");
  expect(self_time_ns(spans, 1) == 20, "leaf self time is its duration");
  expect(self_time_ns(spans, 5) == 100, "unrelated root has no children");
}

void test_span_log() {
  hostbench::SpanLog log(2);
  hostbench::g_spans = &log;
  {
    hostbench::Scope outer(1, "outer");
    hostbench::Scope inner(1, "inner");
  }
  hostbench::g_spans = nullptr;
  { hostbench::Scope off(0, "off"); }
  expect(log.spans(0).empty(), "no span recorded with the log off");
  expect(log.spans(1).size() == 2 && log.spans(1)[1].parent == 0,
         "nested scope records its parent");
  expect(log.durations_us("inner").size() == 1, "durations by name");
}

void test_marginal() {
  using hostbench::marginal;
  using hostbench::median_marginal;
  // 5 barriers took 0.9 s, 1 barrier took 0.1 s -> 0.2 s per barrier.
  expect(near(marginal(0.9, 0.1, 4), 0.2), "marginal of one pair");
  expect(near(median_marginal({0.9, 1.3, 0.5}, {0.1, 0.1, 0.1}, 4), 0.2),
         "median of per-pair marginals");
}

void test_percentile() {
  std::vector<double> v = {4, 1, 3, 2, 5};
  expect(near(hostbench::percentile(v, 0.5), 3), "p50 of 1..5");
  expect(near(hostbench::percentile(v, 0.99), 4.96), "p99 interpolates");
  expect(near(hostbench::median({2, 1}), 1.5), "median of two");
}

void test_metric_names() {
  using hostbench::valid_metric_name;
  expect(valid_metric_name("mpi.coll_us.allreduce_4k.p99"), "dotted name");
  expect(valid_metric_name("ult.yield-ns"), "dash allowed");
  expect(!valid_metric_name(".leading_dot"), "must start alnum");
  expect(!valid_metric_name("has space"), "no spaces");
  expect(!valid_metric_name("pct%"), "no percent sign");
  expect(!valid_metric_name(std::string(65, 'a')), "at most 64 chars");
  expect(!valid_metric_name(""), "non-empty");
}

}  // namespace

int main() {
  test_self_time();
  test_span_log();
  test_marginal();
  test_percentile();
  test_metric_names();
  if (failures == 0) std::puts("hostbench selftest: ok");
  return failures == 0 ? 0 : 1;
}
