// hostbench: host wall-clock benchmark of the IMPACC runtime.
//
//   hostbench check|setup|timed|traced --workload W [--seed N]
//             [--seconds S] [--workers K] [--trace-out FILE]
//
// Each mode prints one JSON object (report.h) on stdout. run.py drives
// the modes in separate processes, so a timed process runs nothing but
// the workload's timed launches and its peak RSS is theirs alone.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "micro.h"
#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace hostbench {
namespace {

struct Args {
  std::string mode;
  Workload workload = Workload::kStormPsg;
  std::uint64_t seed = 1;
  double seconds = 10;
  int workers = 2;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      if (!parse_workload(v, &a->workload)) return false;
      continue;
    }
    if (k == "--trace-out") {
      a->trace_out = v;
      continue;
    }
    char* end = nullptr;
    if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--workers") {
      a->workers = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else {
      return false;
    }
    if (v.empty() || *end != '\0') return false;
  }
  return (argc % 2) == 0 && a->workers >= 1 && a->seconds > 0;
}

/// One checked launch of the workload. run.py starts one process per
/// launch, so each is timed cold, as a user runs it, and the process's
/// peak RSS is that launch's. A failed launch is tallied and not timed.
void mode_timed(const Args& a, Report* r) {
  const Outcome o = run_workload(a.workload, a.workers, a.seed);
  r->tally(o.ok, o.why);
  if (!o.ok) return;
  r->add_series("wall_s", {o.wall_s});
  r->add_series("vtime_ms", {o.vtime_ms});
  r->add_series("ops_per_s", {static_cast<double>(o.ops) / o.wall_s});
}

/// Empty launches for `seconds` (at least 3, at most 2000).
void mode_setup(const Args& a, Report* r) {
  constexpr std::size_t kMinLaunches = 3;
  constexpr std::size_t kMaxLaunches = 2000;
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  std::vector<double> s;
  while (s.size() < kMinLaunches ||
         (now_ns() < end && s.size() < kMaxLaunches)) {
    s.push_back(run_empty_launch(a.workload, a.workers));
  }
  r->tally(true, "");
  r->add_series("setup_s", s);
}

double pct_over(const std::vector<double>& on, const std::vector<double>& off) {
  return 100.0 * (median(on) / median(off) - 1.0);
}

/// Per-layer metrics: micros, one instrumented launch of every workload,
/// the marginal barrier cost, observability overheads, and the traced vs
/// untraced wall of the selected workload.
void mode_traced(const Args& a, Report* r) {
  const std::int64_t origin = now_ns();
  SpanLog host(1);
  g_spans = &host;
  std::string events;
  // Spans written per log; the storm alone records ~700k, all of which
  // still feed the statistics.
  constexpr std::size_t kSpansPerLog = 50000;
  std::size_t dropped = 0;
  {
    Scope s(0, "micro.ult");
    micro_ult(r);
  }
  {
    Scope s(0, "micro.common");
    micro_common(r);
  }
  {
    Scope s(0, "micro.acc");
    micro_acc(r);
  }
  {
    Scope s(0, "micro.matcher");
    micro_matcher(r, a.seed);
  }
  {
    Scope s(0, "micro.runtime");
    micro_runtime(r, a.workers);
  }
  {
    Scope s(0, "micro.barrier_marginals");
    barrier_marginals(r, a.workers);
  }

  int pid = 1;
  for (const Workload w :
       {Workload::kJacobiTitan, Workload::kStormPsg, Workload::kCollPsg}) {
    SpanLog log(workload_ranks(w));
    Instruments inst;
    inst.metrics = true;
    inst.spans = &log;
    Outcome o;
    {
      Scope s(0, workload_name(w));
      o = run_workload(w, a.workers, a.seed, inst);
    }
    r->tally(o.ok, o.why);
    const auto& m = o.metrics;
    switch (w) {
      case Workload::kJacobiTitan: {
        const double hits = m.value("acc.present_table.host_hits") +
                            m.value("acc.present_table.dev_hits");
        const double misses = m.value("acc.present_table.host_misses") +
                              m.value("acc.present_table.dev_misses");
        r->add("acc.present_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
        break;
      }
      case Workload::kStormPsg: {
        r->add_timing("mpi.send_us", log.durations_us("mpi.send"), "us");
        r->add_timing("mpi.irecv_us", log.durations_us("mpi.irecv"), "us");
        const double matched = m.value("mpi.matcher.matched");
        r->add("mpi.unexpected_ratio",
               matched > 0 ? m.value("mpi.matcher.unexpected_queued") / matched
                           : 0,
               "ratio");
        const double batches = m.value("handler.batch.size.count");
        r->add("core.handler_batch_mean",
               batches > 0 ? m.value("handler.batch.size.sum") / batches : 0,
               "count");
        break;
      }
      case Workload::kCollPsg: {
        for (const CollCall& c : kCollCalls) {
          r->add_timing(std::string("mpi.coll_us.") + c.metric,
                        log.durations_us(c.span), "us");
        }
        r->add("coll.internode_mb", 1e-6 * m.value("coll.internode.bytes"),
               "MB");
        break;
      }
    }
    append_chrome_events(log, pid++, origin, kSpansPerLog, &events, &dropped);
  }

  {
    // Observability cost on the storm: metrics on, critpath on, each
    // against off, interleaved so drift hits all three alike.
    Scope s(0, "obs_overhead");
    std::vector<double> off;
    std::vector<double> met;
    std::vector<double> cp;
    for (int i = 0; i < 3; ++i) {
      for (const int variant : {0, 1, 2}) {
        Instruments inst;
        inst.metrics = variant == 1;
        inst.critpath = variant == 2;
        const Outcome o = run_workload(Workload::kStormPsg, a.workers, a.seed,
                                       inst);
        r->tally(o.ok, o.why);
        (variant == 0 ? off : variant == 1 ? met : cp).push_back(o.wall_s);
      }
    }
    r->add("obs.metrics_overhead_pct", pct_over(met, off), "%");
    r->add("obs.critpath_overhead_pct", pct_over(cp, off), "%");
  }
  {
    // The selected workload traced (spans + metrics) against untraced,
    // interleaved for a third of --seconds.
    Scope s(0, "trace_overhead");
    std::vector<double> plain;
    std::vector<double> traced;
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(a.seconds / 3 * 1e9);
    while (plain.size() < 2 || now_ns() < end) {
      const Outcome p = run_workload(a.workload, a.workers, a.seed);
      SpanLog log(workload_ranks(a.workload));
      Instruments inst;
      inst.metrics = true;
      inst.spans = &log;
      const Outcome t = run_workload(a.workload, a.workers, a.seed, inst);
      r->tally(p.ok && t.ok, p.ok ? t.why : p.why);
      plain.push_back(p.wall_s);
      traced.push_back(t.wall_s);
    }
    r->add("bench.trace_overhead_pct", pct_over(traced, plain), "%");
  }
  g_spans = nullptr;

  if (!a.trace_out.empty()) {
    append_chrome_events(host, 0, origin, kSpansPerLog, &events, &dropped);
    std::ofstream f(a.trace_out);
    f << "{\"traceEvents\":[\n" << events
      << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":"
      << dropped << "}}\n";
    r->tally(static_cast<bool>(f), "could not write " + a.trace_out);
  }
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: hostbench check|setup|timed|traced --workload "
                 "jacobi_titan|storm_psg|coll_psg [--seed N] [--seconds S] "
                 "[--workers K] [--trace-out FILE]\n");
    return 2;
  }
  Report r;
  if (a.mode == "check") {
    run_functional_twins(&r, a.workers, a.seed);
  } else if (a.mode == "setup") {
    mode_setup(a, &r);
  } else if (a.mode == "timed") {
    mode_timed(a, &r);
  } else if (a.mode == "traced") {
    mode_traced(a, &r);
  } else {
    std::fprintf(stderr, "hostbench: unknown mode '%s'\n", a.mode.c_str());
    return 2;
  }
  r.print();
  return 0;
}
