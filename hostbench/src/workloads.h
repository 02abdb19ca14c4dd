// The three benchmark workloads and their small functional twins.
#pragma once

#include <cstdint>
#include <string>

#include "impacc.h"
#include "report.h"
#include "spans.h"

namespace hostbench {

enum class Workload { kJacobiTitan, kStormPsg, kCollPsg };

bool parse_workload(const std::string& s, Workload* out);
const char* workload_name(Workload w);
/// Task (rank) count of a workload's launch.
int workload_ranks(Workload w);

/// Default LaunchOptions except model-only mode, the workload's cluster and
/// the pinned worker count.
impacc::core::LaunchOptions workload_options(Workload w, int workers);

/// A coll_psg call: its span name and its per-layer metric suffix.
struct CollCall {
  const char* span;
  const char* metric;
};
extern const CollCall kCollCalls[6];

/// What the traced run adds to a launch.
struct Instruments {
  bool metrics = false;      // LaunchOptions::metrics_path = "-"
  bool critpath = false;     // LaunchOptions::critpath
  SpanLog* spans = nullptr;  // spans around the workload's own MPI calls
};

struct Outcome {
  double wall_s = 0;
  double vtime_ms = 0;
  // MPI calls (sends, receives, collectives) the workload's own code
  // issues, summed over ranks; fixed by the workload definition.
  std::uint64_t ops = 0;
  bool ok = false;
  std::string why;  // first failed check
  impacc::obs::MetricsSnapshot metrics;
};

/// One launch of the workload, checked: zero stray messages plus the
/// workload's own completion counts.
Outcome run_workload(Workload w, int workers, std::uint64_t seed,
                     const Instruments& inst = {});

/// Host seconds of an empty launch with the workload's options.
double run_empty_launch(Workload w, int workers);

/// Small functional versions of all three workloads: verified Jacobi on 8
/// PSG tasks, collectives against closed-form sums, and a storm with real
/// payloads. One tally per twin.
void run_functional_twins(Report* r, int workers, std::uint64_t seed);

}  // namespace hostbench
