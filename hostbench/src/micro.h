// Micro-benchmarks: small loops over one module's public API, timed from
// outside the module. Each adds p50/p99/n timing metrics to the report.
#pragma once

#include <cstdint>

#include "report.h"

namespace hostbench {

/// ult: yield ping-pong, FiberEvent wake latency, spawn-to-finish.
void micro_ult(Report* r);
/// common: MpscQueue push, pop_all()+take() drain, 3-producer contention.
void micro_common(Report* r);
/// acc: PresentTable memo hit, memo miss over 1024 entries, insert+erase.
void micro_acc(Report* r);
/// mpi: Matcher::submit exact, wildcard and unexpected at 4096 deep.
void micro_matcher(Report* r, std::uint64_t seed);
/// dev + core + sim: async kernel+wait, on-node and internode 0-byte RTT.
void micro_runtime(Report* r, int workers);
/// mpi: marginal host cost of one world barrier on Titan at P = 64, 512,
/// 2048 nodes.
void barrier_marginals(Report* r, int workers);

}  // namespace hostbench
