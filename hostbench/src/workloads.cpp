#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "apps/jacobi.h"

namespace hostbench {

namespace mpi = impacc::mpi;
using impacc::core::ExecMode;
using impacc::core::LaunchOptions;

const CollCall kCollCalls[6] = {
    {"mpi.coll.allreduce_4k", "allreduce_4k"},
    {"mpi.coll.allreduce_4m", "allreduce_4m"},
    {"mpi.coll.bcast_256k", "bcast_256k"},
    {"mpi.coll.allgather_64k", "allgather_64k"},
    {"mpi.coll.reduce_scatter_64k", "reduce_scatter_64k"},
    {"mpi.coll.barrier", "barrier"},
};

namespace {

// jacobi_titan: Fig. 13(f) at scale. 2048 Titan nodes, one task each;
// 32K x 32K mesh, so every halo row is 256 KiB and goes rendezvous.
constexpr int kJacobiNodes = 2048;
constexpr long kJacobiMesh = 32768;
constexpr int kJacobiSweeps = 50;

// storm_psg: 7 senders x kStormMsgs eager 8-byte messages per phase.
constexpr int kStormMsgs = 16384;

// coll_psg: PSG x 16 (128 ranks) running kCollRounds of the six calls.
constexpr int kCollNodes = 16;
constexpr int kCollRounds = 100;

std::uint64_t splitmix64(std::uint64_t* s) {
  std::uint64_t z = (*s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Seeded Fisher-Yates permutation of [0, n).
std::vector<int> permutation(int n, std::uint64_t seed) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(splitmix64(&seed) %
                                    static_cast<std::uint64_t>(i + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return p;
}

// ---------------------------------------------------------------------------
// storm_psg

struct StormTally {
  std::atomic<long> recv_ok{0};
  std::atomic<long> recv_bad{0};
  std::atomic<long> sends{0};
};

long storm_payload(int src, int tag) { return src * 10000000L + tag; }

// ANY_SOURCE receives are posted in windows of this many messages per
// sender: the matcher's wildcard list is scanned linearly, so a deeper
// window would make the phase quadratic in the storm size.
constexpr int kStormWindow = 64;

int storm_windows(int msgs) { return (msgs + kStormWindow - 1) / kStormWindow; }

/// Seven senders flood rank 0 with eager 8-byte messages in three phases:
///  1. posted: rank 0 posts every receive (ascending m), then releases the
///     senders, which send in descending m;
///  2. unexpected: senders send before rank 0 posts; a fence message, FIFO
///     behind them, tells rank 0 they are all queued;
///  3. any_source: per window, rank 0 posts ANY_SOURCE receives, then
///     releases the senders for that window.
/// Tags are seeded relabelings of the message index, unique per (phase,
/// sender, message), so each receive has exactly one partner: the seed
/// changes which matcher buckets are hit, never the virtual schedule.
/// With `payload` every message carries storm_payload(src, tag) and rank 0
/// checks it; model-only runs send no bytes.
void storm_task(int msgs, const std::vector<int>& perm, bool payload,
                StormTally* tally) {
  auto w = mpi::world();
  const int rank = mpi::comm_rank(w);
  const int senders = mpi::comm_size(w) - 1;
  const int go = (2 + senders) * msgs;
  const int fence = go + 1;
  const auto tag = [&](int phase, int src, int m) {
    const int p = perm[static_cast<std::size_t>(m)];
    return phase < 2 ? phase * msgs + p : (1 + src) * msgs + p;
  };
  const auto k = mpi::Datatype::kLong;
  Scope root(rank, "storm");
  if (rank == 0) {
    const auto total = static_cast<std::size_t>(senders) * msgs;
    std::vector<long> bufs(payload ? total : 0, -1);
    std::vector<mpi::Request> reqs(total);
    std::vector<int> src_of(total);
    std::vector<int> tag_of(total);
    long ok = 0;
    long bad = 0;
    const auto post = [&](std::size_t i, int src, int tg, bool wildcard) {
      src_of[i] = src;
      tag_of[i] = tg;
      Scope sp(0, "mpi.irecv");
      reqs[i] = mpi::irecv(payload ? &bufs[i] : nullptr, 1, k,
                           wildcard ? mpi::kAnySource : src, tg, w);
    };
    const auto wait_range = [&](std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; ++i) {
        mpi::MpiStatus st;
        mpi::wait(reqs[i], &st);
        const bool good =
            st.source == src_of[i] && st.tag == tag_of[i] &&
            (!payload || bufs[i] == storm_payload(src_of[i], tag_of[i]));
        (good ? ok : bad) += 1;
      }
    };
    const auto release = [&] {
      for (int s = 1; s <= senders; ++s) {
        Scope sp(0, "mpi.send");
        mpi::send(nullptr, 0, k, s, go, w);
      }
    };
    const auto post_exact = [&](int phase) {
      std::size_t i = 0;
      for (int s = 1; s <= senders; ++s) {
        for (int m = 0; m < msgs; ++m) post(i++, s, tag(phase, s, m), false);
      }
    };
    {
      Scope ph(0, "storm.posted");
      post_exact(0);
      release();
      wait_range(0, total);
    }
    {
      Scope ph(0, "storm.unexpected");
      for (int s = 1; s <= senders; ++s) {
        Scope sp(0, "mpi.recv");
        mpi::recv(nullptr, 0, k, s, fence, w);
      }
      post_exact(1);
      wait_range(0, total);
    }
    {
      Scope ph(0, "storm.any_source");
      std::size_t i = 0;
      for (int lo = 0; lo < msgs; lo += kStormWindow) {
        const std::size_t first = i;
        for (int m = lo; m < std::min(msgs, lo + kStormWindow); ++m) {
          for (int s = 1; s <= senders; ++s) post(i++, s, tag(2, s, m), true);
        }
        release();
        wait_range(first, i);
      }
    }
    tally->recv_ok += ok;
    tally->recv_bad += bad;
  } else {
    long sent = 0;
    const auto send = [&](int tg) {
      long v = storm_payload(rank, tg);
      Scope sp(rank, "mpi.send");
      mpi::send(payload ? &v : nullptr, 1, k, 0, tg, w);
      ++sent;
    };
    const auto wait_go = [&] {
      Scope sp(rank, "mpi.recv");
      mpi::recv(nullptr, 0, k, 0, go, w);
    };
    wait_go();
    for (int m = msgs - 1; m >= 0; --m) send(tag(0, rank, m));
    for (int m = 0; m < msgs; ++m) send(tag(1, rank, m));
    {
      Scope sp(rank, "mpi.send");
      mpi::send(nullptr, 0, k, 0, fence, w);
    }
    for (int lo = 0; lo < msgs; lo += kStormWindow) {
      wait_go();
      for (int m = lo; m < std::min(msgs, lo + kStormWindow); ++m) {
        send(tag(2, rank, m));
      }
    }
    tally->sends += sent;
  }
  Scope sp(rank, "mpi.barrier");
  mpi::barrier(w);
}

/// Receives + sends + barrier calls of one storm, over all ranks.
std::uint64_t storm_ops(int msgs, int senders) {
  const auto m = static_cast<std::uint64_t>(msgs);
  const auto s = static_cast<std::uint64_t>(senders);
  const auto releases = 1 + static_cast<std::uint64_t>(storm_windows(msgs));
  const std::uint64_t rank0 = 3 * s * m + s /*fences*/ + s * releases;
  const std::uint64_t sender = 3 * m + 1 /*fence*/ + releases;
  return rank0 + s * sender + (s + 1) /*barrier*/;
}

bool check_storm(const StormTally& t, int msgs, int senders,
                 std::string* why) {
  const long expect = 3L * msgs * senders;
  if (t.recv_bad != 0 || t.recv_ok != expect || t.sends != expect) {
    *why = "storm: " + std::to_string(t.recv_ok.load()) + "/" +
           std::to_string(expect) + " receives matched (" +
           std::to_string(t.recv_bad.load()) + " wrong), " +
           std::to_string(t.sends.load()) + " sends";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// coll_psg

void coll_task(int rounds, std::atomic<long>* done) {
  auto w = mpi::world();
  const int rank = mpi::comm_rank(w);
  const int size = mpi::comm_size(w);
  const auto b = mpi::Datatype::kByte;
  const auto sum = mpi::Op::kSum;
  Scope root(rank, "coll");
  for (int r = 0; r < rounds; ++r) {
    Scope round(rank, "coll.round");
    {
      Scope sp(rank, kCollCalls[0].span);
      mpi::allreduce(nullptr, nullptr, 4 << 10, b, sum, w);
    }
    {
      Scope sp(rank, kCollCalls[1].span);
      mpi::allreduce(nullptr, nullptr, 4 << 20, b, sum, w);
    }
    {
      Scope sp(rank, kCollCalls[2].span);
      mpi::bcast(nullptr, 256 << 10, b, r % size, w);
    }
    {
      Scope sp(rank, kCollCalls[3].span);
      mpi::allgather(nullptr, 64 << 10, b, nullptr, 64 << 10, b, w);
    }
    {
      Scope sp(rank, kCollCalls[4].span);
      mpi::reduce_scatter_block(nullptr, nullptr, 64 << 10, b, sum, w);
    }
    {
      Scope sp(rank, kCollCalls[5].span);
      mpi::barrier(w);
    }
  }
  *done += rounds;
}

/// The collectives on real data, checked against closed forms.
void coll_twin_task(std::atomic<long>* bad) {
  auto w = mpi::world();
  const int rank = mpi::comm_rank(w);
  const int n = mpi::comm_size(w);
  constexpr int kCount = 256;
  const auto L = mpi::Datatype::kLong;
  long errors = 0;
  std::vector<long> a(kCount);
  std::vector<long> out(static_cast<std::size_t>(kCount) * n);
  for (int root = 0; root < 2; ++root) {
    for (int i = 0; i < kCount; ++i) {
      a[i] = static_cast<long>(rank + 1) * (i + 1);
    }
    mpi::allreduce(a.data(), out.data(), kCount, L, mpi::Op::kSum, w);
    for (int i = 0; i < kCount; ++i) {
      errors += out[i] != static_cast<long>(n) * (n + 1) / 2 * (i + 1);
    }
    for (int i = 0; i < kCount; ++i) a[i] = rank == root ? root * 1000 + i : -1;
    mpi::bcast(a.data(), kCount, L, root, w);
    for (int i = 0; i < kCount; ++i) errors += a[i] != root * 1000 + i;
    for (int i = 0; i < kCount; ++i) a[i] = rank * 100000L + i;
    mpi::allgather(a.data(), kCount, L, out.data(), kCount, L, w);
    for (int r = 0; r < n; ++r) {
      for (int i = 0; i < kCount; ++i) {
        errors += out[static_cast<std::size_t>(r) * kCount + i] !=
                  r * 100000L + i;
      }
    }
    std::vector<long> contrib(static_cast<std::size_t>(kCount) * n);
    for (std::size_t j = 0; j < contrib.size(); ++j) {
      contrib[j] = rank + static_cast<long>(j);
    }
    mpi::reduce_scatter_block(contrib.data(), a.data(), kCount, L,
                              mpi::Op::kSum, w);
    for (int i = 0; i < kCount; ++i) {
      const long j = static_cast<long>(rank) * kCount + i;
      errors += a[i] != static_cast<long>(n) * (n - 1) / 2 + n * j;
    }
    mpi::barrier(w);
  }
  *bad += errors;
}

bool stray_free(const impacc::LaunchResult& r, std::string* why) {
  if (r.stray_messages == 0) return true;
  *why = std::to_string(r.stray_messages) + " stray messages";
  return false;
}

}  // namespace

bool parse_workload(const std::string& s, Workload* out) {
  for (const Workload w :
       {Workload::kJacobiTitan, Workload::kStormPsg, Workload::kCollPsg}) {
    if (s == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kJacobiTitan: return "jacobi_titan";
    case Workload::kStormPsg: return "storm_psg";
    case Workload::kCollPsg: return "coll_psg";
  }
  return "?";
}

int workload_ranks(Workload w) {
  switch (w) {
    case Workload::kJacobiTitan: return kJacobiNodes;
    case Workload::kStormPsg: return 8;
    case Workload::kCollPsg: return 8 * kCollNodes;
  }
  return 0;
}

LaunchOptions workload_options(Workload w, int workers) {
  LaunchOptions o;
  switch (w) {
    case Workload::kJacobiTitan:
      o.cluster = impacc::sim::make_titan(kJacobiNodes);
      break;
    case Workload::kStormPsg:
      o.cluster = impacc::sim::make_psg(1);
      break;
    case Workload::kCollPsg:
      o.cluster = impacc::sim::make_psg(kCollNodes);
      break;
  }
  o.mode = ExecMode::kModelOnly;
  o.scheduler_workers = workers;
  return o;
}

Outcome run_workload(Workload w, int workers, std::uint64_t seed,
                     const Instruments& inst) {
  LaunchOptions o = workload_options(w, workers);
  if (inst.metrics) o.metrics_path = "-";
  o.critpath = inst.critpath;
  SpanLog* const outer = g_spans;
  g_spans = inst.spans;
  Outcome out;
  impacc::LaunchResult res;
  bool counts_ok = true;
  const std::int64_t t0 = now_ns();
  switch (w) {
    case Workload::kJacobiTitan: {
      impacc::apps::JacobiConfig cfg;
      cfg.n = kJacobiMesh;
      cfg.iterations = kJacobiSweeps;
      res = impacc::apps::run_jacobi(o, cfg).launch;
      out.ops = static_cast<std::uint64_t>(kJacobiSweeps) * 4 *
                    (kJacobiNodes - 1) +
                kJacobiNodes;
      // Every interior halo is one rendezvous send and one receive.
      const auto halos =
          static_cast<std::uint64_t>(kJacobiSweeps) * 2 * (kJacobiNodes - 1);
      if (res.num_tasks != kJacobiNodes || res.total.msgs_recv < halos) {
        counts_ok = false;
        out.why = "jacobi: " + std::to_string(res.total.msgs_recv) +
                  " receives completed, expected at least " +
                  std::to_string(halos);
      }
      break;
    }
    case Workload::kStormPsg: {
      StormTally tally;
      const std::vector<int> perm = permutation(kStormMsgs, seed);
      res = impacc::launch(o, [&] {
        storm_task(kStormMsgs, perm, false, &tally);
      });
      out.ops = storm_ops(kStormMsgs, 7);
      counts_ok = check_storm(tally, kStormMsgs, 7, &out.why);
      break;
    }
    case Workload::kCollPsg: {
      std::atomic<long> done{0};
      res = impacc::launch(o, [&] { coll_task(kCollRounds, &done); });
      const long ranks = workload_ranks(w);
      out.ops = static_cast<std::uint64_t>(kCollRounds) * 6 * ranks;
      if (done != kCollRounds * ranks) {
        counts_ok = false;
        out.why = "coll: " + std::to_string(done.load()) + " rank-rounds of " +
                  std::to_string(kCollRounds * ranks);
      }
      break;
    }
  }
  out.wall_s = 1e-9 * static_cast<double>(now_ns() - t0);
  g_spans = outer;
  out.vtime_ms = res.makespan * 1e3;
  out.ok = counts_ok && stray_free(res, &out.why) && out.vtime_ms > 0;
  out.metrics = std::move(res.metrics);
  return out;
}

double run_empty_launch(Workload w, int workers) {
  const LaunchOptions o = workload_options(w, workers);
  const std::int64_t t0 = now_ns();
  impacc::launch(o, [] {});
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

void run_functional_twins(Report* r, int workers, std::uint64_t seed) {
  {
    LaunchOptions o;
    o.cluster = impacc::sim::make_psg(1);
    o.scheduler_workers = workers;
    impacc::apps::JacobiConfig cfg;
    cfg.n = 64;
    cfg.iterations = 4;
    cfg.verify = true;
    const auto res = impacc::apps::run_jacobi(o, cfg);
    r->tally(res.verified && res.launch.num_tasks == 8 &&
                 res.launch.stray_messages == 0,
             "functional jacobi on 8 PSG tasks did not verify");
  }
  {
    LaunchOptions o;
    o.cluster = impacc::sim::make_psg(2);
    o.scheduler_workers = workers;
    std::atomic<long> bad{0};
    const auto res = impacc::launch(o, [&] { coll_twin_task(&bad); });
    r->tally(bad == 0 && res.num_tasks == 16 && res.stray_messages == 0,
             "functional collectives: " + std::to_string(bad.load()) +
                 " elements off their closed form");
  }
  {
    LaunchOptions o;
    o.cluster = impacc::sim::make_psg(1);
    o.scheduler_workers = workers;
    constexpr int kMsgs = 64;
    StormTally tally;
    const std::vector<int> perm = permutation(kMsgs, seed);
    const auto res = impacc::launch(o, [&] {
      storm_task(kMsgs, perm, true, &tally);
    });
    std::string why;
    r->tally(check_storm(tally, kMsgs, 7, &why) && res.stray_messages == 0,
             "functional storm: " + why);
  }
}

}  // namespace hostbench
