#include "micro.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "acc/present_table.h"
#include "common/mpsc_queue.h"
#include "core/message.h"
#include "impacc.h"
#include "mpi/matcher.h"
#include "spans.h"
#include "ult/scheduler.h"
#include "ult/sync.h"

namespace hostbench {

namespace mpi = impacc::mpi;
using impacc::core::LaunchOptions;
using impacc::core::MsgCommand;

namespace {

double elapsed_ns(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0);
}

// ---------------------------------------------------------------------------
// ult

std::vector<double> yield_ns() {
  constexpr int kSamples = 2000;
  constexpr int kBatch = 256;
  std::vector<double> out;
  impacc::ult::Scheduler s(1);
  std::atomic<bool> stop{false};
  s.spawn([&] {
    for (int i = 0; i < kSamples; ++i) {
      const std::int64_t t0 = now_ns();
      for (int j = 0; j < kBatch; ++j) s.yield();
      // Each yield hands the worker to the partner, which yields back.
      out.push_back(elapsed_ns(t0) / (2.0 * kBatch));
    }
    stop = true;
  });
  s.spawn([&] {
    while (!stop) s.yield();
  });
  s.wait_all();
  return out;
}

std::vector<double> wake_us() {
  constexpr int kSamples = 2000;
  std::vector<double> out;
  impacc::ult::Scheduler s(2);
  impacc::ult::FiberEvent to_waiter;
  impacc::ult::FiberEvent to_setter;
  std::atomic<std::int64_t> set_at{0};
  s.spawn([&] {
    for (int i = 0; i < kSamples; ++i) {
      set_at = now_ns();
      to_waiter.set();
      to_setter.wait_and_reset();
    }
  });
  s.spawn([&] {
    for (int i = 0; i < kSamples; ++i) {
      to_waiter.wait_and_reset();
      out.push_back(1e-3 * static_cast<double>(now_ns() - set_at.load()));
      to_setter.set();
    }
  });
  s.wait_all();
  return out;
}

std::vector<double> spawn_us() {
  constexpr int kSamples = 1000;
  std::vector<double> out;
  impacc::ult::Scheduler s(1);
  for (int i = 0; i < kSamples; ++i) {
    const std::int64_t t0 = now_ns();
    s.spawn([] {});
    s.wait_all();
    out.push_back(1e-3 * elapsed_ns(t0));
  }
  return out;
}

// ---------------------------------------------------------------------------
// common

constexpr int kQueueBatch = 1024;

std::size_t drain(impacc::MpscQueue& q) {
  std::size_t n = 0;
  auto batch = q.pop_all();
  while (batch.take() != nullptr) ++n;
  return n;
}

void mpsc_single(Report* r) {
  constexpr int kSamples = 2000;
  impacc::MpscQueue q;
  std::vector<impacc::MpscNode> nodes(kQueueBatch);
  std::vector<double> push;
  std::vector<double> pop;
  bool ok = true;
  for (int i = 0; i < kSamples; ++i) {
    std::int64_t t0 = now_ns();
    for (auto& n : nodes) q.push(&n);
    push.push_back(elapsed_ns(t0) / kQueueBatch);
    t0 = now_ns();
    const std::size_t got = drain(q);
    pop.push_back(elapsed_ns(t0) / kQueueBatch);
    ok = ok && got == kQueueBatch;
  }
  r->tally(ok, "mpsc: a drain lost elements");
  r->add_timing("common.mpsc_push_ns", push, "ns");
  r->add_timing("common.mpsc_drain_ns", pop, "ns");
}

void mpsc_contended(Report* r) {
  constexpr int kProducers = 3;
  constexpr int kRounds = 400;
  impacc::MpscQueue q;
  std::vector<std::vector<impacc::MpscNode>> nodes(kProducers);
  for (auto& v : nodes) v = std::vector<impacc::MpscNode>(kQueueBatch);
  std::atomic<int> round{-1};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int rd = 0; rd < kRounds; ++rd) {
        while (round.load(std::memory_order_acquire) < rd) {
          std::this_thread::yield();
        }
        for (auto& n : nodes[static_cast<std::size_t>(p)]) q.push(&n);
      }
    });
  }
  std::vector<double> out;
  bool ok = true;
  constexpr std::size_t kPerRound = kProducers * kQueueBatch;
  for (int rd = 0; rd < kRounds; ++rd) {
    const std::int64_t t0 = now_ns();
    round.store(rd, std::memory_order_release);
    std::size_t taken = 0;
    while (taken < kPerRound) taken += drain(q);
    out.push_back(elapsed_ns(t0) / kPerRound);
    ok = ok && taken == kPerRound;
  }
  for (auto& t : producers) t.join();
  r->tally(ok, "mpsc: contended drain took the wrong count");
  r->add_timing("common.mpsc_contended_ns", out, "ns");
}

}  // namespace

// ---------------------------------------------------------------------------
// acc

void micro_acc(Report* r) {
  constexpr int kEntries = 1024;
  constexpr int kSamples = 2000;
  constexpr int kBatch = 256;
  constexpr std::uintptr_t kBase = 0x10000000;
  constexpr std::uintptr_t kStride = 8192;  // two memo shards apart
  constexpr std::uintptr_t kDevOffset = std::uintptr_t{1} << 40;
  const auto host = [](std::uintptr_t i) {
    return reinterpret_cast<void*>(kBase + i * kStride);
  };
  const auto dev = [](std::uintptr_t i) {
    return reinterpret_cast<void*>(kBase + kDevOffset + i * kStride);
  };
  impacc::acc::PresentTable t;
  for (int i = 0; i < kEntries; ++i) t.insert(host(i), dev(i), 4096, 0);
  std::vector<double> hit;
  std::vector<double> miss;
  std::vector<double> update;
  std::size_t found = 0;
  for (int s = 0; s < kSamples; ++s) {
    const void* p = host(static_cast<std::uintptr_t>(s % kEntries));
    std::int64_t t0 = now_ns();
    for (int j = 0; j < kBatch; ++j) found += t.find_host(p) != nullptr;
    hit.push_back(elapsed_ns(t0) / kBatch);
    // Consecutive entries sit in different shards but each shard's memo
    // last held an entry kEntries/4 steps back, so every lookup misses.
    t0 = now_ns();
    for (int j = 0; j < kBatch; ++j) {
      found += t.find_host(host(static_cast<std::uintptr_t>(
                   (s * kBatch + j) % kEntries))) != nullptr;
    }
    miss.push_back(elapsed_ns(t0) / kBatch);
    t0 = now_ns();
    for (int j = 0; j < 16; ++j) {
      t.erase(t.insert(host(kEntries + j), dev(kEntries + j), 4096, 0));
    }
    update.push_back(elapsed_ns(t0) / 16);
  }
  r->tally(found == 2ull * kSamples * kBatch && t.size() == kEntries,
           "present table: a lookup missed a mapped entry");
  r->add_timing("acc.present_hit_ns", hit, "ns");
  r->add_timing("acc.present_miss_ns", miss, "ns");
  r->add_timing("acc.present_update_ns", update, "ns");
}

namespace {

// ---------------------------------------------------------------------------
// mpi: matcher

/// Configure a Matcher the way the runtime does by default. The fast-path
/// switch is detected rather than named, so this still compiles once the
/// legacy path and its setter are gone.
template <class M>
void configure_like_runtime(M& m) {
  if constexpr (requires { m.set_fast_path(true); }) m.set_fast_path(true);
}

MsgCommand* make_send(int src, int tag) {
  auto* c = new MsgCommand;
  c->kind = MsgCommand::Kind::kSend;
  c->src_task = src;
  c->dst_task = 0;
  c->tag = tag;
  return c;
}

MsgCommand* make_recv(int src, int tag) {
  auto* c = new MsgCommand;
  c->kind = MsgCommand::Kind::kRecv;
  c->src_task = src;
  c->dst_task = 0;
  c->src_match_tag = tag;
  return c;
}

constexpr int kDepth = 4096;
constexpr int kMatchBatch = 64;
constexpr int kMatchSamples = 1500;

/// Submit `batch` (timed), returning per-submit ns; counts matches.
double timed_submits(impacc::mpi::Matcher& m,
                     std::vector<MsgCommand*>& batch, int* matched) {
  std::vector<MsgCommand*> partners(batch.size());
  const std::int64_t t0 = now_ns();
  for (std::size_t j = 0; j < batch.size(); ++j) {
    partners[j] = m.submit(batch[j]);
  }
  const double ns = elapsed_ns(t0) / static_cast<double>(batch.size());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    if (partners[j] != nullptr) {
      ++*matched;
      delete partners[j];
      delete batch[j];
    }
  }
  return ns;
}

}  // namespace

void micro_matcher(Report* r, std::uint64_t seed) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
  const auto next_tag = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<int>(state % kDepth);
  };
  std::vector<MsgCommand*> batch(kMatchBatch);
  int matched = 0;

  // Exact: sends land on 4096 posted exact receives; re-post after.
  std::vector<double> exact;
  {
    impacc::mpi::Matcher m;
    configure_like_runtime(m);
    for (int t = 0; t < kDepth; ++t) m.submit(make_recv(1, t));
    for (int s = 0; s < kMatchSamples; ++s) {
      const int base = (s * kMatchBatch) % kDepth;
      for (int j = 0; j < kMatchBatch; ++j) batch[j] = make_send(1, base + j);
      exact.push_back(timed_submits(m, batch, &matched));
      for (int j = 0; j < kMatchBatch; ++j) m.submit(make_recv(1, base + j));
    }
    m.drain_all();
  }
  // Wildcard: ANY_SOURCE receives against 4096 unexpected sends; the
  // matched send is re-queued at the back, so positions spread out.
  std::vector<double> wild;
  {
    impacc::mpi::Matcher m;
    configure_like_runtime(m);
    for (int t = 0; t < kDepth; ++t) m.submit(make_send(1, t));
    std::vector<int> tags(kMatchBatch);
    for (int s = 0; s < kMatchSamples; ++s) {
      for (int j = 0; j < kMatchBatch; ++j) {
        // Distinct tags within a batch so every receive finds its send.
        do {
          tags[j] = next_tag();
        } while (std::find(tags.begin(), tags.begin() + j, tags[j]) !=
                 tags.begin() + j);
        batch[j] = make_recv(mpi::kAnySource, tags[j]);
      }
      wild.push_back(timed_submits(m, batch, &matched));
      for (int j = 0; j < kMatchBatch; ++j) m.submit(make_send(1, tags[j]));
    }
    m.drain_all();
  }
  // Unexpected: sends that match none of 4096 posted receives (they wait
  // for another source) and queue; removed after by exact receives.
  std::vector<double> unexpected;
  int misrouted = 0;
  {
    impacc::mpi::Matcher m;
    configure_like_runtime(m);
    for (int t = 0; t < kDepth; ++t) m.submit(make_recv(2, t));
    for (int s = 0; s < kMatchSamples; ++s) {
      for (int j = 0; j < kMatchBatch; ++j) batch[j] = make_send(1, j);
      unexpected.push_back(timed_submits(m, batch, &misrouted));
      for (int j = 0; j < kMatchBatch; ++j) {
        MsgCommand* recv = make_recv(1, j);
        MsgCommand* send = m.submit(recv);
        if (send == nullptr) {
          ++misrouted;
        } else {
          delete send;
          delete recv;
        }
      }
    }
    m.drain_all();
  }
  r->tally(matched == 2 * kMatchSamples * kMatchBatch && misrouted == 0,
           "matcher: a submit matched the wrong partner");
  r->add_timing("mpi.matcher_exact_ns", exact, "ns");
  r->add_timing("mpi.matcher_wild_ns", wild, "ns");
  r->add_timing("mpi.matcher_unexpected_ns", unexpected, "ns");
}

namespace {

// ---------------------------------------------------------------------------
// Runtime round trips

LaunchOptions model_only(impacc::sim::ClusterDesc cluster, int workers,
                         int devices_per_node) {
  LaunchOptions o;
  o.cluster = std::move(cluster);
  for (auto& node : o.cluster.nodes) {
    if (static_cast<int>(node.devices.size()) > devices_per_node) {
      node.devices.resize(static_cast<std::size_t>(devices_per_node));
    }
  }
  o.mode = impacc::core::ExecMode::kModelOnly;
  o.scheduler_workers = workers;
  return o;
}

/// 0-byte ping-pong between ranks 0 and 1; rank 0 records each RTT in us.
std::vector<double> pingpong_us(const LaunchOptions& o, bool* clean) {
  constexpr int kWarmup = 100;
  constexpr int kSamples = 2000;
  std::vector<double> out;
  const auto res = impacc::launch(o, [&] {
    auto w = mpi::world();
    const int rank = mpi::comm_rank(w);
    const auto b = mpi::Datatype::kByte;
    for (int i = 0; i < kWarmup + kSamples; ++i) {
      if (rank == 0) {
        const std::int64_t t0 = now_ns();
        mpi::send(nullptr, 0, b, 1, 0, w);
        mpi::recv(nullptr, 0, b, 1, 0, w);
        if (i >= kWarmup) out.push_back(1e-3 * elapsed_ns(t0));
      } else {
        mpi::recv(nullptr, 0, b, 0, 0, w);
        mpi::send(nullptr, 0, b, 0, 0, w);
      }
    }
  });
  *clean = res.stray_messages == 0 && out.size() == kSamples;
  return out;
}

}  // namespace

void micro_ult(Report* r) {
  r->add_timing("ult.yield_ns", yield_ns(), "ns");
  r->add_timing("ult.wake_us", wake_us(), "us");
  r->add_timing("ult.spawn_us", spawn_us(), "us");
}

void micro_common(Report* r) {
  mpsc_single(r);
  mpsc_contended(r);
}

void micro_runtime(Report* r, int workers) {
  {
    constexpr int kSamples = 2000;
    std::vector<double> out;
    const auto res = impacc::launch(
        model_only(impacc::sim::make_psg(1), workers, 1), [&] {
          const impacc::sim::WorkEstimate est{1e6, 1e6};
          for (int i = 0; i < kSamples; ++i) {
            const std::int64_t t0 = now_ns();
            impacc::acc::kernel("micro", [] {}, est, 1);
            impacc::acc::wait(1);
            out.push_back(1e-3 * elapsed_ns(t0));
          }
        });
    r->tally(res.stray_messages == 0 && out.size() == kSamples,
             "async kernel micro did not complete");
    r->add_timing("dev.async_kernel_us", out, "us");
  }
  bool clean = false;
  auto rtt = pingpong_us(model_only(impacc::sim::make_psg(1), workers, 2),
                         &clean);
  r->tally(clean, "on-node ping-pong did not complete");
  r->add_timing("core.handler_rtt_us", rtt, "us");
  rtt = pingpong_us(model_only(impacc::sim::make_titan(2), workers, 1),
                    &clean);
  r->tally(clean, "internode ping-pong did not complete");
  r->add_timing("core.internode_rtt_us", rtt, "us");
}

void barrier_marginals(Report* r, int workers) {
  struct Point {
    int nodes;
    int extra;  // K: barriers beyond the first
    int pairs;
  };
  constexpr Point kPoints[] = {{64, 32, 5}, {512, 8, 5}, {2048, 2, 3}};
  for (const Point p : kPoints) {
    const LaunchOptions o = model_only(impacc::sim::make_titan(p.nodes),
                                       workers, 1);
    std::vector<double> many;
    std::vector<double> one;
    bool clean = true;
    for (int i = 0; i < p.pairs; ++i) {
      for (const int barriers : {p.extra + 1, 1}) {
        const std::int64_t t0 = now_ns();
        const auto res = impacc::launch(o, [barriers] {
          for (int b = 0; b < barriers; ++b) mpi::barrier(mpi::world());
        });
        (barriers == 1 ? one : many).push_back(1e-6 * elapsed_ns(t0));
        clean = clean && res.stray_messages == 0;
      }
    }
    const std::string name = "mpi.barrier_ms.p" + std::to_string(p.nodes);
    r->tally(clean, name + ": stray messages");
    r->add(name, median_marginal(many, one, p.extra), "ms");
    r->add(name + ".n", static_cast<double>(p.pairs), "count");
  }
}

}  // namespace hostbench
