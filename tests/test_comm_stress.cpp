// Randomized concurrency stress for the comm/overlap layer.
//
// These suites exist to give ThreadSanitizer (the `tsan` preset) real
// scheduling pressure: message storms across many (source, tag) queues,
// barrier/collective churn, aborts landing mid-overlap, and all three
// overlap plans (HaloPlan / GridFoldPlan / SlabExchange) in flight on one
// communicator with their finishes interleaved in random order.  Every
// test is seeded (Xoshiro256) so a failing schedule's *workload* is
// reproducible, and every test also asserts functional correctness, so
// the suites are meaningful under the default presets too.
//
// v6d-analyze: allow-file(tag-space): stress tests drive raw low tags on
// isolated per-test worlds; the kFirstUserTag floor governs production
// exchanges.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/cart.hpp"
#include "comm/communicator.hpp"
#include "comm/faulty_transport.hpp"
#include "comm/runner.hpp"
#include "comm/tcp_transport.hpp"
#include "common/rng.hpp"
#include "fft/parallel_fft.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/grid.hpp"
#include "mesh/halo_plan.hpp"
#include "parallel/field_exchange.hpp"
#include "vlasov/phase_space.hpp"

namespace {

using namespace v6d;
using namespace v6d::comm;

// Deterministic payload byte: every (sender, sequence, offset) triple maps
// to one value, so a receiver can verify content without side channels.
std::uint8_t storm_byte(int src, int seq, std::size_t i) {
  return static_cast<std::uint8_t>(
      hash_mix(static_cast<std::uint64_t>(src) * 1000003u +
               static_cast<std::uint64_t>(seq)) +
      i);
}

std::size_t storm_size(int src, int dst, int seq) {
  // 1..256 bytes; varies enough to churn allocation in the mailbox deques.
  return 1 + (hash_mix(static_cast<std::uint64_t>(src) * 7919u + dst * 31u +
                       static_cast<std::uint64_t>(seq)) &
              0xff);
}

class CommStressRanks : public ::testing::TestWithParam<int> {};

// Every rank floods every peer with tagged messages while draining its own
// mailbox through a randomized mix of blocking pop and try_pop spinning.
// FIFO-per-(source, tag) is asserted on the payload contents.
TEST_P(CommStressRanks, MailboxMessageStorm) {
  const int p = GetParam();
  constexpr int kMessages = 96;  // per (sender, receiver) pair
  constexpr int kTags = 3;
  run(p, [&](Communicator& comm) {
    const int me = comm.rank();
    Xoshiro256 rng(0x57011u + static_cast<std::uint64_t>(me));

    // Send all traffic first (sends are buffered and never block), in a
    // per-rank random destination order so queue insertion interleaves.
    std::vector<int> order;
    for (int d = 0; d < p; ++d)
      for (int s = 0; s < kMessages; ++s) order.push_back(d);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.next_u64() % i]);
    std::vector<int> seq(static_cast<std::size_t>(p), 0);
    for (int dst : order) {
      const int s = seq[static_cast<std::size_t>(dst)]++;
      std::vector<std::uint8_t> payload(storm_size(me, dst, s));
      for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = storm_byte(me, s, i);
      comm.send(dst, 100 + s % kTags, payload.data(), payload.size());
    }

    // Drain: per (source, tag) the sequence numbers arrive in send order.
    // Randomly interleave sources/tags and blocking vs non-blocking pops.
    struct Cursor {
      int src, tag;
      std::vector<int> pending;  // sequence numbers, in FIFO order
      std::size_t next = 0;
    };
    std::vector<Cursor> cursors;
    for (int src = 0; src < p; ++src)
      for (int t = 0; t < kTags; ++t) {
        Cursor c{src, 100 + t, {}, 0};
        for (int s = t; s < kMessages; s += kTags) c.pending.push_back(s);
        cursors.push_back(std::move(c));
      }
    std::size_t remaining = static_cast<std::size_t>(p) * kMessages;
    auto& mailbox_comm = comm;
    while (remaining > 0) {
      Cursor& c = cursors[rng.next_u64() % cursors.size()];
      if (c.next == c.pending.size()) continue;
      const int s = c.pending[c.next];
      std::vector<std::uint8_t> payload;
      if (rng.next_u64() & 1) {
        payload = mailbox_comm.recv_bytes(c.src, c.tag);
      } else {
        auto handle = mailbox_comm.irecv(c.src, c.tag);
        while (!handle.ready()) {
        }
        payload = handle.wait();
      }
      ASSERT_EQ(payload.size(), storm_size(c.src, me, s));
      for (std::size_t i = 0; i < payload.size(); ++i)
        ASSERT_EQ(payload[i], storm_byte(c.src, s, i));
      ++c.next;
      --remaining;
    }
  });
}

// Mailbox counters sampled *during* a message storm must never move
// backwards, and the final deltas must equal the scripted traffic exactly.
TEST_P(CommStressRanks, MailboxCountersMonotonicUnderStorm) {
  const int p = GetParam();
  constexpr int kMessages = 64;
  run(p, [&](Communicator& comm) {
    const int me = comm.rank();
    const int next = (me + 1) % p;
    const int prev = (me - 1 + p) % p;
    comm.barrier();
    const auto base = comm.recv_stats();
    comm.barrier();  // nobody sends before every rank snapshots

    std::uint64_t expect_bytes = 0;
    for (int s = 0; s < kMessages; ++s) {
      const std::size_t size = static_cast<std::size_t>(1 + s % 7);
      expect_bytes += size;
      std::vector<std::uint8_t> payload(size, 0x5A);
      comm.send(next, 300, payload.data(), payload.size());
    }

    auto last = comm.recv_stats();
    for (int s = 0; s < kMessages; ++s) {
      const auto payload = comm.recv_bytes(prev, 300);
      ASSERT_EQ(payload.size(), static_cast<std::size_t>(1 + s % 7));
      const auto now = comm.recv_stats();
      EXPECT_GE(now.messages_pushed, last.messages_pushed);
      EXPECT_GE(now.bytes_pushed, last.bytes_pushed);
      EXPECT_GE(now.messages_popped, last.messages_popped);
      EXPECT_GE(now.bytes_popped, last.bytes_popped);
      EXPECT_GE(now.peak_queue_depth, last.peak_queue_depth);
      EXPECT_GE(now.pop_wait_s, last.pop_wait_s);
      last = now;
    }

    // Everything sent to me was popped by me, so the deltas are exact.
    const auto end = comm.recv_stats();
    EXPECT_EQ(end.messages_popped - base.messages_popped,
              static_cast<std::uint64_t>(kMessages));
    EXPECT_EQ(end.bytes_popped - base.bytes_popped, expect_bytes);
    EXPECT_EQ(end.messages_pushed - base.messages_pushed,
              static_cast<std::uint64_t>(kMessages));
    EXPECT_EQ(end.bytes_pushed - base.bytes_pushed, expect_bytes);
    if (p > 1) {
      EXPECT_GE(end.peak_queue_depth, 1u);
    }
  });
}

// Barrier churn: the generation counter must strictly separate rounds even
// when ranks arrive with skewed timing.
TEST_P(CommStressRanks, BarrierStormSeparatesRounds) {
  const int p = GetParam();
  constexpr int kRounds = 200;
  std::vector<std::atomic<int>> arrived(kRounds);
  for (auto& a : arrived) a.store(0);
  run(p, [&](Communicator& comm) {
    Xoshiro256 rng(0xba221e5u + static_cast<std::uint64_t>(comm.rank()));
    for (int r = 0; r < kRounds; ++r) {
      // Random skew: some ranks burn a little time before arriving.
      volatile std::uint64_t sink = 0;
      const std::uint64_t spin = rng.next_u64() % 200;
      for (std::uint64_t i = 0; i < spin; ++i) sink = sink + i;
      arrived[static_cast<std::size_t>(r)].fetch_add(1);
      comm.barrier();
      EXPECT_EQ(arrived[static_cast<std::size_t>(r)].load(), p);
    }
  });
}

// Collectives interleaved with point-to-point ring traffic, many rounds.
TEST_P(CommStressRanks, CollectivesUnderP2PTraffic) {
  const int p = GetParam();
  constexpr int kRounds = 50;
  run(p, [&](Communicator& comm) {
    const int me = comm.rank();
    const int next = (me + 1) % p;
    const int prev = (me + p - 1) % p;
    for (int r = 0; r < kRounds; ++r) {
      // Ring traffic in flight across the collective below.
      const double token = me * 1000.0 + r;
      comm.send(next, 500, &token, 1);

      std::vector<double> acc(4);
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = me + r * 0.5 + static_cast<double>(i);
      comm.allreduce_sum(acc.data(), acc.size());
      for (std::size_t i = 0; i < acc.size(); ++i) {
        double expect = 0.0;
        for (int q = 0; q < p; ++q)
          expect += q + r * 0.5 + static_cast<double>(i);
        EXPECT_DOUBLE_EQ(acc[i], expect);
      }

      double got = 0.0;
      comm.recv(prev, 500, &got, 1);
      EXPECT_DOUBLE_EQ(got, prev * 1000.0 + r);
      EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(me)), p - 1.0);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CommStressRanks,
                         ::testing::Values(2, 4, 8));

// A rank dies at a random point of a message storm while its peers are
// blocked in recv / handle-wait / barrier; every schedule must surface the
// original error (no hang, no AbortedError leaking out).
TEST(CommStress, AbortMidStormSurfacesOriginalError) {
  constexpr int p = 4;
  for (std::uint64_t round = 0; round < 12; ++round) {
    const int thrower = static_cast<int>(round % p);
    try {
      run(p, [&](Communicator& comm) {
        const int me = comm.rank();
        Xoshiro256 rng(0xabc0 + round * 131u + static_cast<std::uint64_t>(me));
        if (me == thrower) {
          // Emit some real traffic first so peers make partial progress.
          const std::uint64_t ops = rng.next_u64() % 8;
          for (std::uint64_t i = 0; i < ops; ++i) {
            const double v = static_cast<double>(i);
            comm.send(static_cast<int>((me + 1) % p), 700, &v, 1);
          }
          throw std::runtime_error("storm rank died");
        }
        // Peers park in different blocking primitives; whichever schedule
        // wins, the abort must wake all of them.
        switch (me % 3) {
          case 0: {
            double sink = 0.0;
            comm.recv(thrower, 900, &sink, 1);  // never sent
            break;
          }
          case 1: {
            auto handle = comm.irecv(thrower, 901);  // never sent
            handle.wait();
            break;
          }
          default:
            comm.barrier();  // thrower never arrives
            break;
        }
        FAIL() << "blocked peers must not resume normally";
      });
      FAIL() << "run() must rethrow the storm error";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "storm rank died");
    }
  }
}

// ---------------------------------------------------------------------------
// Overlap-plan interleavings
// ---------------------------------------------------------------------------

// Encode a unique, exactly-representable float per (global cell, velocity
// slot): ghosts filled from a neighbor must reproduce the neighbor's
// interior values, so correctness of every interleaving is checkable from
// global coordinates alone.
float cell_value(int gx, int gy, int gz, std::size_t slot, int n,
                 std::size_t block) {
  return static_cast<float>(
      (static_cast<std::size_t>((gx * n + gy) * n + gz)) * block + slot);
}

struct BrickSetup {
  mesh::BrickDecomposition dec;
  vlasov::PhaseSpaceDims dims;
};

BrickSetup make_brick(comm::CartTopology& cart, int n_global, int nu) {
  BrickSetup s;
  s.dec = mesh::BrickDecomposition({n_global, n_global, n_global},
                                   cart.dims(), cart.coords());
  s.dims.nx = s.dec.local_n(0);
  s.dims.ny = s.dec.local_n(1);
  s.dims.nz = s.dec.local_n(2);
  s.dims.nux = s.dims.nuy = s.dims.nuz = nu;
  return s;
}

void fill_brick(vlasov::PhaseSpace& f, const mesh::BrickDecomposition& dec,
                int n_global) {
  const auto& d = f.dims();
  for (int i = 0; i < d.nx; ++i)
    for (int j = 0; j < d.ny; ++j)
      for (int k = 0; k < d.nz; ++k) {
        float* blk = f.block(i, j, k);
        for (std::size_t s = 0; s < f.block_size(); ++s)
          blk[s] = cell_value(dec.offset(0) + i, dec.offset(1) + j,
                              dec.offset(2) + k, s, n_global, f.block_size());
      }
}

// Check one ghost face of `axis` (at interior transverse positions, which
// is HaloPlan's contract) against the globally expected values.
void expect_face(const vlasov::PhaseSpace& f,
                 const mesh::BrickDecomposition& dec, int n_global, int axis,
                 bool low_side) {
  const auto& d = f.dims();
  const int n[3] = {d.nx, d.ny, d.nz};
  const int g = d.ghost;
  // Iterate the two transverse axes explicitly (ascending order).
  int ta = -1, tb = -1;
  for (int t = 0; t < 3; ++t) {
    if (t == axis) continue;
    (ta < 0 ? ta : tb) = t;
  }
  for (int layer = 0; layer < g; ++layer)
    for (int u = 0; u < n[ta]; ++u)
      for (int v = 0; v < n[tb]; ++v) {
        int idx[3];
        idx[axis] = low_side ? -g + layer : n[axis] + layer;
        idx[ta] = u;
        idx[tb] = v;
        int gidx[3] = {dec.offset(0) + idx[0], dec.offset(1) + idx[1],
                       dec.offset(2) + idx[2]};
        gidx[axis] = ((gidx[axis] % n_global) + n_global) % n_global;
        const float* blk = f.block(idx[0], idx[1], idx[2]);
        for (std::size_t s = 0; s < f.block_size(); ++s)
          ASSERT_EQ(blk[s], cell_value(gidx[0], gidx[1], gidx[2], s, n_global,
                                       f.block_size()))
              << "axis=" << axis << " low=" << low_side << " layer=" << layer;
      }
}

// All three overlap plans in flight at once on one communicator, finished
// in a random order per round — the production pipeline only ever holds a
// subset of these interleavings, so this is strictly harsher than the
// solver path.
TEST(CommStress, ConcurrentPlanBeginFinishInterleavings) {
  constexpr int kRanks = 4;
  constexpr int kGlobal = 8;  // local bricks 4x4x8 under a 2x2x1 split
  constexpr int kNu = 2;
  constexpr int kRounds = 6;
  run(kRanks, [&](Communicator& comm) {
    CartTopology cart(comm, CartTopology::choose_dims(kRanks));
    const auto setup = make_brick(cart, kGlobal, kNu);

    vlasov::PhaseSpace f(setup.dims, {});
    mesh::HaloPlan halo(cart, setup.dims, /*tag_base=*/1000);

    mesh::Grid3D<double> fold_grid(setup.dims.nx, setup.dims.ny,
                                   setup.dims.nz, /*ghost=*/2);
    mesh::GridFoldPlan fold(cart, /*tag_base=*/2000);
    mesh::GridFoldPlan fold_eager(cart, /*tag_base=*/2100);

    fft::ParallelFft3D pfft(comm, kGlobal);
    mesh::BrickDecomposition mesh_dec({kGlobal, kGlobal, kGlobal},
                                      cart.dims(), cart.coords());
    parallel::SlabExchange slab(mesh_dec, pfft, cart, /*tag_base=*/3000);
    mesh::Grid3D<double> slab_brick(setup.dims.nx, setup.dims.ny,
                                    setup.dims.nz, /*ghost=*/0);

    Xoshiro256 rng(0x9e1a7u + static_cast<std::uint64_t>(comm.rank()));
    for (int round = 0; round < kRounds; ++round) {
      fill_brick(f, setup.dec, kGlobal);

      // Deterministic per-cell deposit including ghosts, so the fold
      // reference is computable on a copy.
      for (int i = -2; i < fold_grid.nx() + 2; ++i)
        for (int j = -2; j < fold_grid.ny() + 2; ++j)
          for (int k = -2; k < fold_grid.nz() + 2; ++k)
            fold_grid.at(i, j, k) =
                static_cast<double>(hash_mix(
                    static_cast<std::uint64_t>(comm.rank() + 1) * 1000000u +
                    static_cast<std::uint64_t>((i + 2) * 10000 +
                                               (j + 2) * 100 + (k + 2)) +
                    static_cast<std::uint64_t>(round) * 77u) %
                    1024) /
                16.0;
      mesh::Grid3D<double> fold_ref = fold_grid;

      for (int i = 0; i < slab_brick.nx(); ++i)
        for (int j = 0; j < slab_brick.ny(); ++j)
          for (int k = 0; k < slab_brick.nz(); ++k)
            slab_brick.at(i, j, k) = static_cast<double>(cell_value(
                mesh_dec.offset(0) + i, mesh_dec.offset(1) + j,
                mesh_dec.offset(2) + k, 0, kGlobal, 1));

      // Begin everything: three halo axes, the fold, and the slab
      // redistribution are now simultaneously in flight.
      for (int axis = 0; axis < 3; ++axis) halo.begin_axis(f, axis);
      fold.begin(fold_grid);
      slab.begin_to_slab(slab_brick);

      // Finish in a random order (per rank, per round).
      std::array<int, 5> finish_order = {0, 1, 2, 3, 4};
      for (std::size_t i = finish_order.size(); i > 1; --i)
        std::swap(finish_order[i - 1],
                  finish_order[static_cast<std::size_t>(rng.next_u64() % i)]);
      std::vector<fft::cplx>* slab_data = nullptr;
      for (int what : finish_order) {
        if (what < 3) {
          halo.finish_axis(f, what);
        } else if (what == 3) {
          fold.finish(fold_grid);
        } else {
          slab_data = &slab.finish_to_slab();
        }
      }

      // Halo ghosts must equal the periodic neighbors' interior values.
      for (int axis = 0; axis < 3; ++axis) {
        expect_face(f, setup.dec, kGlobal, axis, /*low_side=*/true);
        expect_face(f, setup.dec, kGlobal, axis, /*low_side=*/false);
      }

      // The interleaved fold must match the same fold completed eagerly
      // (its correctness against the global periodic fold is proven in
      // test_halo); only the schedule differs, so bit-identical.
      comm.barrier();  // separate interleaved traffic from the reference
      fold_eager.begin(fold_ref);
      fold_eager.finish(fold_ref);
      for (int i = 0; i < fold_grid.nx(); ++i)
        for (int j = 0; j < fold_grid.ny(); ++j)
          for (int k = 0; k < fold_grid.nz(); ++k)
            ASSERT_EQ(fold_grid.at(i, j, k), fold_ref.at(i, j, k));

      // Slab rows must hold the global field; round-trip restores bricks.
      ASSERT_NE(slab_data, nullptr);
      for (int x = 0; x < pfft.local_nx(); ++x)
        for (int y = 0; y < kGlobal; ++y)
          for (int z = 0; z < kGlobal; ++z) {
            const auto& c =
                (*slab_data)[(static_cast<std::size_t>(x) * kGlobal + y) *
                                 kGlobal +
                             z];
            ASSERT_EQ(c.real(), static_cast<double>(cell_value(
                                    pfft.x_offset() + x, y, z, 0, kGlobal, 1)));
            ASSERT_EQ(c.imag(), 0.0);
          }
      slab.begin_to_brick(*slab_data);
      mesh::Grid3D<double> back(slab_brick.nx(), slab_brick.ny(),
                                slab_brick.nz(), 0);
      slab.finish_to_brick(back);
      for (int i = 0; i < back.nx(); ++i)
        for (int j = 0; j < back.ny(); ++j)
          for (int k = 0; k < back.nz(); ++k)
            ASSERT_EQ(back.at(i, j, k), slab_brick.at(i, j, k));

      comm.barrier();
    }
  });
}

// Abort landing while overlap plans are in flight: peers are waiting in
// finish_axis / finish_to_slab handle waits, not plain recv, which is the
// exact hang the PR-5 completion-handle abort path exists to prevent.
TEST(CommStress, AbortMidPlanOverlapWakesFinishers) {
  constexpr int kRanks = 4;
  constexpr int kGlobal = 8;
  constexpr int kNu = 2;
  for (std::uint64_t round = 0; round < 4; ++round) {
    const int thrower = static_cast<int>(round % kRanks);
    try {
      run(kRanks, [&](Communicator& comm) {
        CartTopology cart(comm, CartTopology::choose_dims(kRanks));
        const auto setup = make_brick(cart, kGlobal, kNu);
        vlasov::PhaseSpace f(setup.dims, {});
        mesh::HaloPlan halo(cart, setup.dims, 1000);
        fill_brick(f, setup.dec, kGlobal);

        if (comm.rank() == thrower)
          throw std::runtime_error("overlap rank died");

        // begin_axis's sends are buffered so they complete even with a
        // dead peer.  The thrower's cart-neighbors then block in
        // finish_axis handle waits on its never-sent faces and must be
        // woken with AbortedError; ranks that are not neighbors of the
        // dead rank legitimately finish (their faces all arrived) and
        // park in the barrier the thrower can never join.
        for (int axis = 0; axis < 3; ++axis) halo.begin_axis(f, axis);
        for (int axis = 0; axis < 3; ++axis) halo.finish_axis(f, axis);
        comm.barrier();
        FAIL() << "no rank may get past the dead rank's barrier";
      });
      FAIL() << "run() must rethrow the overlap error";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "overlap rank died");
    }
  }
}

// ---- storms over the transport seam ------------------------------------
// The same pressure the suites above apply to comm::run, pushed through
// run_transport + LaunchOptions::wrap so the Transport indirection and the
// FaultyTransport decorator sit on the hot path under TSan.

// Message storm through wrapped endpoints: every rank's transport is
// decorated with seeded random delays, which perturb thread schedules far
// more than the bare storm (sends park mid-flight while receivers spin).
TEST_P(CommStressRanks, MessageStormOverTransportSeamWithDelays) {
  const int p = GetParam();
  constexpr int kMessages = 24;
  LaunchOptions options;  // inproc: the storm exercises the seam itself
  options.wrap = [](std::unique_ptr<Transport> inner, int rank) {
    FaultPlan plan;
    plan.seed = 0xde1a + static_cast<std::uint64_t>(rank);
    plan.delay_prob = 0.15;
    plan.delay_ms = 0.2;
    return std::unique_ptr<Transport>(
        new FaultyTransport(std::move(inner), plan));
  };
  run_transport(p, options, [&](Communicator& comm) {
    const int me = comm.rank();
    EXPECT_STREQ(comm.transport().name(), "faulty");
    for (int s = 0; s < kMessages; ++s)
      for (int dst = 0; dst < p; ++dst) {
        if (dst == me) continue;
        std::vector<std::uint8_t> payload(storm_size(me, dst, s));
        for (std::size_t i = 0; i < payload.size(); ++i)
          payload[i] = storm_byte(me, s, i);
        comm.send(dst, 300, payload.data(), payload.size());
      }
    // Collectives interleave with the drain (they ride the transport's
    // internal channel, so they must not perturb inbox FIFO order).
    double sum = me;
    comm.allreduce_sum(&sum, 1);
    EXPECT_DOUBLE_EQ(sum, p * (p - 1) / 2.0);
    for (int src = 0; src < p; ++src) {
      if (src == me) continue;
      for (int s = 0; s < kMessages; ++s) {
        const auto payload = comm.recv_bytes(src, 300);
        ASSERT_EQ(payload.size(), storm_size(src, me, s));
        for (std::size_t i = 0; i < payload.size(); ++i)
          ASSERT_EQ(payload[i], storm_byte(src, s, i));
      }
    }
    comm.barrier();
  });
}

// A seeded drop lands mid-storm on one wrapped rank while its peers are
// parked across recv / handle-wait / barrier; every schedule must end in
// the decorator's TransportError — never a hang, never a leaked
// AbortedError.
TEST(CommStress, InjectedDropMidStormAbortsEverySchedule) {
  constexpr int p = 4;
  for (std::uint64_t round = 0; round < 8; ++round) {
    const int victim = static_cast<int>(round % p);
    LaunchOptions options;
    options.wrap = [&](std::unique_ptr<Transport> inner, int rank) {
      if (rank != victim) return inner;
      FaultPlan plan;
      plan.seed = 0xd809 + round;
      plan.drop_after = static_cast<long>(round % 5);
      return std::unique_ptr<Transport>(
          new FaultyTransport(std::move(inner), plan));
    };
    EXPECT_THROW(
        run_transport(p, options, [&](Communicator& comm) {
          const int me = comm.rank();
          // The wrap factory lambda's early return runs once at launch,
          // not in this rank body; every rank reaches this barrier.
          // v6d-analyze: allow(collective-consistency): early return is in the wrap factory lambda, not the rank body
          comm.barrier();
          if (me == victim) {
            for (int s = 0; s < 8; ++s) {
              const double v = s;
              comm.send((me + 1 + s) % p, 710, &v, 1);
            }
            FAIL() << "a drop must fire within the victim's 8 sends";
          }
          switch (me % 3) {
            case 0: {
              double sink = 0.0;
              comm.recv(victim, 910, &sink, 1);  // never sent
              break;
            }
            case 1: {
              auto handle = comm.irecv(victim, 911);  // never sent
              handle.wait();
              break;
            }
            default:
              // v6d-analyze: allow(collective-consistency): deliberately unmatched — the test asserts the injected drop aborts ranks parked here
              comm.barrier();  // victim never arrives
              break;
          }
          FAIL() << "no rank may outlive the injected drop";
        }),
        TransportError);
  }
}

// ---- abort vs liveness-deadline interleavings ---------------------------
// The detection tier of docs/ROBUSTNESS.md has two wake-up paths that can
// race: a rank dying loudly (abort fan-out over kAbort frames) and a rank
// going silent (missed liveness deadline).  These storms pin both across
// world sizes while peers park in every blocking primitive the solver
// uses; whatever interleaving the scheduler picks, every rank must be
// woken with a typed error — no failure path may hang.

class LivenessStormRanks : public ::testing::TestWithParam<int> {};

// Pure-timeout path: the last rank stops heartbeating and goes silent
// while everyone else is parked across recv / handle-wait / barrier /
// allreduce.  The deadline must wake all of them (and the silent rank
// itself, via the fan-out) with kPeerLost naming the victim.
TEST_P(LivenessStormRanks, SilentPeerWakesWaitersParkedEverywhere) {
  const int p = GetParam();
  const int victim = p - 1;
  LaunchOptions options;
  options.backend = "tcp";
  options.timeout_s = 30.0;
  options.liveness_timeout_s = 0.5;
  try {
    run_transport(p, options, [&](Communicator& comm) {
      const int me = comm.rank();
      comm.barrier();
      if (me == victim) {
        auto* tcp = dynamic_cast<TcpTransport*>(&comm.transport());
        ASSERT_NE(tcp, nullptr);
        tcp->debug_suppress_heartbeats();
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));
        double never = 0.0;
        comm.recv(0, 960, &never, 1);  // the fan-out diagnosis lands here
        FAIL() << "the silent rank must learn it was declared lost";
      }
      switch (me % 4) {
        case 0: {
          double sink = 0.0;
          comm.recv(victim, 960, &sink, 1);  // never sent
          break;
        }
        case 1: {
          auto handle = comm.irecv(victim, 961);  // never sent
          handle.wait();
          break;
        }
        case 2:
          comm.barrier();  // the silent victim never arrives
          break;
        default: {
          double sum = me;
          comm.allreduce_sum(&sum, 1);  // the victim never contributes
          break;
        }
      }
      FAIL() << "no survivor may outlive the missed deadline";
    });
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.fault(), TransportFault::kPeerLost);
    EXPECT_EQ(e.peer(), victim);
  }
}

// Race the two paths directly: the victim's deadline clock is armed
// (heartbeats suppressed) while rank 0 throws at a round-dependent offset
// inside the deadline window — before it on early rounds, after it on the
// last.  Either wake-up order must surface exactly one of the two typed
// errors on every schedule.
TEST_P(LivenessStormRanks, AbortRacingTheDeadlineNeverHangs) {
  const int p = GetParam();
  const int victim = p - 1;
  for (std::uint64_t round = 0; round < 3; ++round) {
    LaunchOptions options;
    options.backend = "tcp";
    options.timeout_s = 30.0;
    options.liveness_timeout_s = 0.5;
    bool threw = false;
    try {
      run_transport(p, options, [&](Communicator& comm) {
        const int me = comm.rank();
        comm.barrier();
        if (me == victim) {
          auto* tcp = dynamic_cast<TcpTransport*>(&comm.transport());
          ASSERT_NE(tcp, nullptr);
          tcp->debug_suppress_heartbeats();
        }
        if (me == 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(50 + static_cast<long>(round) * 240));
          throw std::runtime_error("storm abort rank died");
        }
        // The victim parks on the thrower; everyone else on the victim.
        const int peer = (me == victim) ? 0 : victim;
        switch (me % 4) {
          case 0: {
            double sink = 0.0;
            comm.recv(peer, 970, &sink, 1);  // never sent
            break;
          }
          case 1: {
            auto handle = comm.irecv(peer, 971);  // never sent
            handle.wait();
            break;
          }
          case 2:
            comm.barrier();  // the thrower never arrives
            break;
          default: {
            double sum = me;
            comm.allreduce_sum(&sum, 1);  // the thrower never contributes
            break;
          }
        }
        FAIL() << "no rank may outlive the abort/deadline race";
      });
      FAIL() << "run_transport must rethrow one of the racing errors";
    } catch (const std::exception& e) {
      threw = true;
      const std::string what = e.what();
      EXPECT_TRUE(what == "storm abort rank died" ||
                  what.find("liveness deadline") != std::string::npos)
          << "unexpected winner of the race: " << what;
    }
    EXPECT_TRUE(threw);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, LivenessStormRanks,
                         ::testing::Values(2, 4, 8));

}  // namespace
