/** @file
 * Interconnect and end-to-end timing tests: fabric ordering and
 * serialization, hierarchy latencies (L1 hit < L2 hit < L3 round trip
 * < DRAM round trip), deterministic replay, the lazy-MemOp regression
 * (two awaits in one unsequenced expression), and L1/L2 data
 * agreement after mixed traffic.
 */

#include <gtest/gtest.h>

#include "arch/fabric.hh"
#include "protocol_rig.hh"
#include "sim/random.hh"

namespace {

using arch::CoherenceMode;
using test::Rig;

/** Full cluster->bank hop through the split send/accept halves, the
 *  way Chip routes it. */
sim::Tick
c2bHop(arch::Fabric &f, unsigned cluster, unsigned bank, unsigned bytes,
       sim::Tick depart)
{
    sim::Tick nominal =
        f.orderC2B(cluster, bank, f.c2bSend(cluster, bytes, depart));
    return f.c2bAccept(bank, nominal, depart);
}

sim::Tick
b2cHop(arch::Fabric &f, unsigned bank, unsigned cluster, unsigned bytes,
       sim::Tick depart)
{
    sim::Tick nominal =
        f.orderB2C(bank, cluster, f.b2cSend(bank, bytes, depart));
    return f.b2cAccept(cluster, nominal, depart);
}

TEST(Fabric, PointToPointOrderIsPreserved)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(4);
    arch::Fabric fabric(cfg);
    sim::Tick prev = 0;
    for (int i = 0; i < 32; ++i) {
        sim::Tick arrive = c2bHop(fabric, 0, 1, 16, 10 * i);
        EXPECT_GT(arrive, prev) << "message " << i << " reordered";
        prev = arrive;
    }
}

TEST(Fabric, SerializationLimitsBandwidth)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(4);
    arch::Fabric fabric(cfg);
    // Two 40-byte messages at the same tick: the second waits for the
    // first's serialization (40/8 = 5 cycles).
    sim::Tick a = c2bHop(fabric, 0, 0, 40, 100);
    sim::Tick b = c2bHop(fabric, 0, 0, 40, 100);
    EXPECT_EQ(b - a, 5u);
    // A different cluster's uplink is independent (only the bank
    // accept port is shared).
    arch::Fabric f2(cfg);
    sim::Tick c = c2bHop(f2, 0, 0, 40, 100);
    sim::Tick d = c2bHop(f2, 1, 0, 40, 100);
    EXPECT_LT(d - c, 5u);
}

TEST(Fabric, LatencyIsSymmetric)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(4);
    arch::Fabric fabric(cfg);
    sim::Tick up = c2bHop(fabric, 2, 1, 8, 0);
    arch::Fabric f2(cfg);
    sim::Tick down = b2cHop(f2, 1, 2, 8, 0);
    EXPECT_EQ(up, down);
}

TEST(Fabric, CountsBytes)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(4);
    arch::Fabric fabric(cfg);
    c2bHop(fabric, 0, 0, 40, 0);
    b2cHop(fabric, 0, 0, 8, 0);
    EXPECT_EQ(fabric.bytesUp(), 40u);
    EXPECT_EQ(fabric.bytesDown(), 8u);
}

// ---------------------------------------------------------------------
// End-to-end latencies
// ---------------------------------------------------------------------

TEST(Timing, HierarchyLatenciesAreOrdered)
{
    Rig rig(CoherenceMode::Cohesion);
    mem::Addr a = rig.rt->cohMalloc(64);

    sim::Tick cold = 0, l1 = 0, l2 = 0;
    rig.run1([](runtime::Ctx ctx, mem::Addr addr, sim::Tick *c,
                sim::Tick *h1, sim::Tick *h2) -> sim::CoTask {
        sim::Tick t0 = ctx.core().localTime();
        co_await ctx.load32(addr);
        *c = ctx.core().localTime() - t0;

        t0 = ctx.core().localTime();
        co_await ctx.load32(addr);
        *h1 = ctx.core().localTime() - t0;

        if (cache::Line *l = ctx.core().l1d().probe(addr))
            l->reset(); // force an L2 hit next
        t0 = ctx.core().localTime();
        co_await ctx.load32(addr);
        *h2 = ctx.core().localTime() - t0;
    }(rig.ctx(0), a, &cold, &l1, &l2));

    const arch::MachineConfig &cfg = rig.cfg;
    EXPECT_EQ(l1, cfg.l1Latency);
    EXPECT_EQ(l2, cfg.l1Latency + cfg.l2Latency);
    // Cold miss: at least two network traversals + L3 + DRAM.
    EXPECT_GT(cold, 2 * cfg.netLatency + cfg.l3Latency);
    EXPECT_GT(cold, l2);
}

TEST(Timing, L3HitIsFasterThanDram)
{
    Rig rig(CoherenceMode::Cohesion);
    mem::Addr a = rig.rt->cohMalloc(64);

    sim::Tick dram_miss = 0, l3_hit = 0;
    rig.run1([](runtime::Ctx ctx, mem::Addr addr, sim::Tick *m,
                sim::Tick *h) -> sim::CoTask {
        sim::Tick t0 = ctx.core().localTime();
        co_await ctx.load32(addr);
        *m = ctx.core().localTime() - t0;

        // Drop every cached copy above the L3; re-load hits the L3.
        co_await ctx.core().invLine(addr);
        t0 = ctx.core().localTime();
        co_await ctx.load32(addr);
        *h = ctx.core().localTime() - t0;
    }(rig.ctx(0), a, &dram_miss, &l3_hit));

    EXPECT_LT(l3_hit, dram_miss);
    EXPECT_GT(l3_hit, 2 * rig.cfg.netLatency);
}

// ---------------------------------------------------------------------
// Regression: unsequenced awaits in one expression (lazy MemOp)
// ---------------------------------------------------------------------

TEST(LazyMemOp, UnsequencedAwaitsDeliverCorrectValues)
{
    // Two *cold-missing* loads awaited inside a single expression:
    // with eager issue this historically crossed the completions (the
    // gjk dz bug); lazy issue guarantees one outstanding op per core.
    Rig rig(CoherenceMode::Cohesion);
    mem::Addr a = rig.rt->cohMalloc(64);
    mem::Addr b = rig.rt->cohMalloc(64);
    rig.rt->poke<std::uint32_t>(a, 1000);
    rig.rt->poke<std::uint32_t>(b, 1);

    std::uint32_t diff = 0;
    rig.run1([](runtime::Ctx ctx, mem::Addr x, mem::Addr y,
                std::uint32_t *out) -> sim::CoTask {
        *out = static_cast<std::uint32_t>(co_await ctx.load32(x)) -
               static_cast<std::uint32_t>(co_await ctx.load32(y));
    }(rig.ctx(0), a, b, &diff));
    EXPECT_EQ(diff, 999u);
}

TEST(LazyMemOp, UnawaitedOpHasNoSideEffects)
{
    Rig rig(CoherenceMode::Cohesion);
    mem::Addr a = rig.rt->cohMalloc(64);
    rig.run1([](runtime::Ctx ctx, mem::Addr addr) -> sim::CoTask {
        arch::MemOp dropped = ctx.store32(addr, 77);
        (void)dropped; // never awaited: must never issue
        co_return;
    }(rig.ctx(0), a));
    EXPECT_EQ(rig.chip->coherentRead32(a), 0u);
    EXPECT_EQ(rig.msg(arch::MsgClass::WriteRequest), 0u);
}

// ---------------------------------------------------------------------
// L1/L2 agreement
// ---------------------------------------------------------------------

TEST(L1Consistency, L1LinesMatchTheirL2Lines)
{
    Rig rig(CoherenceMode::Cohesion);
    mem::Addr base = rig.rt->cohMalloc(1024);

    // Mixed traffic from every core of cluster 0.
    std::vector<sim::CoTask> v;
    for (unsigned c = 0; c < 8; ++c) {
        v.push_back([](runtime::Ctx ctx, mem::Addr b,
                       unsigned id) -> sim::CoTask {
            sim::Rng rng(id + 42);
            for (int i = 0; i < 200; ++i) {
                mem::Addr w = b + rng.below(256) * 4;
                if (rng.below(3) == 0)
                    co_await ctx.store32(w, (id << 16) | i);
                else
                    co_await ctx.load32(w);
            }
        }(rig.ctx(c), base, c));
    }
    rig.run(std::move(v));

    // Every valid L1D word must equal the L2's copy (write-through
    // plus intra-cluster snooping keeps them identical).
    arch::Cluster &cl = rig.chip->cluster(0);
    for (unsigned c = 0; c < 8; ++c) {
        cl.core(c).l1d().forEachValid([&](cache::Line &l1) {
            cache::Line *l2 = cl.l2().probe(l1.base);
            ASSERT_NE(l2, nullptr)
                << "L1 line without a backing L2 line";
            for (unsigned w = 0; w < mem::wordsPerLine; ++w) {
                if (!(l1.validMask & (1u << w)) ||
                    !(l2->validMask & (1u << w)))
                    continue;
                std::uint32_t a = 0, b = 0;
                l1.read(l1.base + w * 4, &a, 4);
                l2->read(l1.base + w * 4, &b, 4);
                EXPECT_EQ(a, b) << "L1/L2 divergence at word " << w;
            }
        });
    }
}

TEST(Determinism, IdenticalRunsProduceIdenticalTiming)
{
    auto once = []() {
        Rig rig(CoherenceMode::Cohesion);
        mem::Addr a = rig.rt->cohMalloc(2048);
        std::vector<sim::CoTask> v;
        for (unsigned c = 0; c < rig.chip->totalCores(); ++c) {
            v.push_back([](runtime::Ctx ctx, mem::Addr b) -> sim::CoTask {
                sim::Rng rng(ctx.coreId());
                for (int i = 0; i < 100; ++i) {
                    mem::Addr w = b + rng.below(512) * 4;
                    if (rng.below(2))
                        co_await ctx.store32(w, i);
                    else
                        co_await ctx.load32(w);
                }
                co_await ctx.barrier();
            }(rig.ctx(c), a));
        }
        rig.run(std::move(v));
        return std::pair<sim::Tick, std::uint64_t>(
            rig.chip->eq().now(), rig.chip->aggregateMessages().total());
    };
    auto a = once();
    auto b = once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

} // namespace
