/** @file Heap allocator, region tables, stats, and RNG unit tests. */

#include <gtest/gtest.h>

#include <vector>

#include "cohesion/region_table.hh"
#include "runtime/heap.hh"
#include "runtime/layout.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace {

TEST(Heap, AllocatesLineAlignedAndRounded)
{
    runtime::Heap h("t", 0x1000, 0x1000);
    mem::Addr a = h.alloc(10);
    EXPECT_EQ(a % mem::lineBytes, 0u);
    mem::Addr b = h.alloc(33);
    EXPECT_EQ(b, a + mem::lineBytes);       // 10 -> one line
    EXPECT_EQ(h.alloc(1), b + 2 * mem::lineBytes); // 33 -> two lines
}

TEST(Heap, MinimumAllocationGranule)
{
    runtime::Heap h("inc", 0x1000, 0x1000, 64);
    mem::Addr a = h.alloc(4);
    mem::Addr b = h.alloc(4);
    EXPECT_EQ(b - a, 64u); // paper: 64-byte minimum on incoherent heap
}

TEST(Heap, FreeAndCoalesce)
{
    runtime::Heap h("t", 0x1000, 0x1000);
    mem::Addr a = h.alloc(32);
    mem::Addr b = h.alloc(32);
    mem::Addr c = h.alloc(32);
    h.free(a);
    h.free(c);
    h.free(b); // coalesces with both neighbours
    mem::Addr big = h.alloc(96);
    EXPECT_EQ(big, a);
}

TEST(Heap, DoubleFreeAndOomAreFatal)
{
    runtime::Heap h("t", 0x1000, 0x80);
    mem::Addr a = h.alloc(32);
    h.free(a);
    EXPECT_THROW(h.free(a), std::runtime_error);
    h.alloc(128);
    EXPECT_THROW(h.alloc(32), std::runtime_error);
}

TEST(Heap, TracksLiveAndPeak)
{
    runtime::Heap h("t", 0x1000, 0x1000);
    mem::Addr a = h.alloc(64);
    h.alloc(64);
    EXPECT_EQ(h.bytesLive(), 128u);
    h.free(a);
    EXPECT_EQ(h.bytesLive(), 64u);
    EXPECT_EQ(h.peakBytes(), 128u);
    EXPECT_EQ(h.allocations(), 1u);
}

TEST(CoarseRegionTable, ContainsAndKinds)
{
    cohesion::CoarseRegionTable t;
    t.add(0x1000, 0x1000, cohesion::RegionKind::Code);
    t.add(0x8000, 0x100, cohesion::RegionKind::Stack);
    EXPECT_TRUE(t.contains(0x1000));
    EXPECT_TRUE(t.contains(0x1FFF));
    EXPECT_FALSE(t.contains(0x2000));
    EXPECT_TRUE(t.contains(0x80FF));
    EXPECT_EQ(t.regions().size(), 2u);
    EXPECT_THROW(t.add(0x1001, 4, cohesion::RegionKind::Other),
                 std::runtime_error);
}

TEST(FineTable, PokePeekRoundTrip)
{
    mem::BackingStore store;
    mem::AddressMap map(8, 2, 0xF000'0000);
    mem::Addr a = 0x6000'0040;
    EXPECT_FALSE(cohesion::fine_table::peekBit(store, map, a));
    cohesion::fine_table::pokeBit(store, map, a, true);
    EXPECT_TRUE(cohesion::fine_table::peekBit(store, map, a));
    // Neighbouring lines are unaffected.
    EXPECT_FALSE(cohesion::fine_table::peekBit(store, map, a + 32));
    EXPECT_FALSE(cohesion::fine_table::peekBit(store, map, a - 32));
    cohesion::fine_table::pokeBit(store, map, a, false);
    EXPECT_FALSE(cohesion::fine_table::peekBit(store, map, a));
}

TEST(FineTable, PokeRegionCoversExactly)
{
    mem::BackingStore store;
    mem::AddressMap map(8, 2, 0xF000'0000);
    cohesion::fine_table::pokeRegion(store, map, 0x6000'0000, 4096, true);
    EXPECT_TRUE(cohesion::fine_table::peekBit(store, map, 0x6000'0000));
    EXPECT_TRUE(cohesion::fine_table::peekBit(store, map, 0x6000'0FE0));
    EXPECT_FALSE(cohesion::fine_table::peekBit(store, map, 0x6000'1000));
    EXPECT_FALSE(
        cohesion::fine_table::peekBit(store, map, 0x5FFF'FFE0));
}

/** The whole 16 MB fine table of @p store, byte for byte. */
std::vector<std::uint8_t>
tableBytes(const mem::BackingStore &store, const mem::AddressMap &map)
{
    std::vector<std::uint8_t> bytes(mem::fineTableBytes);
    store.read(map.tableBase(), bytes.data(), mem::fineTableBytes);
    return bytes;
}

TEST(FineTable, PokeRegionMatchesPerLinePokeBit)
{
    // 32 banks, so the tbloff permutation scatters neighbouring words.
    const mem::AddressMap map(32, 8, 0xF000'0000);
    struct Case
    {
        mem::Addr start;
        std::uint32_t size;
    };
    const Case cases[] = {
        {0x6000'0160, 5000},         // starts mid-block, ends mid-block
        {0x6000'07E0, 40},           // last line of a block into the next
        {0x6000'0171, 3000},         // start inside a line
        {0x6000'0400, 3 * 1024 + 1}, // block aligned, one byte over
        {0x6000'0400, 1024},         // exactly one word
    };
    for (const Case &c : cases) {
        for (bool swcc : {true, false}) {
            mem::BackingStore fill, reference;
            // Pre-set random table bits in and around the region, so
            // the fill must keep the bits outside it.
            sim::Rng rng(c.start ^ c.size ^ swcc);
            for (mem::Addr a = c.start - 4096; a < c.start + c.size + 4096;
                 a += 1024) {
                const auto w = static_cast<std::uint32_t>(rng.next());
                fill.writeT(map.tableWordAddr(a), w);
                reference.writeT(map.tableWordAddr(a), w);
            }
            cohesion::fine_table::pokeRegion(fill, map, c.start, c.size,
                                             swcc);
            for (mem::Addr a = mem::lineBase(c.start); a < c.start + c.size;
                 a += mem::lineBytes) {
                cohesion::fine_table::pokeBit(reference, map, a, swcc);
            }
            EXPECT_TRUE(tableBytes(fill, map) == tableBytes(reference, map))
                << std::hex << "start 0x" << c.start << " size 0x"
                << c.size << " swcc " << swcc;
        }
    }
}

TEST(Layout, SegmentClassification)
{
    using runtime::Layout;
    EXPECT_EQ(Layout::classify(Layout::codeBase + 4),
              arch::Segment::Code);
    EXPECT_EQ(Layout::classify(Layout::stackFor(3)),
              arch::Segment::Stack);
    EXPECT_EQ(Layout::classify(Layout::cohHeapBase),
              arch::Segment::HeapGlobal);
    EXPECT_EQ(Layout::classify(Layout::incHeapBase + 100),
              arch::Segment::HeapGlobal);
}

TEST(Stats, CounterAndDistribution)
{
    sim::Counter c;
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);

    sim::Distribution d;
    d.sample(3);
    d.sample(1);
    d.sample(5);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.min(), 1);
    EXPECT_DOUBLE_EQ(d.max(), 5);
    EXPECT_DOUBLE_EQ(d.mean(), 3);
}

TEST(Stats, TimeSamplerAveragesAndMax)
{
    sim::TimeSampler s(1000);
    s.sample(10);
    s.sample(20);
    s.sample(30);
    EXPECT_DOUBLE_EQ(s.timeAverage(), 20);
    EXPECT_DOUBLE_EQ(s.maximum(), 30);
    EXPECT_EQ(s.samples(), 3u);
}

TEST(Stats, StatSetMerge)
{
    sim::StatSet a, b;
    a.set("x", 1);
    b.set("x", 2);
    b.set("y", 5);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3);
    EXPECT_DOUBLE_EQ(a.get("y"), 5);
    EXPECT_DOUBLE_EQ(a.get("z"), 0);
}

TEST(Rng, DeterministicAcrossInstances)
{
    sim::Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangesAreBounded)
{
    sim::Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(10), 10u);
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        double x = r.range(-2.0, 3.0);
        EXPECT_GE(x, -2.0);
        EXPECT_LT(x, 3.0);
    }
}

} // namespace
