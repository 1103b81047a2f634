/** @file
 * Harness-layer units: the Fig. 2 message taxonomy (names, sizes,
 * counting, merging), the statistics report, trace-category parsing,
 * and the table printer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "arch/msg.hh"
#include "harness/report.hh"
#include "harness/table.hh"
#include "sim/flight_recorder.hh"

namespace {

using arch::MsgClass;

TEST(MsgCounters, CountAndTotal)
{
    arch::MsgCounters c;
    c.count(MsgClass::ReadRequest);
    c.count(MsgClass::ReadRequest, 4);
    c.count(MsgClass::SoftwareFlush);
    EXPECT_EQ(c.get(MsgClass::ReadRequest), 5u);
    EXPECT_EQ(c.get(MsgClass::SoftwareFlush), 1u);
    EXPECT_EQ(c.get(MsgClass::ProbeResponse), 0u);
    EXPECT_EQ(c.total(), 6u);
}

TEST(MsgCounters, MergeSums)
{
    arch::MsgCounters a, b;
    a.count(MsgClass::WriteRequest, 2);
    b.count(MsgClass::WriteRequest, 3);
    b.count(MsgClass::ReadRelease, 1);
    a.merge(b);
    EXPECT_EQ(a.get(MsgClass::WriteRequest), 5u);
    EXPECT_EQ(a.get(MsgClass::ReadRelease), 1u);
}

TEST(MsgCounters, ExportUsesFigureNames)
{
    arch::MsgCounters c;
    c.count(MsgClass::UncachedAtomic, 7);
    sim::StatSet s;
    c.exportTo(s, "x.");
    EXPECT_DOUBLE_EQ(s.get("x.UncachedAtomics"), 7.0);
    EXPECT_TRUE(s.has("x.ReadReleases"));
}

TEST(MsgSizes, HeaderPlusDataWords)
{
    EXPECT_EQ(arch::msgBytes(0), 8u);
    EXPECT_EQ(arch::msgBytes(8), 8u + 32u);
}

TEST(MsgNames, AllClassesNamed)
{
    for (unsigned i = 0; i < arch::numMsgClasses; ++i) {
        EXPECT_STRNE(arch::msgClassName(static_cast<MsgClass>(i)), "?");
    }
}

TEST(Report, CollectsDerivedStats)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    harness::RunResult r;
    r.cycles = 1000;
    r.instructions = 16000;
    r.l2Hits = 75;
    r.l2Misses = 25;
    r.msgs.count(MsgClass::ReadRequest, 10);

    sim::StatSet s = harness::collectStats(cfg, r);
    EXPECT_DOUBLE_EQ(s.get("sim.cycles"), 1000.0);
    EXPECT_DOUBLE_EQ(s.get("l2.hit_rate"), 0.75);
    EXPECT_DOUBLE_EQ(s.get("sim.ipc_per_core"), 1.0);
    EXPECT_DOUBLE_EQ(s.get("l2_out.ReadRequests"), 10.0);
    EXPECT_DOUBLE_EQ(s.get("l2_out.total"), 10.0);
}

TEST(Report, CsvHasHeaderAndRows)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    harness::RunResult r;
    r.cycles = 5;
    std::ostringstream os;
    harness::printCsv(os, cfg, r);
    std::string out = os.str();
    EXPECT_NE(out.find("stat,value\n"), std::string::npos);
    EXPECT_NE(out.find("sim.cycles,5"), std::string::npos);
}

TEST(TraceCategories, ParseSelectsTheNamedCategoriesKinds)
{
    using FR = sim::FlightRecorder;
    using Ev = FR::Ev;
    EXPECT_EQ(FR::parseCategories(""), 0u);
    FR::KindMask all = FR::parseCategories("all");
    EXPECT_EQ(all & FR::kindBit(Ev::None), 0u);
    for (unsigned k = 1; k < unsigned(Ev::numEvents); ++k)
        EXPECT_NE(all & FR::kindBit(Ev(k)), 0u) << k;

    FR::KindMask m = FR::parseCategories("protocol,,transition");
    EXPECT_NE(m & FR::kindBit(Ev::MsgRecv), 0u);
    EXPECT_NE(m & FR::kindBit(Ev::TxnBegin), 0u);
    EXPECT_NE(m & FR::kindBit(Ev::TransStep), 0u);
    EXPECT_EQ(m & FR::kindBit(Ev::Fill), 0u);
    EXPECT_EQ(m & FR::kindBit(Ev::BarrierRelease), 0u);

    EXPECT_THROW(FR::parseCategories("bogus"), std::runtime_error);
    // Categories that no event kind belongs to are unknown too.
    EXPECT_THROW(FR::parseCategories("protocol,dram"), std::runtime_error);
}

TEST(Table, AlignsAndFormats)
{
    harness::Table t({"a", "bbbb"});
    t.addRow({"xxxxx", "y"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("xxxxx"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);

    EXPECT_EQ(harness::Table::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(harness::Table::fmtX(2.0), "2.00x");
    EXPECT_EQ(harness::Table::fmtCount(1500), "1.5K");
    EXPECT_EQ(harness::Table::fmtCount(2500000), "2.50M");
    EXPECT_EQ(harness::Table::fmtCount(42), "42");
}

} // namespace
