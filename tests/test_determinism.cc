/** @file
 * Golden determinism check: the simulator must be a pure function of
 * its configuration and seed. One kernel is run twice in the same
 * process and the runs must agree on the final tick, the number of
 * events fired, and a hash over the full flattened stat registry —
 * any hidden global state, iteration-order dependence (e.g. hashing
 * pointers), or queue-ordering instability shows up as a mismatch.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/chip.hh"
#include "arch/machine_config.hh"
#include "coherence/auditor.hh"
#include "harness/session.hh"
#include "kernels/registry.hh"
#include "runtime/ctx.hh"
#include "runtime/layout.hh"
#include "sim/flight_recorder.hh"
#include "sim/host_profiler.hh"
#include "sim/logging.hh"
#include "sim/stat_registry.hh"

namespace {

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ULL;
    }
    return h;
}

struct Fingerprint
{
    sim::Tick finalTick = 0;
    std::uint64_t eventsRun = 0;
    std::uint64_t statHash = 0;

    bool
    operator==(const Fingerprint &o) const
    {
        return finalTick == o.finalTick && eventsRun == o.eventsRun &&
               statHash == o.statHash;
    }
};

/** Set @p kernel_name up on @p chip (scale 1), run it to quiescence
 *  and verify it. @return the final tick. */
sim::Tick
runKernel(arch::Chip &chip, runtime::CohesionRuntime &rt,
          const std::string &kernel_name)
{
    kernels::Params params;
    params.scale = 1;
    auto kernel = kernels::kernelFactory(kernel_name)(params);
    kernel->setup(rt);

    std::vector<sim::CoTask> workers;
    workers.reserve(chip.totalCores());
    for (unsigned c = 0; c < chip.totalCores(); ++c)
        workers.push_back(kernel->worker(runtime::Ctx(rt, chip.core(c))));
    for (auto &w : workers)
        w.start();

    sim::Tick final_tick = chip.runUntilQuiescent();
    for (auto &w : workers)
        w.rethrow();
    kernel->verify(rt);
    return final_tick;
}

/** One complete kernel run, reduced to its deterministic fingerprint.
 *  @p progress installs a hook on the shortest interval, maximising
 *  the number of extra event-queue burst boundaries. */
Fingerprint
runOnce(const std::string &kernel_name, bool progress = false)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    arch::Chip chip(cfg, runtime::Layout::tableBase);
    runtime::CohesionRuntime rt(chip);
    if (progress)
        chip.setProgressHook([](sim::Tick, std::uint64_t) {}, 0.0);

    Fingerprint fp;
    fp.finalTick = runKernel(chip, rt, kernel_name);
    fp.eventsRun = chip.totalEventsRun();

    sim::StatRegistry reg;
    chip.registerStats(reg);
    std::ostringstream csv;
    reg.dumpCsv(csv);
    fp.statHash = fnv1a(csv.str());
    return fp;
}

/** runOnce traced every way a run can be: all --trace categories, a
 *  --watch-line and a --trace-json stream, through the Session's
 *  record listener. Ring and auditor stay off, as in runOnce, so the
 *  tracing is the only difference. */
Fingerprint
runTraced(const std::string &kernel_name)
{
    kernels::Params params;
    params.scale = 1;
    harness::Session session(arch::MachineConfig::scaled(2), params.seed);
    auto kernel = kernels::kernelFactory(kernel_name)(params);
    harness::RunOptions opts;
    opts.audit = false;
    opts.recorderCapacity = 0;
    opts.traceMask = sim::FlightRecorder::parseCategories("all");
    std::ostringstream json;
    opts.traceJson = &json;
    opts.watchLine = runtime::Layout::tableBase;

    Fingerprint fp;
    {
        sim::LogCapture narration;
        harness::RunResult r = session.run(*kernel, opts);
        fp.finalTick = r.cycles;
        fp.eventsRun = r.eventsRun;
        EXPECT_NE(narration.text().find("barrier.release"),
                  std::string::npos);
    }
    EXPECT_NE(json.str().find("\"ph\":\"b\""), std::string::npos);

    sim::StatRegistry reg;
    session.chip().registerStats(reg);
    std::ostringstream csv;
    reg.dumpCsv(csv);
    fp.statHash = fnv1a(csv.str());
    return fp;
}

TEST(Determinism, RepeatedRunIsBitIdentical)
{
    Fingerprint a = runOnce("heat");
    Fingerprint b = runOnce("heat");
    EXPECT_EQ(a.finalTick, b.finalTick);
    EXPECT_EQ(a.eventsRun, b.eventsRun);
    EXPECT_EQ(a.statHash, b.statHash);
    EXPECT_TRUE(a == b);
    // A trivially-empty run would make the equality vacuous.
    EXPECT_GT(a.finalTick, 0u);
    EXPECT_GT(a.eventsRun, 0u);
}

/** The host profiler, the progress hook and tracing are strictly
 *  observers: the golden fingerprint (which hashes the chip's stat
 *  registry — host.* never registers there) must not move when any
 *  of them is on. */
TEST(Determinism, ProfilerAndProgressDoNotPerturb)
{
    Fingerprint base = runOnce("heat");

    sim::HostProfiler::enable();
    Fingerprint profiled = runOnce("heat");
    // Progress chunking bounds dispatch bursts; run it together with
    // the profiler, the way --progress --host-profile runs do.
    Fingerprint both = runOnce("heat", /*progress=*/true);
    sim::HostProfiler::disable();
    Fingerprint progressed = runOnce("heat", /*progress=*/true);
    Fingerprint traced = runTraced("heat");

    EXPECT_TRUE(base == profiled);
    EXPECT_TRUE(base == progressed);
    EXPECT_TRUE(base == both);
    EXPECT_TRUE(base == traced);

    // And the profiler actually observed the profiled runs.
    sim::HostProfiler::Profile p = sim::HostProfiler::threadSnapshot();
    EXPECT_GT(p[sim::HostProfiler::Phase::EqDispatch].count, 0u);
}

/** The run loop's final-tick and cadence rule: runUntilQuiescent
 *  leaves the clock on the last fired event, and a cadence fires only
 *  while events are still pending past it. Audits land at entry + k *
 *  period, so exactly the cadence ticks strictly before the final tick
 *  may audit, and no sample row lies past the final tick. A cadence
 *  that advanced a drained queue would show up here as an extra audit
 *  pass and a final tick past the last event. */
TEST(Determinism, RunEndsOnLastFiredEventWithNoTrailingCadence)
{
    {
        // The edge case directly: the last event lands a few ticks
        // before an audit and a sample cadence.
        arch::Chip chip(arch::MachineConfig::scaled(2),
                        runtime::Layout::tableBase);
        chip.enableAudit(1000);
        chip.enableOccupancySampling(1000);
        bool fired = false;
        chip.eq().schedule(995, [&fired] { fired = true; });
        EXPECT_EQ(chip.runUntilQuiescent(), 995u);
        EXPECT_TRUE(fired);
        EXPECT_EQ(chip.eq().now(), 995u);
        EXPECT_EQ(chip.auditor()->passes(), 0u);
        EXPECT_TRUE(chip.timeSeries().data().rows.empty());
    }
    for (const char *kernel_name : {"heat", "cg", "kmeans"}) {
        arch::Chip chip(arch::MachineConfig::scaled(2),
                        runtime::Layout::tableBase);
        runtime::CohesionRuntime rt(chip);
        constexpr sim::Tick auditPeriod = 997;
        chip.enableAudit(auditPeriod);
        chip.enableOccupancySampling(499);

        const sim::Tick entry = chip.eq().now();
        const std::uint64_t passes0 = chip.auditor()->passes();
        const sim::Tick final_tick = runKernel(chip, rt, kernel_name);

        EXPECT_EQ(chip.eq().now(), chip.eq().lastFired()) << kernel_name;
        EXPECT_EQ(final_tick, chip.eq().lastFired()) << kernel_name;
        ASSERT_GT(final_tick, entry) << kernel_name;
        EXPECT_EQ(chip.auditor()->passes() - passes0,
                  (final_tick - entry - 1) / auditPeriod)
            << kernel_name;
        const auto &rows = chip.timeSeries().data().rows;
        ASSERT_FALSE(rows.empty()) << kernel_name;
        EXPECT_LE(rows.back().tick, final_tick) << kernel_name;
    }
}

/** --progress heartbeats come from inside the run, not only from its
 *  end: with the shortest interval the hook fires between dispatch
 *  slices, never goes backwards, and its last beat is the final tick. */
TEST(Determinism, ProgressHookBeatsDuringTheRun)
{
    arch::Chip chip(arch::MachineConfig::scaled(2),
                    runtime::Layout::tableBase);
    runtime::CohesionRuntime rt(chip);
    std::vector<std::pair<sim::Tick, std::uint64_t>> beats;
    chip.setProgressHook(
        [&beats](sim::Tick t, std::uint64_t events) {
            beats.emplace_back(t, events);
        },
        0.0);
    const sim::Tick final_tick = runKernel(chip, rt, "heat");

    ASSERT_GE(beats.size(), 3u);
    EXPECT_EQ(beats.back().first, final_tick);
    EXPECT_EQ(beats.back().second, chip.totalEventsRun());
    std::size_t mid_run = 0;
    for (std::size_t i = 0; i < beats.size(); ++i) {
        mid_run += beats[i].first < final_tick;
        if (i) {
            EXPECT_LE(beats[i - 1].first, beats[i].first);
            EXPECT_LE(beats[i - 1].second, beats[i].second);
        }
    }
    EXPECT_GE(mid_run, 2u);
}

} // namespace
