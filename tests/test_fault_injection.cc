/** @file
 * Fault-injection tests: the benchmark verifiers must actually detect
 * corruption. Each test runs a kernel to a verified-green state, then
 * injects a single-word fault through the FaultInjector's targeted
 * MemDataFlip site (which corrupts the newest visible copy, exactly as
 * coherentRead32 would find it) and asserts that verify() reports a
 * mismatch. Guards against vacuous verification — a verifier that
 * cannot fail would make every green kernel test meaningless.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/cluster.hh"
#include "harness/runner.hh"
#include "harness/session.hh"
#include "kernels/registry.hh"
#include "runtime/ctx.hh"

namespace {

/** Run @p kernel, inject a fault via @p corrupt, expect verify to
 *  throw. */
void
expectVerifierCatches(const std::string &name,
                      std::function<void(arch::Chip &,
                                         runtime::CohesionRuntime &)>
                          corrupt)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    cfg.mode = arch::CoherenceMode::Cohesion;
    kernels::Params params;
    auto kernel = kernels::kernelFactory(name)(params);

    arch::Chip chip(cfg, runtime::Layout::tableBase);
    runtime::CohesionRuntime rt(chip);
    kernel->setup(rt);
    std::vector<sim::CoTask> workers;
    for (unsigned c = 0; c < chip.totalCores(); ++c)
        workers.push_back(kernel->worker(runtime::Ctx(rt, chip.core(c))));
    for (auto &w : workers)
        w.start();
    chip.runUntilQuiescent();
    for (auto &w : workers) {
        w.rethrow();
        ASSERT_TRUE(w.done());
    }

    kernel->verify(rt); // must pass clean

    std::uint64_t before =
        chip.faults().injected(sim::FaultSite::MemDataFlip);
    corrupt(chip, rt);
    EXPECT_GE(chip.faults().injected(sim::FaultSite::MemDataFlip), before)
        << name << ": injector did not account for the fault";
    EXPECT_THROW(kernel->verify(rt), std::runtime_error)
        << name << ": verifier did not detect the injected fault";
}

TEST(FaultInjection, HeatVerifierCatchesCorruptCell)
{
    // Deliberately bypasses the FaultInjector: smash every cached copy
    // by hand so this guard stays meaningful even if injectFault()
    // itself regresses. Keep exactly one such direct-smash test.
    expectVerifierCatches("heat", [](arch::Chip &chip,
                                     runtime::CohesionRuntime &) {
        // Both heat buffers are the first two incoherent allocations.
        mem::Addr a = runtime::Layout::incHeapBase + 5 * 4;
        std::uint32_t v = 0x7F000000;
        chip.debugWriteT<std::uint32_t>(a, v);
        mem::Addr base = mem::lineBase(a);
        for (unsigned c = 0; c < chip.numClusters(); ++c) {
            if (cache::Line *l = chip.cluster(c).l2().probe(base))
                l->write(a, &v, 4);
        }
        if (cache::Line *l =
                chip.bank(chip.map().bankOf(base)).l3().probe(base)) {
            l->write(a, &v, 4);
        }
    });
}

TEST(FaultInjection, DmmVerifierCatchesCorruptProduct)
{
    expectVerifierCatches("dmm", [](arch::Chip &chip,
                                    runtime::CohesionRuntime &) {
        // C is the third allocation: A and B are n*n floats each.
        std::uint32_t n = 32;
        mem::Addr c_base =
            runtime::Layout::incHeapBase + 2 * n * n * 4;
        chip.injectFault(sim::FaultSite::MemDataFlip, c_base + 17 * 4,
                         0x7F000000);
    });
}

TEST(FaultInjection, SobelVerifierCatchesCorruptEdgeCount)
{
    expectVerifierCatches("sobel", [](arch::Chip &chip,
                                      runtime::CohesionRuntime &) {
        // The edge counter lives on the coherent heap (first alloc).
        chip.injectFault(sim::FaultSite::MemDataFlip,
                         runtime::Layout::cohHeapBase, 0x00BC614E);
    });
}

/** The writeback-ack dedup set is hard-bounded: a hostile drop storm
 *  can grow the set of never-acked message ids without limit, and an
 *  unbounded set is a slow memory-exhaustion kill. The bound evicts
 *  oldest-first and counts what it shed. */
TEST(FaultInjection, PendingWritebackSetIsBounded)
{
    arch::BoundedIdSet set(4);
    EXPECT_EQ(set.capacity(), 4u);
    for (std::uint32_t id = 0; id < 10; ++id)
        EXPECT_TRUE(set.insert(id));
    EXPECT_EQ(set.size(), 4u);
    EXPECT_EQ(set.evictions().value(), 6u);
    // Oldest ids were evicted, newest retained.
    EXPECT_FALSE(set.contains(0));
    EXPECT_FALSE(set.contains(5));
    EXPECT_TRUE(set.contains(6));
    EXPECT_TRUE(set.contains(9));
    // Duplicate insert neither grows nor evicts.
    EXPECT_FALSE(set.insert(7));
    EXPECT_EQ(set.size(), 4u);
    EXPECT_EQ(set.evictions().value(), 6u);
    // erase() reports whether the id was present (a duplicated ack or
    // an evicted id comes back false).
    EXPECT_TRUE(set.erase(8));
    EXPECT_FALSE(set.erase(8));
    EXPECT_FALSE(set.erase(3));
    EXPECT_EQ(set.size(), 3u);
    EXPECT_EQ(arch::Cluster::pendingWbCapacity, 4096u);
}

/** A message whose drop-retransmit budget is exhausted used to be
 *  force-delivered silently. Drive every cluster-to-bank message
 *  through the full drop budget (rate 1.0) and demand the surfacing:
 *  the chip.retries.exhausted counter moves and the flight recorder
 *  carries the event — while the run still completes and verifies
 *  (forced delivery is the fault model's liveness guarantee). */
TEST(FaultInjection, ExhaustedRetransmitBudgetIsSurfaced)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    cfg.faults.site(sim::FaultSite::FabricC2BDrop).rate = 1.0;

    harness::Session session(cfg, kernels::Params{}.seed);
    kernels::Params params;
    params.scale = 1;
    auto kernel = kernels::kernelFactory("gjk")(params);
    harness::RunResult r = session.run(*kernel);

    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(session.chip().retriesExhausted(), 0u);

    bool recorded = false;
    session.chip().recorder().forEach(
        [&](const sim::FlightRecorder::Record &rec) {
            if (static_cast<sim::FlightRecorder::Ev>(rec.kind) ==
                sim::FlightRecorder::Ev::RetransmitExhausted) {
                recorded = true;
            }
        });
    EXPECT_TRUE(recorded)
        << "no msg.retransmit-exhausted event in the flight recorder";
}

TEST(FaultInjection, CgVerifierCatchesCorruptSolution)
{
    expectVerifierCatches("cg", [](arch::Chip &chip,
                                   runtime::CohesionRuntime &) {
        // x is the first coherent-heap allocation in cg's setup. This
        // xor mask turns typical x values into NaNs, which NaN-blind
        // comparisons (x > tol is false for NaN) would wave through --
        // regression guard for the !(x <= tol) form in the verifiers.
        for (unsigned i = 0; i < 64; ++i) {
            chip.injectFault(sim::FaultSite::MemDataFlip,
                             runtime::Layout::cohHeapBase + i * 4,
                             0x41200000);
        }
    });
}

// --- The verify scope's dirty-line index ---------------------------
//
// Inside a Chip::VerifyScope, coherentRead32 finds dirty L2 copies
// through an index built on the fly. These tests hold it to the plain
// search written out below, across faults and a throwing verifier.

/** coherentRead32's contract spelled out: the first cluster whose L2
 *  holds the word dirty and valid, then a valid L3 word, then memory.
 *  Counts the reads an L2 copy served in @p from_l2. */
std::uint32_t
scanRead32(arch::Chip &chip, mem::Addr a, unsigned *from_l2 = nullptr)
{
    const mem::Addr base = mem::lineBase(a);
    const mem::WordMask bit = mem::wordBit(a);
    std::uint32_t v = 0;
    for (unsigned c = 0; c < chip.numClusters(); ++c) {
        const cache::Line *l = chip.cluster(c).l2().probe(base);
        if (l && (l->dirtyMask & bit) && (l->validMask & bit)) {
            l->read(a, &v, 4);
            if (from_l2)
                ++*from_l2;
            return v;
        }
    }
    const cache::Line *l3 =
        chip.bank(chip.map().bankOf(base)).l3().probe(base);
    if (l3 && (l3->validMask & bit)) {
        l3->read(a, &v, 4);
        return v;
    }
    return chip.debugReadT<std::uint32_t>(a);
}

/** Every word of every line resident in some L2 or L3, ascending. */
std::vector<mem::Addr>
residentWords(arch::Chip &chip)
{
    std::vector<mem::Addr> lines;
    auto add = [&](cache::Line &l) { lines.push_back(l.base); };
    for (unsigned c = 0; c < chip.numClusters(); ++c)
        chip.cluster(c).l2().forEachValid(add);
    for (unsigned b = 0; b < chip.numBanks(); ++b)
        chip.bank(b).l3().forEachValid(add);
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    std::vector<mem::Addr> words;
    for (mem::Addr base : lines) {
        for (unsigned w = 0; w < mem::wordsPerLine; ++w)
            words.push_back(base + w * 4);
    }
    return words;
}

/** A session left quiesced after heat ran with verification off. */
std::unique_ptr<harness::Session>
quiescedHeat(const std::string &backend, arch::CoherenceMode mode)
{
    arch::MachineConfig cfg = arch::MachineConfig::scaled(2);
    cfg.backend = backend;
    cfg.mode = mode;
    auto session = std::make_unique<harness::Session>(cfg, 12345);
    kernels::Params params;
    auto kernel = kernels::kernelFactory("heat")(params);
    harness::RunOptions opts;
    opts.skipVerify = true;
    session->run(*kernel, opts);
    return session;
}

/** Read every word in @p words inside the open scope, which builds the
 *  index, and return the values. */
std::vector<std::uint32_t>
readAll(arch::Chip &chip, const std::vector<mem::Addr> &words)
{
    std::vector<std::uint32_t> got;
    for (mem::Addr a : words)
        got.push_back(chip.coherentRead32(a));
    EXPECT_TRUE(chip.dirtyIndexBuilt());
    return got;
}

struct IndexCase
{
    const char *backend;
    arch::CoherenceMode mode;
};

std::string
caseName(const IndexCase &c)
{
    std::string name = c.backend;
    std::replace(name.begin(), name.end(), '-', '_');
    return name + (c.mode == arch::CoherenceMode::Cohesion ? "_cohesion"
                                                            : "_swcc");
}

void
PrintTo(const IndexCase &c, std::ostream *os)
{
    *os << caseName(c);
}

class VerifyIndex : public ::testing::TestWithParam<IndexCase>
{};

TEST_P(VerifyIndex, EveryWordMatchesTheFullScanOnHeat)
{
    auto session = quiescedHeat(GetParam().backend, GetParam().mode);
    arch::Chip &chip = session->chip();
    const std::vector<mem::Addr> words = residentWords(chip);
    ASSERT_GT(words.size(), 4u * chip.cluster(0).l2().numSets());

    std::vector<std::uint32_t> want;
    unsigned from_l2 = 0;
    for (mem::Addr a : words)
        want.push_back(scanRead32(chip, a, &from_l2));
    EXPECT_GT(from_l2, 0u) << "no word served by a dirty L2 copy";

    std::vector<std::uint32_t> got;
    {
        arch::Chip::VerifyScope scope(chip);
        got = readAll(chip, words);
    }
    EXPECT_FALSE(chip.dirtyIndexBuilt());
    for (std::size_t i = 0; i < words.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "word 0x" << std::hex << words[i] << std::dec;
    }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndModes, VerifyIndex,
    ::testing::Values(
        IndexCase{"msi-fullmap", arch::CoherenceMode::Cohesion},
        IndexCase{"msi-fullmap", arch::CoherenceMode::SWccOnly},
        IndexCase{"dir4b", arch::CoherenceMode::Cohesion},
        IndexCase{"dir4b", arch::CoherenceMode::SWccOnly},
        IndexCase{"dls", arch::CoherenceMode::Cohesion},
        IndexCase{"dls", arch::CoherenceMode::SWccOnly}),
    [](const ::testing::TestParamInfo<IndexCase> &info) {
        return caseName(info.param);
    });

TEST(VerifyIndexFaults, MemDataFlipInsideTheScopeIsRead)
{
    auto session =
        quiescedHeat("msi-fullmap", arch::CoherenceMode::Cohesion);
    arch::Chip &chip = session->chip();
    const std::vector<mem::Addr> words = residentWords(chip);
    // A word a dirty L2 copy serves, so the read goes through the index.
    mem::Addr target = 0;
    for (mem::Addr a : words) {
        unsigned from_l2 = 0;
        scanRead32(chip, a, &from_l2);
        if (from_l2) {
            target = a;
            break;
        }
    }
    ASSERT_NE(target, 0u);

    arch::Chip::VerifyScope scope(chip);
    readAll(chip, words);
    const std::uint32_t before = chip.coherentRead32(target);
    chip.injectFault(sim::FaultSite::MemDataFlip, target, 0x00FF00FFu);
    EXPECT_EQ(chip.coherentRead32(target), before ^ 0x00FF00FFu);
    readAll(chip, words); // rebuilt after the fault dropped it
    EXPECT_EQ(chip.coherentRead32(target), before ^ 0x00FF00FFu);
}

TEST(VerifyIndexFaults, MetaFlipThatDirtiesAWordIsRead)
{
    auto session =
        quiescedHeat("msi-fullmap", arch::CoherenceMode::Cohesion);
    arch::Chip &chip = session->chip();
    const std::vector<mem::Addr> words = residentWords(chip);
    // A word valid and clean in the first L2 holding its line and dirty
    // in none: the L2 fault sites corrupt that first copy.
    mem::Addr target = 0;
    cache::Line *copy = nullptr;
    for (mem::Addr a : words) {
        const mem::WordMask bit = mem::wordBit(a);
        cache::Line *first = nullptr;
        bool dirty = false;
        for (unsigned c = 0; c < chip.numClusters(); ++c) {
            if (cache::Line *l = chip.cluster(c).l2().probe(a)) {
                first = first ? first : l;
                dirty |= (l->dirtyMask & bit) != 0;
            }
        }
        if (first && !dirty && (first->validMask & bit)) {
            target = a;
            copy = first;
            break;
        }
    }
    ASSERT_NE(copy, nullptr);

    const std::uint32_t flip = 0x5A5A5A5Au;
    arch::Chip::VerifyScope scope(chip);
    readAll(chip, words);
    const std::uint32_t before = chip.coherentRead32(target);
    // A data flip in a clean copy is invisible...
    chip.injectFault(sim::FaultSite::L2DataFlip, target, flip);
    EXPECT_EQ(chip.coherentRead32(target), before);
    std::uint32_t flipped = 0;
    copy->read(target, &flipped, 4);
    ASSERT_NE(flipped, before);
    // ...until a meta flip marks the word dirty: an index built before
    // the flip would not list this copy and would read the old value.
    readAll(chip, words);
    chip.injectFault(sim::FaultSite::L2MetaFlip, target,
                     mem::wordBit(target));
    EXPECT_EQ(chip.coherentRead32(target), flipped);
    readAll(chip, words);
    EXPECT_EQ(chip.coherentRead32(target), flipped);
}

/** heat, with a verifier that builds the index and then fails. */
class FailingVerify : public kernels::Kernel
{
  public:
    explicit FailingVerify(const kernels::Params &params)
        : Kernel(params), _heat(kernels::kernelFactory("heat")(params))
    {}

    const char *name() const override { return "heat"; }
    void setup(runtime::CohesionRuntime &rt) override { _heat->setup(rt); }
    sim::CoTask
    worker(runtime::Ctx ctx) override
    {
        return _heat->worker(ctx);
    }

    void
    verify(runtime::CohesionRuntime &rt) override
    {
        for (mem::Addr a : residentWords(rt.chip()))
            rt.verifyRead32(a);
        builtInside = rt.chip().dirtyIndexBuilt();
        throw std::runtime_error("verification failed on purpose");
    }

    bool builtInside = false;

  private:
    std::unique_ptr<kernels::Kernel> _heat;
};

TEST(VerifyIndexFaults, ThrowingVerifyLeavesNoIndex)
{
    harness::Session session(arch::MachineConfig::scaled(2), 12345);
    kernels::Params params;
    FailingVerify kernel(params);
    EXPECT_THROW(session.run(kernel), std::runtime_error);
    arch::Chip &chip = session.chip();
    EXPECT_TRUE(kernel.builtInside);
    EXPECT_FALSE(chip.dirtyIndexBuilt());
    for (mem::Addr a : residentWords(chip)) {
        ASSERT_EQ(chip.coherentRead32(a), scanRead32(chip, a))
            << "word 0x" << std::hex << a;
    }
}

} // namespace
