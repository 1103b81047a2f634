/**
 * @file
 * End-to-end benchmark driver: runs one workload single-threaded in
 * this process and times every job from outside, around the public
 * calls a sweep job makes — harness::Session construction,
 * Session::run, stats export (buildStatRegistry + Chip::registerStats
 * + StatRegistry::dumpJson) and Session destruction.
 *
 *   cohesion-e2ebench --workload paper_cohesion --seed 12345
 *                     --seconds 20 [--trace] [--quick]
 *                     [--sweep-spec FILE] [--spans FILE]
 *
 * Jobs run round-robin until --seconds have elapsed and every job has
 * run at least once. With --trace each job runs twice per round: once
 * as in an untraced run, once with the host profiler on and with the
 * machine's Chip and CohesionRuntime constructed and destroyed again
 * on their own, so those two constructors are timed directly. Spans
 * (job, name, start, end, parent) are kept in memory and written to
 * --spans at exit.
 *
 * Standard output is one JSON document with a record per job run;
 * e2ebench/run.py turns the records into the benchmark's metrics.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "arch/machine_config.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/session.hh"
#include "harness/sweep.hh"
#include "kernels/registry.hh"
#include "runtime/layout.hh"
#include "runtime/runtime.hh"
#include "sim/host_profiler.hh"
#include "sim/json.hh"
#include "sim/random.hh"
#include "sim/stat_registry.hh"

namespace {

using Clock = std::chrono::steady_clock;
using HP = sim::HostProfiler;

struct Job
{
    std::string label;
    std::string kernel;
    arch::MachineConfig cfg;
    kernels::Params params;
    harness::RunOptions opts;
};

struct Span
{
    std::size_t job;
    std::string name;
    double start; ///< Seconds since the driver started.
    double end;
    long parent;  ///< Index into the span list; -1 for a root.
};

/** One timed execution of one job. */
struct Record
{
    std::size_t job = 0;
    bool traced = false;
    sim::JobOutcome outcome = sim::JobOutcome::Ok;
    std::string what;
    double setup = 0, run = 0, exportS = 0, teardown = 0;
    double chipConstruct = 0, boot = 0;
    std::uint64_t fingerprint = 0;
    harness::RunResult r;
};

const Clock::time_point t_origin = Clock::now();

double
since0(Clock::time_point t)
{
    return std::chrono::duration<double>(t - t_origin).count();
}

double
secs(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xCBF29CE484222325ULL)
{
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ULL;
    }
    return h;
}

/** Hash of the deterministic stats: the flat CSV of the exported
 *  registry without host timings (host.*, latency.host_*). */
std::uint64_t
statsFingerprint(const sim::StatRegistry &reg)
{
    std::ostringstream csv;
    reg.dumpCsv(csv);
    std::istringstream lines(csv.str());
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("host.", 0) == 0 ||
            line.rfind("latency.host_", 0) == 0)
            continue;
        h = fnv1a(line + "\n", h);
    }
    return h;
}

// --- workloads ----------------------------------------------------------

/** The Table-3 machine, or a 4-cluster stand-in for --quick. */
arch::MachineConfig
tableThree(bool quick)
{
    return quick ? arch::MachineConfig::scaled(4)
                 : arch::MachineConfig::paper1024();
}

std::vector<Job>
paperCohesion(std::uint64_t seed, bool quick)
{
    std::vector<Job> jobs;
    for (const std::string &k : kernels::allKernelNames()) {
        Job j;
        j.label = k + ".cohesion";
        j.kernel = k;
        j.cfg = tableThree(quick);
        j.cfg.mode = arch::CoherenceMode::Cohesion;
        j.cfg.backend = "msi-fullmap";
        j.params.scale = quick ? 1 : 3;
        j.params.seed = seed;
        jobs.push_back(j);
    }
    return jobs;
}

std::vector<Job>
paperHwcc(std::uint64_t seed, bool quick)
{
    std::vector<Job> jobs;
    for (const char *k : {"cg", "dmm", "heat", "kmeans"}) {
        Job j;
        j.label = std::string(k) + ".hwcc.16k-128w";
        j.kernel = k;
        j.cfg = tableThree(quick);
        j.cfg.mode = arch::CoherenceMode::HWccOnly;
        j.cfg.directory = coherence::DirectoryConfig::sparseRealistic();
        j.params.scale = quick ? 1 : 4;
        j.params.seed = seed;
        j.opts.latency = true;
        j.opts.profileTopN = 8;
        j.opts.recorderCapacity = 1u << 18;
        jobs.push_back(j);
    }
    return jobs;
}

std::vector<Job>
exampleSweep(const std::string &spec_path, std::uint64_t seed, bool quick)
{
    std::ifstream in(spec_path);
    if (!in)
        throw std::runtime_error("cannot open sweep spec " + spec_path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    sim::SweepSpec spec;
    std::string err;
    if (!sim::SweepSpec::parse(text, &spec, &err))
        throw std::runtime_error(err);
    // One --seed derives the campaign's two-seed axis.
    spec.seeds = {seed, sim::deriveSeed(seed, "e2ebench.sweep")};
    spec.shards = 1;

    std::vector<Job> jobs;
    std::vector<sim::SweepPoint> points = spec.expand();
    // --quick keeps every 7th job: 10 of 64, still spanning every axis.
    for (std::size_t i = 0; i < points.size(); i += quick ? 7 : 1) {
        const sim::SweepPoint &p = points[i];
        Job j;
        j.label = p.label;
        j.kernel = p.kernel;
        j.cfg = p.cfg;
        j.params = p.params;
        j.opts.sampleOccupancy = p.sampleOccupancy;
        j.opts.skipVerify = p.skipVerify;
        j.opts.audit = p.audit;
        jobs.push_back(j);
    }
    return jobs;
}

// --- one job ------------------------------------------------------------

class Runner
{
  public:
    explicit Runner(std::vector<Job> jobs) : _jobs(std::move(jobs)) {}

    const std::vector<Job> &jobs() const { return _jobs; }
    const std::vector<Record> &records() const { return _records; }
    const std::vector<Span> &spans() const { return _spans; }

    void
    runJob(std::size_t idx, bool traced)
    {
        const Job &job = _jobs[idx];
        Record rec;
        rec.job = idx;
        rec.traced = traced;
        harness::RunOptions opts = job.opts;
        opts.hostProfile = traced;

        Clock::time_point t0{}, t1{}, t2{}, t3{}, t4{}, t5{};
        sim::SweepJob sj;
        sj.label = job.label;
        sj.body = [&]() {
            auto kernel = kernels::kernelFactory(job.kernel)(job.params);
            t0 = Clock::now();
            std::optional<harness::Session> session;
            session.emplace(job.cfg, job.params.seed);
            t1 = Clock::now();
            harness::RunResult r = session->run(*kernel, opts);
            t2 = Clock::now();
            sim::StatRegistry reg;
            harness::buildStatRegistry(job.cfg, r, reg);
            session->chip().registerStats(reg);
            std::ostringstream json;
            reg.dumpJson(json);
            t3 = Clock::now();
            // Untimed: the registry refers into the live chip.
            rec.fingerprint = statsFingerprint(reg);
            t4 = Clock::now();
            session.reset();
            t5 = Clock::now();
            return r;
        };
        sim::JobResult res = sim::SweepEngine::runOne(sj);
        // Session::run switches the process-wide profiler on but never
        // off; untraced runs must not pay for it.
        if (traced)
            HP::disable();
        rec.outcome = res.outcome;
        rec.what = res.what;
        if (res.ok()) {
            rec.r = std::move(res.run);
            rec.r.recorderDump.clear();
            rec.setup = secs(t0, t1);
            rec.run = secs(t1, t2);
            rec.exportS = secs(t2, t3);
            rec.teardown = secs(t4, t5);
            if (traced) {
                long root = span(idx, "job", t0, t5, -1);
                span(idx, "harness.session_construct", t0, t1, root);
                span(idx, "harness.run", t1, t2, root);
                span(idx, "harness.stats_export", t2, t3, root);
                span(idx, "harness.fingerprint", t3, t4, root);
                span(idx, "harness.teardown", t4, t5, root);
                probeConstruction(job, rec);
            }
        }
        _records.push_back(std::move(rec));
    }

  private:
    long
    span(std::size_t job, const char *name, Clock::time_point a,
         Clock::time_point b, long parent)
    {
        _spans.push_back({job, name, since0(a), since0(b), parent});
        return static_cast<long>(_spans.size()) - 1;
    }

    /**
     * Build and destroy the job's Chip and CohesionRuntime on their
     * own, as Session's constructor and destructor do, so their costs
     * are timed directly. Runs after the measured job so it cannot
     * warm the allocator for the Session being timed.
     */
    void
    probeConstruction(const Job &job, Record &rec)
    {
        arch::MachineConfig cfg = job.cfg;
        if (cfg.faults.anyEnabled() && cfg.faults.seed == 0)
            cfg.faults.seed = sim::deriveSeed(job.params.seed, "fault");
        const Clock::time_point a = Clock::now();
        auto chip = std::make_unique<arch::Chip>(cfg,
                                                 runtime::Layout::tableBase);
        const Clock::time_point b = Clock::now();
        auto rt = std::make_unique<runtime::CohesionRuntime>(*chip);
        const Clock::time_point c = Clock::now();
        rt.reset();
        chip.reset();
        const Clock::time_point d = Clock::now();
        long root = span(rec.job, "construct_probe", a, d, -1);
        span(rec.job, "arch.chip_construct", a, b, root);
        span(rec.job, "runtime.boot", b, c, root);
        span(rec.job, "construct_probe.teardown", c, d, root);
        rec.chipConstruct = secs(a, b);
        rec.boot = secs(b, c);
    }

    std::vector<Job> _jobs;
    std::vector<Record> _records;
    std::vector<Span> _spans;
};

// --- output -------------------------------------------------------------

void
writeRecord(std::ostream &os, const Record &rec)
{
    const harness::RunResult &r = rec.r;
    const HP::Profile &p = r.hostProfile;
    auto est = [&p](HP::Phase ph) { return p.estNs(ph) * 1e-9; };
    std::uint64_t retries = r.respRetries;
    for (std::uint64_t n : r.reqRetries)
        retries += n;

    os << "{\"job\": " << rec.job << ", \"traced\": "
       << (rec.traced ? "true" : "false") << ", \"outcome\": \""
       << sim::jobOutcomeName(rec.outcome) << "\", \"what\": ";
    sim::writeJsonString(os, rec.what);
    os << ",\n   \"setup_s\": " << rec.setup
       << ", \"run_s\": " << rec.run << ", \"export_s\": " << rec.exportS
       << ", \"teardown_s\": " << rec.teardown
       << ", \"chip_construct_s\": " << rec.chipConstruct
       << ", \"boot_s\": " << rec.boot
       << ",\n   \"fingerprint\": \"" << std::hex << rec.fingerprint
       << std::dec << "\", \"cycles\": " << r.cycles
       << ", \"events\": " << r.eventsRun
       << ", \"instructions\": " << r.instructions
       << ", \"l2_out_msgs\": " << r.msgs.total()
       << ", \"probes\": " << r.msgs.get(arch::MsgClass::ProbeResponse)
       << ", \"fabric_bytes\": " << r.fabricBytes
       << ", \"retries\": " << retries << ", \"l2_hits\": " << r.l2Hits
       << ", \"l2_misses\": " << r.l2Misses << ", \"l3_hits\": " << r.l3Hits
       << ", \"l3_misses\": " << r.l3Misses
       << ", \"dram_accesses\": " << r.dramAccesses
       << ", \"dir_insertions\": " << r.dirInsertions
       << ", \"dir_evictions\": " << r.dirEvictions
       << ", \"table_lookups\": " << r.tableLookups
       << ", \"transitions\": " << r.transitions
       << ", \"flush_issued\": " << r.flushIssued
       << ", \"flush_useful\": " << r.flushUseful
       << ", \"inv_issued\": " << r.invIssued
       << ", \"inv_useful\": " << r.invUseful;

    os << ",\n   \"lat_cycles\": {";
    for (unsigned s = 0; s < sim::lat::numStages; ++s) {
        std::uint64_t cyc = 0;
        for (const auto &b : r.latency.mode)
            cyc += b.stage[s];
        os << (s ? ", " : "") << '"'
           << sim::lat::stageName(static_cast<sim::lat::Stage>(s))
           << "\": " << cyc;
    }
    os << "}";

    if (rec.traced) {
        os << ",\n   \"host\": {\"attributed_s\": "
           << p.attributedNs() * 1e-9;
        for (unsigned i = 1; i < HP::numPhases; ++i) {
            auto ph = static_cast<HP::Phase>(i);
            os << ", \"" << HP::phaseName(ph) << "\": " << est(ph);
        }
        os << "}";
    }
    os << "}";
}

long
peakRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "cohesion-e2ebench: " << why << "\n"
              << "usage: cohesion-e2ebench --workload "
                 "paper_cohesion|paper_hwcc|example_sweep\n"
                 "         --seed N --seconds S [--trace] [--quick]\n"
                 "         [--sweep-spec FILE] [--spans FILE]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spec_path, spans_path;
    std::uint64_t seed = 12345;
    double seconds = 10;
    bool traced = false, quick = false;
    for (int i = 1; i < argc; ++i) {
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload"))
            workload = next();
        else if (!std::strcmp(argv[i], "--seed"))
            seed = std::strtoull(next(), nullptr, 0);
        else if (!std::strcmp(argv[i], "--seconds"))
            seconds = std::atof(next());
        else if (!std::strcmp(argv[i], "--trace"))
            traced = true;
        else if (!std::strcmp(argv[i], "--quick"))
            quick = true;
        else if (!std::strcmp(argv[i], "--sweep-spec"))
            spec_path = next();
        else if (!std::strcmp(argv[i], "--spans"))
            spans_path = next();
        else
            usage("unknown option");
    }

    std::vector<Job> jobs;
    try {
        if (workload == "paper_cohesion")
            jobs = paperCohesion(seed, quick);
        else if (workload == "paper_hwcc")
            jobs = paperHwcc(seed, quick);
        else if (workload == "example_sweep")
            jobs = exampleSweep(spec_path, seed, quick);
        else
            usage("unknown workload");
    } catch (const std::exception &e) {
        std::cerr << "cohesion-e2ebench: " << e.what() << "\n";
        return 2;
    }

    // Round-robin over the jobs until the time is up and every job has
    // run once; a traced round runs each job both untraced and traced.
    Runner runner(std::move(jobs));
    const std::size_t n = runner.jobs().size();
    const Clock::time_point start = Clock::now();
    long peak_rss_kb = 0;
    for (std::size_t k = 0;
         k < n || secs(start, Clock::now()) < seconds; ++k) {
        // Traced rounds alternate which run of a job goes first, so
        // neither side always pays for the other's warm-up.
        const bool traced_first = traced && (k / n) % 2 == 1;
        runner.runJob(k % n, traced_first);
        if (traced)
            runner.runJob(k % n, !traced_first);
        // Peak memory of one pass: later passes repeat the same jobs,
        // so only allocator drift could raise it further.
        if (k + 1 == n)
            peak_rss_kb = peakRssKb();
    }
    const double elapsed = secs(start, Clock::now());

    std::cout << std::setprecision(9);
    std::cout << "{\"schema\": \"cohesion-e2ebench-records-v1\",\n"
              << " \"workload\": \"" << workload << "\", \"seed\": " << seed
              << ", \"quick\": " << (quick ? "true" : "false")
              << ", \"elapsed_s\": " << elapsed
              << ", \"peak_rss_kb\": " << peak_rss_kb
              << ",\n \"build_type\": \"" << E2EBENCH_BUILD_TYPE
              << "\", \"compiler\": \"" << E2EBENCH_COMPILER << "\",\n"
              << " \"jobs\": [";
    for (std::size_t j = 0; j < n; ++j) {
        const Job &job = runner.jobs()[j];
        std::cout << (j ? ",\n  " : "\n  ") << "{\"label\": ";
        sim::writeJsonString(std::cout, job.label);
        std::cout << ", \"machine\": ";
        sim::writeJsonString(std::cout, job.cfg.summary());
        std::cout << "}";
    }
    std::cout << "],\n \"records\": [";
    bool first = true;
    for (const Record &rec : runner.records()) {
        std::cout << (first ? "\n  " : ",\n  ");
        first = false;
        writeRecord(std::cout, rec);
    }
    std::cout << "]}\n";

    if (!spans_path.empty()) {
        std::ofstream out(spans_path);
        out << std::setprecision(9) << "{\"spans\": [";
        const std::vector<Span> &sp = runner.spans();
        for (std::size_t i = 0; i < sp.size(); ++i) {
            out << (i ? ",\n  " : "\n  ") << "{\"job\": " << sp[i].job
                << ", \"name\": \"" << sp[i].name << "\", \"start\": "
                << sp[i].start << ", \"end\": " << sp[i].end
                << ", \"parent\": " << sp[i].parent << "}";
        }
        out << "]}\n";
        if (!out) {
            std::cerr << "cohesion-e2ebench: cannot write " << spans_path
                      << "\n";
            return 1;
        }
    }
    return 0;
}
