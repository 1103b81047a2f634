/**
 * @file
 * Top-level chip: clusters, interconnect, L3 banks with directory
 * slices, DRAM channels, the coarse region table, and the backing
 * store holding architectural memory contents. Also provides untimed
 * debug access for workload setup/verification and the directory
 * occupancy sampler used by Fig. 9c.
 *
 * One calendar queue drives the whole machine: every component and
 * every cross-component message (requests, responses, both probe legs,
 * barrier wakeups) schedules into it directly.
 */

#ifndef COHESION_ARCH_CHIP_HH
#define COHESION_ARCH_CHIP_HH

#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/cluster.hh"
#include "arch/fabric.hh"
#include "arch/l3bank.hh"
#include "arch/machine_config.hh"
#include "cohesion/region_table.hh"
#include "mem/address_map.hh"
#include "mem/backing_store.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/flight_recorder.hh"
#include "sim/latency_accounting.hh"
#include "sim/stat_registry.hh"
#include "sim/timeseries.hh"

namespace coherence {
class Auditor;
class LineProfiler;
}

namespace arch {

/**
 * Thrown by the deadlock/livelock watchdog in runUntilQuiescent when
 * the machine makes no forward progress for a full watchdog window (or
 * exceeds the absolute cycle limit). Carries the in-flight transaction
 * dump so the failure is diagnosable without rerunning the workload.
 */
class DeadlockError : public std::runtime_error
{
  public:
    DeadlockError(const std::string &reason, std::string in_flight)
        : std::runtime_error(in_flight.empty() ? reason
                                               : reason + "\n" + in_flight),
          _dump(std::move(in_flight))
    {}

    /** The in-flight transaction table at detection time. */
    const std::string &dump() const { return _dump; }

  private:
    std::string _dump;
};

/** Segment classes for directory-occupancy accounting (Fig. 9c). */
enum class Segment : std::uint8_t { Code, Stack, HeapGlobal };
constexpr unsigned numSegments = 3;

class Chip
{
  public:
    explicit Chip(const MachineConfig &config, mem::Addr table_base);
    ~Chip();

    const MachineConfig &config() const { return _config; }

    sim::EventQueue &eq() { return _eq; }

    mem::AddressMap &map() { return _map; }
    mem::BackingStore &store() { return _store; }
    mem::DramModel &dram() { return _dram; }
    Fabric &fabric() { return _fabric; }
    cohesion::CoarseRegionTable &coarseTable() { return _coarseTable; }

    Cluster &cluster(unsigned i) { return *_clusters.at(i); }
    unsigned numClusters() const { return _clusters.size(); }
    L3Bank &bank(unsigned i) { return *_banks.at(i); }
    unsigned numBanks() const { return _banks.size(); }

    /** Core by global id (cluster-major order). */
    Core &
    core(unsigned global_id)
    {
        return cluster(global_id / _config.coresPerCluster)
            .core(global_id % _config.coresPerCluster);
    }

    unsigned totalCores() const { return _config.totalCores(); }

    bool cohesionEnabled() const
    {
        return _config.mode == CoherenceMode::Cohesion;
    }

    // --- Coherence backend ------------------------------------------------

    /** Resolved backend name (never empty after construction). */
    const std::string &backendName() const { return _config.backend; }

    /** Registry traits of the resolved backend. */
    const coherence::BackendTraits &backendTraits() const
    {
        return _backendTraits;
    }

    /** Clusters must write through (no M/E grants, no upgrades). */
    bool writeThroughBackend() const { return _backendTraits.writeThrough; }

    /** Auditor applicability mask for the resolved backend. */
    std::uint32_t auditMask() const { return _backendTraits.auditMask; }

    /** Events executed so far. */
    std::uint64_t totalEventsRun() const { return _eq.eventsRun(); }

    /** The run's final tick. Valid at quiescence, where the clock sits
     *  on the last fired event. */
    sim::Tick finalTick() const { return _eq.now(); }

    // --- Messaging helpers (used by clusters and banks) -----------------

    /**
     * Deliver a cluster request to its home bank through the fabric.
     * All L2->L3 fault sites (drop/duplicate/delay) live here; dropped
     * messages are retransmitted with bounded exponential backoff and
     * per-channel FIFO is preserved via the fabric's delivery floors.
     */
    void deliverRequest(unsigned cluster, Request req, unsigned data_words,
                        sim::Tick depart);

    /** Deliver a bank response to a cluster through the fabric. */
    void sendResponse(unsigned bank, unsigned cluster, Response resp,
                      unsigned data_words);

    /**
     * Send a probe from @p bank to @p cluster; the probe is applied at
     * arrival, the cluster's ProbeResponse is counted and sent back,
     * and @p done runs at the response's arrival at the bank. @p txn
     * is the causal id (the triggering request's msgId) threaded
     * through for the flight recorder.
     */
    void sendProbe(unsigned bank, unsigned cluster, ProbeType type,
                   mem::Addr addr, std::uint32_t txn,
                   std::function<void(unsigned, const ProbeResult &)> done);

    // --- Untimed debug access (setup / verification) --------------------

    void
    debugWrite(mem::Addr a, const void *src, unsigned bytes)
    {
        _store.write(a, src, bytes);
    }

    void
    debugRead(mem::Addr a, void *out, unsigned bytes) const
    {
        _store.read(a, out, bytes);
    }

    template <typename T>
    void
    debugWriteT(mem::Addr a, T v)
    {
        _store.writeT(a, v);
    }

    template <typename T>
    T
    debugReadT(mem::Addr a) const
    {
        return _store.readT<T>(a);
    }

    /**
     * Read a 32-bit word with full visibility into the hierarchy:
     * a dirty L2 copy wins, then a valid L3 copy, then memory. Used
     * by kernel verification so results need not be flushed first.
     * Inside a VerifyScope the dirty L2 copies are found through the
     * scope's index; otherwise every L2 is probed.
     */
    std::uint32_t coherentRead32(mem::Addr a);

    /**
     * While open, coherentRead32 looks dirty L2 copies up in an index
     * of the dirty L2 lines (line -> clusters, in cluster order)
     * instead of probing every L2. The index is built once the scope
     * has read more words than an L2 has sets. Closing the scope
     * (return or throw) and injectFault() drop it. Only untimed reads
     * may run inside: the index assumes no other L2 state changes
     * while it lives.
     */
    class VerifyScope
    {
      public:
        explicit VerifyScope(Chip &chip) : _chip(chip)
        {
            ++chip._verifyScopes;
        }
        ~VerifyScope()
        {
            if (--_chip._verifyScopes == 0)
                _chip.dropDirtyIndex();
        }
        VerifyScope(const VerifyScope &) = delete;
        VerifyScope &operator=(const VerifyScope &) = delete;

      private:
        Chip &_chip;
    };

    /** True while a VerifyScope holds a built dirty-line index. */
    bool dirtyIndexBuilt() const { return _dirtyIndexBuilt; }

    // --- Fault injection -------------------------------------------------

    sim::FaultInjector &faults() { return _faults; }
    const sim::FaultInjector &faults() const { return _faults; }

    /**
     * Directed (test-driven) injection at @p site, xoring @p xor_mask
     * into the word at @p addr. MemDataFlip corrupts the newest
     * visible copy (the one coherentRead32 would return) so a verifier
     * must observe it; L2/L3 variants corrupt a resident copy if one
     * exists (meta sites xor the low byte into dirtyMask and the next
     * byte into validMask). Counts as injected on the site.
     */
    void injectFault(sim::FaultSite site, mem::Addr addr,
                     std::uint32_t xor_mask);

    // --- Runtime auditing ------------------------------------------------

    /**
     * Enable the coherence auditor: full invariant passes every
     * @p period ticks while the run is live plus a final pass after
     * quiescence. @p period 0 picks a cost-scaled default. Violations
     * surface as coherence::AuditError out of runUntilQuiescent.
     */
    void enableAudit(sim::Tick period = 0);

    /** One full audit pass right now (throws coherence::AuditError). */
    void auditNow();

    /** auditNow() without moving the chip.audit.* counters (the
     *  pre-checkpoint verification pass; see coherence::Auditor). */
    void verifyNow();

    coherence::Auditor *auditor() { return _auditor.get(); }

    /** Human-readable table of in-flight bank transactions, cluster
     *  MSHRs, and outstanding writebacks (watchdog diagnostics). */
    std::string inFlightDump() const;

    /** Responses delivered to clusters (watchdog progress signal). */
    std::uint64_t responsesDelivered() const { return _respDelivered; }

    // --- Observability ---------------------------------------------------

    /** Latency of a request/probe-response message of class @p cls,
     *  measured depart-to-accept through the fabric. */
    void
    sampleReqLatency(MsgClass cls, sim::Tick lat)
    {
        _reqLatency[static_cast<unsigned>(cls)].sample(lat);
    }

    void sampleRespLatency(sim::Tick lat) { _respLatency.sample(lat); }

    const sim::Histogram &
    reqLatency(MsgClass cls) const
    {
        return _reqLatency[static_cast<unsigned>(cls)];
    }

    const sim::Histogram &respLatency() const { return _respLatency; }
    const sim::Histogram &probeLatency() const { return _probeLatency; }

    /**
     * Turn on per-transaction cycle accounting (chip.latency.*; see
     * sim/latency_accounting.hh). Observer-only like the recorder:
     * off (the default) leaves the hot path untouched and exports no
     * new keys, so existing stat fingerprints are unchanged.
     */
    void enableLatencyAccounting() { _latAcc.enable(); }
    bool latencyOn() const { return _latAcc.enabled(); }
    sim::LatencyAccountant &latAcc() { return _latAcc; }
    const sim::LatencyAccountant &latAcc() const { return _latAcc; }

    sim::TimeSeries &timeSeries() { return _timeSeries; }
    const sim::TimeSeries &timeSeries() const { return _timeSeries; }

    // --- Flight recorder / line profiler ---------------------------------

    /** Turn the flight recorder on with a ring of @p capacity records
     *  (one allocation; see sim::FlightRecorder). */
    void enableRecorder(std::uint32_t capacity = 1u << 14);

    /** Aggregate per-line sharing-pattern telemetry (exported under
     *  "chip.lines" by registerStats). @p top_n sizes the contended-
     *  lines table. */
    void enableLineProfiler(unsigned top_n = 8);

    /**
     * Hand every record to @p fn as it is emitted, in execution order
     * (works even with the ring disabled; an empty function detaches).
     * This is how --trace, --watch-line and --trace-json see the run.
     */
    using RecordListener =
        std::function<void(const sim::FlightRecorder::Record &)>;
    void setRecordListener(RecordListener fn);

    sim::FlightRecorder &recorder() { return _recorder; }
    const sim::FlightRecorder &recorder() const { return _recorder; }
    coherence::LineProfiler *lineProfiler() { return _profiler.get(); }

    /**
     * Emit one protocol event: the only place the simulator emits one.
     * The disabled path is this single byte test, so instrumented hot
     * paths stay effectively free when neither the recorder, the
     * profiler nor a listener is active; the ring store is inlined and
     * the profiler/listener path is outlined. All three observe
     * records in execution order.
     */
    void
    rec(sim::FlightRecorder::Ev kind, std::uint16_t comp, mem::Addr line,
        std::uint32_t txn, std::uint8_t a = 0, std::uint32_t b = 0)
    {
        if (!_recAny)
            return;
        if (_recorder.enabled())
            _recorder.record(_eq.now(), kind, comp, line, txn, a, b);
        if (_recSlow)
            recSlow(kind, comp, line, txn, a, b);
    }

    /** Decoded recorder history for one line (newest @p max_records),
     *  one indented record per row. Empty if the ring is off. */
    std::string lineHistory(mem::Addr line_base,
                            std::size_t max_records = 16) const;

    /** Recorder histories for every line implicated in the in-flight
     *  dump (watchdog/audit post-mortems). */
    std::string postMortemHistory() const;

    /** Fabric drops survived by delivered requests of class @p cls. */
    std::uint64_t
    reqRetries(MsgClass cls) const
    {
        return _reqRetries[static_cast<unsigned>(cls)].value();
    }

    std::uint64_t respRetries() const { return _respRetries.value(); }

    /** Register every chip-level stat under "chip." in @p reg. */
    void registerStats(sim::StatRegistry &reg) const;

    // --- Directory occupancy sampling (Fig. 9c) -------------------------

    using SegmentClassifier = std::function<Segment(mem::Addr)>;

    void setSegmentClassifier(SegmentClassifier fn)
    {
        _classifier = std::move(fn);
    }

    /**
     * Enable periodic sampling (default: paper's 1000 cycles).
     * Registers the occupancy / queue-depth / message-rate series with
     * the time-series sampler and arms it on the event queue.
     */
    void enableOccupancySampling(sim::Tick period = 1000);

    /** Time-average directory entries in @p seg across banks. */
    double occupancyAverage(Segment seg) const
    {
        return _occupancy[static_cast<unsigned>(seg)].timeAverage();
    }

    double occupancyAverageTotal() const { return _occupancyTotal.timeAverage(); }
    double occupancyMax() const { return _occupancyTotal.maximum(); }

    // --- Execution -------------------------------------------------------

    /**
     * Live-progress heartbeat: called from inside runUntilQuiescent
     * roughly every @p interval_sec of host time with (current tick,
     * events run so far). With a hook installed the run loop dispatches
     * in bounded slices and reads the host clock between them; slicing
     * never reorders events and the clock never feeds back into the
     * simulation, so results stay byte-identical with the hook.
     */
    using ProgressFn = std::function<void(sim::Tick, std::uint64_t)>;

    void
    setProgressHook(ProgressFn fn, double interval_sec = 0.25)
    {
        _progressFn = std::move(fn);
        _progressIntervalSec = interval_sec;
    }

    /**
     * Run until the event queue drains. The queue runs uninterrupted up
     * to the next cadence tick — audit pass, fault pump, sampler,
     * watchdog window or cycle limit — and a cadence fires only while
     * events are still pending past it, so no audit, pump or sample
     * lands after the last event. Throws DeadlockError on stagnation or
     * the maxCycles limit.
     * @return final tick: the tick of the last fired event, where the
     * queue's clock is left (so a later run or checkpoint continues
     * from it).
     */
    sim::Tick runUntilQuiescent();

    /** Aggregate L2 output message counters across clusters. */
    MsgCounters aggregateMessages() const;

    /** Total instructions retired across all cores. */
    std::uint64_t totalInstructions() const;

  private:
    /** Schedule one request (or its duplicate) for arrival at the bank. */
    void routeRequest(unsigned bank_id, Request req, sim::Tick nominal,
                      sim::Tick depart, unsigned drops);

    /** Probe application at the cluster + response leg back. */
    void probeArrived(unsigned bank_id, unsigned cluster_id, ProbeType type,
                      mem::Addr addr, std::uint32_t txn,
                      std::function<void(unsigned, const ProbeResult &)> done);

    /** Feed one record to the line profiler and the listener. */
    void recSlow(sim::FlightRecorder::Ev kind, std::uint16_t comp,
                 mem::Addr line, std::uint32_t txn, std::uint8_t a,
                 std::uint32_t b);
    void updateRecAny();

    void sampleOccupancy();

    /** The line holding @p a's newest word: a dirty L2 copy (first
     *  cluster in order), then a valid L3 copy; nullptr when memory
     *  holds it. coherentRead32 and MemDataFlip share this search. */
    cache::Line *newestCopy(mem::Addr a);
    void dropDirtyIndex();

    /** True when any cache-flip fault site is armed; the run loop then
     *  invokes faultPump() at the plan's pump cadence. */
    bool pumpEligible() const;
    void faultPump();

    /** Watchdog progress signature: stagnation across a full window
     *  means deadlock or livelock (retry storms keep event counts and
     *  message counters moving, so those are deliberately excluded). */
    struct Progress
    {
        std::uint64_t instructions = 0;
        std::uint64_t txnsCompleted = 0;
        std::uint64_t respDelivered = 0;
        bool operator==(const Progress &) const = default;
    };
    Progress progress() const;

    MachineConfig _config; ///< backend resolved.
    coherence::BackendTraits _backendTraits;
    sim::EventQueue _eq;
    mem::AddressMap _map;
    mem::BackingStore _store;
    mem::DramModel _dram;
    Fabric _fabric;
    sim::FaultInjector _faults;
    cohesion::CoarseRegionTable _coarseTable;
    std::vector<std::unique_ptr<Cluster>> _clusters;
    std::vector<std::unique_ptr<L3Bank>> _banks;
    std::unique_ptr<coherence::Auditor> _auditor;
    sim::Tick _auditPeriod = 0;
    std::uint64_t _respDelivered = 0;

    // Verify-time dirty-line index: (line base << 32 | cluster) of each
    // dirty L2 line, sorted.
    unsigned _verifyScopes = 0;
    std::uint32_t _verifyScans = 0; ///< Unindexed reads in the scope.
    bool _dirtyIndexBuilt = false;
    std::vector<std::uint64_t> _dirtyLines;

    ProgressFn _progressFn;
    double _progressIntervalSec = 0.25;

    SegmentClassifier _classifier;
    sim::Tick _samplePeriod = 0;
    std::array<sim::TimeSampler, numSegments> _occupancy;
    sim::TimeSampler _occupancyTotal;

    // Cached by sampleOccupancy() so the time-series probes read the
    // directory walk's result instead of repeating it per series.
    std::array<double, numSegments> _lastOccupancy{};
    double _lastOccupancyTotal = 0;

    sim::TimeSeries _timeSeries;
    std::array<sim::Histogram, numMsgClasses> _reqLatency;
    sim::Histogram _respLatency;
    sim::Histogram _probeLatency;
    /** Stage-blame aggregation; deliberately not checkpointed —
     *  aggregates restart at restore (DESIGN.md §14). */
    sim::LatencyAccountant _latAcc;

    sim::FlightRecorder _recorder;
    std::unique_ptr<coherence::LineProfiler> _profiler;
    RecordListener _listener;
    bool _recAny = false;  ///< recorder, profiler or listener active
    bool _recSlow = false; ///< profiler or listener active
    std::array<sim::Counter, numMsgClasses> _reqRetries;
    sim::Counter _respRetries;
    sim::Counter _retryExhausted;

  public:
    /** Messages force-delivered after the drop-retransmit budget was
     *  spent (previously silent; see deliverRequest/sendResponse). */
    std::uint64_t retriesExhausted() const { return _retryExhausted.value(); }

    /**
     * Checkpoint hooks (tentpole of the crash-resilience work). Only
     * legal at a quiescent point: the event queue must be drained and
     * no bank transaction, cluster MSHR, or parked core may exist —
     * coroutine frames cannot serialize. Callers should run a full audit pass first; checkpointState()
     * enforces the structural conditions itself and throws
     * sim::SnapshotError otherwise.
     */
    void checkpointState(sim::Serializer &ser) const;
    void restoreState(sim::Deserializer &des);
};

} // namespace arch

#endif // COHESION_ARCH_CHIP_HH
