/**
 * @file
 * Decoding of flight-recorder records, the simulator's only protocol
 * event stream: one-line narratives (--trace, --watch-line,
 * cohesion-trace) and the Chrome trace-event encoding (--trace-json,
 * cohesion-trace --perfetto). Lives in the arch layer so
 * sim/flight_recorder stays free of protocol knowledge: the a/b
 * payloads are interpreted here against ReqType, ProbeType, MsgClass
 * and the Fig. 7 transition steps.
 */

#ifndef COHESION_ARCH_FLIGHT_DECODE_HH
#define COHESION_ARCH_FLIGHT_DECODE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/flight_recorder.hh"
#include "sim/trace_json.hh"

namespace arch {

/** One-line narrative for @p r, e.g.
 *  "t=1204 bank3 msg.recv WrReq line 0x1a40 cluster2 msg#17". */
std::string describeRecord(const sim::FlightRecorder::Record &r);

/** The narrative without the leading "t=<tick> " stamp. */
std::string describeRecordBody(const sim::FlightRecorder::Record &r);

/**
 * Records to a Chrome trace-event document on @p os. The live
 * --trace-json stream and cohesion-trace --perfetto both encode
 * through this, so the two views of one run are byte-identical: an
 * instant per record on its component's track (named the first time
 * the component is seen) and an async span per bank transaction, from
 * TxnBegin to TxnEnd.
 */
class TraceEncoder
{
  public:
    explicit TraceEncoder(std::ostream &os) : _w(os) {}

    void add(const sim::FlightRecorder::Record &r);

    /** One time-series sample, as a counter event. */
    void
    counter(sim::Tick t, std::string_view name, double value)
    {
        _w.counter(t, name, value);
    }

    /** Close the document (destruction also does). */
    void finish() { _w.finish(); }
    std::uint64_t events() const { return _w.events(); }

  private:
    sim::TraceJsonWriter _w;
    std::vector<bool> _named = std::vector<bool>(1u << 16);
};

} // namespace arch

#endif // COHESION_ARCH_FLIGHT_DECODE_HH
