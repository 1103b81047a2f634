#include "arch/flight_decode.hh"

#include <sstream>

#include "arch/protocol.hh"
#include "cache/cache_array.hh"
#include "sim/fault.hh"

namespace arch {

namespace {

using FR = sim::FlightRecorder;
using Ev = FR::Ev;

const char *
stateName(std::uint8_t s)
{
    switch (static_cast<cache::CohState>(s)) {
      case cache::CohState::Invalid:   return "I";
      case cache::CohState::Shared:    return "S";
      case cache::CohState::Exclusive: return "E";
      case cache::CohState::Modified:  return "M";
    }
    return "?";
}

void
maskTo(std::ostream &os, std::uint8_t mask)
{
    os << "mask=0x" << std::hex << unsigned(mask) << std::dec;
}

} // namespace

std::string
describeRecordBody(const sim::FlightRecorder::Record &r)
{
    std::ostringstream os;
    Ev e = static_cast<Ev>(r.kind);
    os << FR::compName(r.comp) << ' ' << FR::evName(e);

    auto req_type = [&] { os << ' ' << reqTypeName(static_cast<ReqType>(r.a)); };
    auto probe_type = [&] {
        os << ' ' << probeTypeName(static_cast<ProbeType>(r.a));
    };
    auto line = [&] {
        os << " line 0x" << std::hex << r.line << std::dec;
    };
    auto msg = [&] { os << " msg#" << r.txn; };

    switch (e) {
      case Ev::MsgSend:
        req_type();
        line();
        msg();
        os << " class=" << msgClassName(static_cast<MsgClass>(r.b));
        break;
      case Ev::MsgRecv:
        req_type();
        line();
        os << " from cluster" << r.b;
        msg();
        break;
      case Ev::MsgDrop:
        req_type();
        line();
        msg();
        os << ((r.b & 0x80000000u) ? " (response)" : " (request)")
           << " drop#" << (r.b & 0x7FFFFFFFu);
        break;
      case Ev::MsgRetransmit:
        req_type();
        line();
        msg();
        os << " delivered after " << r.b
           << (r.b == 1 ? " drop" : " drops");
        break;
      case Ev::RetransmitExhausted:
        req_type();
        line();
        msg();
        os << " retransmit budget spent (" << r.b
           << " drops); delivery forced";
        break;
      case Ev::RespSend:
      case Ev::RespRecv:
        req_type();
        line();
        msg();
        if (r.b & FR::respIncoherent)
            os << " incoherent(SWcc)";
        if (r.b & FR::respGrant)
            os << " exclusive-grant";
        break;
      case Ev::ProbeSend:
        probe_type();
        line();
        os << " -> cluster" << r.b;
        msg();
        break;
      case Ev::ProbeRecv:
        probe_type();
        line();
        os << ((r.b & FR::probeFound)
                   ? ((r.b & FR::probeDirty) ? " hit dirty" : " hit clean")
                   : " miss");
        msg();
        break;
      case Ev::ProbeAck:
        probe_type();
        line();
        os << " from cluster" << r.b;
        msg();
        break;
      case Ev::DirInsert:
        line();
        os << " state=" << stateName(r.a) << " cluster" << r.b;
        msg();
        break;
      case Ev::DirState:
        line();
        os << " state=" << stateName(r.a) << " sharers=" << r.b;
        msg();
        break;
      case Ev::DirErase:
        line();
        msg();
        break;
      case Ev::SwccFlush:
      case Ev::Writeback:
        line();
        os << ' ';
        maskTo(os, r.a);
        msg();
        break;
      case Ev::SwccInv:
      case Ev::WbAck:
        line();
        msg();
        break;
      case Ev::Fill:
        line();
        if (r.b & FR::respIncoherent)
            os << " incoherent(SWcc)";
        else
            os << " state=" << stateName(r.a);
        msg();
        break;
      case Ev::Evict:
        line();
        os << ((r.b & FR::respIncoherent) ? " SWcc" : " HWcc")
           << ((r.a & FR::evictDirty) ? " dirty" : " clean");
        break;
      case Ev::TableRead:
        line();
        os << " -> " << (r.a ? "SWcc" : "HWcc")
           << (r.b == FR::tableFromCache ? " (table$)" : " (L3/mem)");
        msg();
        break;
      case Ev::TableUpdate:
        line();
        os << " bit=" << unsigned(r.a);
        msg();
        break;
      case Ev::TransBegin:
        line();
        os << (r.a ? " HWcc=>SWcc (Fig. 7a)" : " SWcc=>HWcc (Fig. 7b)");
        msg();
        break;
      case Ev::TransStep:
        line();
        os << ' ' << FR::stepName(static_cast<FR::Step>(r.a));
        if (r.b)
            os << " cluster" << r.b;
        msg();
        break;
      case Ev::TransEnd:
        line();
        os << (r.a ? " now SWcc" : " now HWcc");
        msg();
        break;
      case Ev::TxnBegin:
        line();
        os << " txn#" << r.txn << " msg#" << r.b;
        break;
      case Ev::TxnEnd:
        line();
        os << " txn#" << r.txn;
        break;
      case Ev::MsgDup:
        req_type();
        line();
        msg();
        os << ((r.b & 0x80000000u) ? " (response)" : " (request)");
        break;
      case Ev::BitFlip:
        os << ' ' << sim::faultSiteName(static_cast<sim::FaultSite>(r.a));
        line();
        os << " bit " << r.b;
        break;
      case Ev::BarrierRelease:
        os << " episode " << r.txn;
        break;
      case Ev::None:
      case Ev::numEvents:
        break;
    }
    return os.str();
}

std::string
describeRecord(const sim::FlightRecorder::Record &r)
{
    std::ostringstream os;
    os << "t=" << r.tick << ' ' << describeRecordBody(r);
    return os.str();
}

void
TraceEncoder::add(const sim::FlightRecorder::Record &r)
{
    int tid = sim::TraceJsonWriter::machineTid;
    unsigned idx = FR::compIndex(r.comp);
    switch (FR::compKind(r.comp)) {
      case 1:
        tid = sim::TraceJsonWriter::clusterTid(idx);
        break;
      case 2:
        tid = sim::TraceJsonWriter::bankTid(idx);
        break;
      default:
        break;
    }
    if (!_named[r.comp]) {
        _named[r.comp] = true;
        _w.threadName(tid, FR::compName(r.comp));
    }
    Ev e = static_cast<Ev>(r.kind);
    _w.instant(r.tick, tid, describeRecordBody(r), FR::evName(e));
    if (e == Ev::TxnBegin || e == Ev::TxnEnd) {
        // Keyed by bank and bank-local sequence: transactions of
        // different banks interleave, so spans cannot nest.
        std::uint64_t id = std::uint64_t(r.comp) << 32 | r.txn;
        std::string name = FR::compName(r.comp) + " txn#" +
                           std::to_string(r.txn);
        if (e == Ev::TxnBegin)
            _w.asyncBegin(id, r.tick, name, "txn");
        else
            _w.asyncEnd(id, r.tick, name, "txn");
    }
}

} // namespace arch
