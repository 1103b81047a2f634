#include "sim/fault.hh"

#include "sim/json.hh"
#include "sim/logging.hh"

namespace sim {

namespace {

constexpr const char *siteNames[numFaultSites] = {
    "fabric.c2b.drop",  "fabric.c2b.dup",  "fabric.c2b.delay",
    "fabric.b2c.drop",  "fabric.b2c.dup",  "fabric.b2c.delay",
    "l2.data.flip",     "l2.meta.flip",    "l3.data.flip",
    "l3.meta.flip",     "table.stale",     "mem.data.flip",
};

} // namespace

const char *
faultSiteName(FaultSite s)
{
    unsigned i = static_cast<unsigned>(s);
    return i < numFaultSites ? siteNames[i] : "?";
}

bool
faultSiteFromName(std::string_view name, FaultSite *out)
{
    for (unsigned i = 0; i < numFaultSites; ++i) {
        if (name == siteNames[i]) {
            *out = static_cast<FaultSite>(i);
            return true;
        }
    }
    return false;
}

bool
FaultPlan::anyEnabled() const
{
    for (const FaultSiteConfig &c : sites) {
        if (c.rate > 0.0)
            return true;
    }
    return false;
}

FaultPlan
FaultPlan::parse(std::string_view json_text)
{
    JsonValue doc;
    std::string err;
    fatal_if(!parseJson(json_text, &doc, &err), "fault plan: ", err);
    fatal_if(!doc.isObject(), "fault plan: top level must be an object");

    FaultPlan plan;
    if (const JsonValue *v = doc.find("seed")) {
        fatal_if(!v->isNumber(), "fault plan: seed must be a number");
        plan.seed = static_cast<std::uint64_t>(v->number);
    }
    if (const JsonValue *v = doc.find("pump_period")) {
        fatal_if(!v->isNumber() || v->number < 1,
                 "fault plan: pump_period must be a positive number");
        plan.pumpPeriod = static_cast<Tick>(v->number);
    }
    const JsonValue *sites = doc.find("sites");
    if (!sites)
        return plan;
    fatal_if(!sites->isObject(), "fault plan: sites must be an object");
    for (const auto &[name, cfg] : sites->obj) {
        FaultSite s;
        fatal_if(!faultSiteFromName(name, &s),
                 "fault plan: unknown site \"", name, "\"");
        fatal_if(!cfg.isObject(), "fault plan: site \"", name,
                 "\" must be an object");
        FaultSiteConfig &sc = plan.site(s);
        if (const JsonValue *v = cfg.find("rate")) {
            fatal_if(!v->isNumber() || v->number < 0.0 || v->number > 1.0,
                     "fault plan: ", name, ".rate must be in [0, 1]");
            sc.rate = v->number;
        }
        if (const JsonValue *v = cfg.find("max")) {
            fatal_if(!v->isNumber() || v->number < 0,
                     "fault plan: ", name, ".max must be >= 0");
            sc.max = static_cast<std::uint64_t>(v->number);
        }
        if (const JsonValue *v = cfg.find("delay")) {
            fatal_if(!v->isNumber() || v->number < 0,
                     "fault plan: ", name, ".delay must be >= 0");
            sc.delay = static_cast<Tick>(v->number);
        }
    }
    return plan;
}

namespace {

/** Lane count for @p s: C2B fabric sites are laned by source cluster,
 *  B2C sites and TableStale by bank, flip sites share one lane (their
 *  opportunities happen at the single-threaded fault pump). */
unsigned
laneCountFor(FaultSite s, unsigned clusters, unsigned banks)
{
    switch (s) {
      case FaultSite::FabricC2BDrop:
      case FaultSite::FabricC2BDup:
      case FaultSite::FabricC2BDelay:
        return clusters;
      case FaultSite::FabricB2CDrop:
      case FaultSite::FabricB2CDup:
      case FaultSite::FabricB2CDelay:
      case FaultSite::TableStale:
        return banks;
      default:
        return 1;
    }
}

} // namespace

void
FaultInjector::configure(const FaultPlan &plan, unsigned clusters,
                         unsigned banks)
{
    _plan = plan;
    _seed = plan.seed ? plan.seed : deriveSeed(12345, "fault");
    _enabled = plan.anyEnabled();
    if (clusters < 1)
        clusters = 1;
    if (banks < 1)
        banks = 1;
    for (unsigned i = 0; i < numFaultSites; ++i) {
        FaultSite s = static_cast<FaultSite>(i);
        unsigned n = laneCountFor(s, clusters, banks);
        _lanes[i].clear();
        _lanes[i].reserve(n);
        for (unsigned lane = 0; lane < n; ++lane) {
            Lane l;
            l.rng = Rng(deriveSeed(
                _seed, cat(faultSiteName(s), ".", lane)));
            _lanes[i].push_back(std::move(l));
        }
    }
    _recovered.fill(0);
    _pumpRng = Rng(deriveSeed(_seed, "pump"));
}

std::uint64_t
FaultInjector::totalInjected() const
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < numFaultSites; ++i)
        n += injected(static_cast<FaultSite>(i));
    return n;
}

std::uint64_t
FaultInjector::totalRecovered() const
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < numFaultSites; ++i)
        n += recovered(static_cast<FaultSite>(i));
    return n;
}

void
FaultInjector::registerStats(StatRegistry &reg,
                             const std::string &prefix) const
{
    reg.addScalar(prefix + ".seed", static_cast<double>(_seed));
    reg.addScalar(prefix + ".injected",
                  [this]() { return double(totalInjected()); });
    reg.addScalar(prefix + ".recovered",
                  [this]() { return double(totalRecovered()); });
    for (unsigned i = 0; i < numFaultSites; ++i) {
        FaultSite s = static_cast<FaultSite>(i);
        if (!(_plan.site(s).rate > 0.0) && injected(s) == 0)
            continue; // keep quiet sites out of the report
        std::string base = prefix + ".site." + faultSiteName(s);
        reg.addScalar(base + ".injected",
                      [this, s]() { return double(injected(s)); });
        reg.addScalar(base + ".recovered",
                      [this, s]() { return double(recovered(s)); });
    }
}

} // namespace sim
