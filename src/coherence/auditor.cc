#include "coherence/auditor.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <string_view>
#include <vector>

#include "arch/chip.hh"
#include "cohesion/region_table.hh"
#include "sim/logging.hh"

namespace coherence {

void
Auditor::auditNow()
{
    try {
        auditPass();
    } catch (const AuditError &e) {
        // Attach the flight-recorder history of every line the
        // violation names (the "0x<addr>" tokens in the detail), so a
        // fault-campaign kill carries its own post-mortem.
        std::string ctx;
        std::vector<mem::Addr> seen;
        std::string_view msg(e.what());
        for (std::size_t i = 0; (i = msg.find("0x", i)) != msg.npos;) {
            i += 2;
            mem::Addr addr = 0;
            auto [p, ec] = std::from_chars(msg.data() + i,
                                           msg.data() + msg.size(), addr,
                                           16);
            if (ec != std::errc())
                continue;
            i = static_cast<std::size_t>(p - msg.data());
            mem::Addr base = mem::lineBase(addr);
            if (std::find(seen.begin(), seen.end(), base) != seen.end())
                continue;
            seen.push_back(base);
            std::string hist = _chip.lineHistory(base);
            if (!hist.empty()) {
                ctx += sim::cat("\n  recorder history line 0x", std::hex,
                                base, std::dec, ":\n", hist);
            }
        }
        throw AuditError(e, ctx);
    }
}

void
Auditor::verifyNow()
{
    _countStats = false;
    try {
        auditNow();
    } catch (...) {
        _countStats = true;
        throw;
    }
    _countStats = true;
}

bool
Auditor::inFlux(mem::Addr base) const
{
    auto in = [](const std::vector<mem::Addr> &lines, mem::Addr a) {
        return std::binary_search(lines.begin(), lines.end(),
                                  mem::lineBase(a));
    };
    // A transition atomic holds the covering table line's lock while
    // it rewrites this line's domain.
    return in(_lockedLines, base) || in(_mshrLines, base) ||
           (_chip.cohesionEnabled() &&
            in(_lockedLines, _chip.map().tableWordAddr(base)));
}

mem::Addr
Auditor::ownerConflict()
{
    // Slot: line base in the high half; copies << 1 | owned in the low
    // half (never 0 once occupied, so 0 marks an empty slot).
    std::size_t cap = 16;
    while (cap < 2 * _hwccCopies.size())
        cap <<= 1;
    _tally.assign(cap, 0);
    const unsigned shift = 64 - static_cast<unsigned>(std::countr_zero(cap));
    for (mem::Addr copy : _hwccCopies) {
        const mem::Addr base = copy & ~mem::Addr(1);
        std::size_t i = static_cast<std::size_t>(
            (std::uint64_t(base >> mem::lineShift) * 0x9E3779B97F4A7C15ull) >>
            shift);
        while (_tally[i] != 0 && (_tally[i] >> 32) != base)
            i = (i + 1) & (cap - 1);
        const std::uint64_t copies = ((_tally[i] & 0xFFFFFFFFu) >> 1) + 1;
        const bool owned = (_tally[i] & 1) || (copy & 1);
        _tally[i] = (std::uint64_t(base) << 32) | (copies << 1) | owned;
        if (owned && copies > 1)
            return base;
    }
    return ~mem::Addr(0);
}

bool
Auditor::lineIsSwcc(mem::Addr base)
{
    arch::Chip &c = _chip;
    base = mem::lineBase(base);
    if (c.coarseTable().contains(base))
        return true;
    const mem::AddressMap &map = c.map();
    const mem::Addr block = base >> 10; // the 32 lines one word covers
    TableWord &slot = _tableWords[block % _tableWords.size()];
    if (slot.tag != block + 1) {
        // The L3 copy of the table line is the newest committed value;
        // the backing store serves lines the L3 evicted. The per-bank
        // table cache is deliberately not consulted — it is a fault
        // site (table.stale) and must not launder its own staleness.
        const mem::Addr wa = map.tableWordAddr(base);
        arch::L3Bank &home = c.bank(map.bankOf(wa));
        if (const cache::Line *l = home.l3().probe(wa))
            l->read(wa, &slot.word, 4);
        else
            slot.word = c.store().readT<std::uint32_t>(wa);
        slot.tag = block + 1;
    }
    return cohesion::fine_table::bitFromWord(slot.word, map, base);
}

void
Auditor::auditPass()
{
    arch::Chip &c = _chip;
    const arch::CoherenceMode mode = c.config().mode;
    const std::uint32_t amask = c.auditMask();
    // True when @p inv is in the backend's applicability mask;
    // otherwise records the skip so it is visibly by-design.
    auto applicable = [&](Invariant inv) {
        if (amask & invariantBit(inv))
            return true;
        ++_invariantSkips[static_cast<unsigned>(inv)];
        return false;
    };
    if (_countStats)
        _passes.inc();
    _tableWords.fill({});
    _hwccCopies.clear();
    // Lines mid-transaction, gathered once per pass: the line locks
    // held at each line's home bank, and the MSHRs of every cluster.
    _lockedLines.clear();
    for (unsigned bi = 0; bi < c.numBanks(); ++bi) {
        c.bank(bi).forEachBusyLine([&](mem::Addr base) {
            if (c.map().bankOf(base) == bi)
                _lockedLines.push_back(base);
        });
    }
    std::sort(_lockedLines.begin(), _lockedLines.end());
    _mshrLines.clear();
    for (unsigned ci = 0; ci < c.numClusters(); ++ci) {
        c.cluster(ci).forEachMshr(
            [&](mem::Addr base, arch::ReqType, unsigned) {
                _mshrLines.push_back(base);
            });
    }
    std::sort(_mshrLines.begin(), _mshrLines.end());

    auto isOwner = [](cache::CohState s) {
        return s == cache::CohState::Modified ||
               s == cache::CohState::Exclusive;
    };

    for (unsigned ci = 0; ci < c.numClusters(); ++ci) {
        cache::CacheArray &l2 = c.cluster(ci).l2();
        // Look this L2's HWcc lines up in their home directories first:
        // a loop of independent lookups overlaps their cache misses,
        // which the checks below would take one at a time. The checks
        // still run in walk order, so the first violation is unchanged.
        _homeEntries.clear();
        if (amask & invariantBit(Invariant::L2WithoutDirectory)) {
            l2.forEachValid([&](cache::Line &l) {
                if (l.incoherent)
                    return;
                const Directory *dir =
                    c.bank(c.map().bankOf(l.base)).directoryOrNull();
                _homeEntries.push_back(dir ? dir->peek(l.base) : nullptr);
            });
        }
        std::size_t next = 0; // this line's slot in _homeEntries
        l2.forEachValid([&](cache::Line &l) {
            const DirEntry *home = nullptr;
            if (!l.incoherent && !_homeEntries.empty())
                home = _homeEntries[next++];
            if (inFlux(l.base)) {
                if (_countStats)
                    _linesSkipped.inc();
                return;
            }
            if (_countStats)
                _linesChecked.inc();
            // Formatted only when an invariant fails.
            auto where = [&] {
                return sim::cat(
                    "cluster ", ci, " line 0x", std::hex, l.base, std::dec,
                    " state ", cache::cohStateName(l.hwState),
                    l.incoherent ? " incoherent" : "", " valid=0x",
                    std::hex, unsigned(l.validMask), " dirty=0x",
                    unsigned(l.dirtyMask), std::dec);
            };

            if (applicable(Invariant::DirtySubsetValid) &&
                (l.dirtyMask & ~l.validMask) != 0)
                throw AuditError("dirty-subset-valid", where());
            if (applicable(Invariant::IncoherentXorHwstate) &&
                l.incoherent && l.hwState != cache::CohState::Invalid)
                throw AuditError("incoherent-xor-hwstate", where());
            if (applicable(Invariant::ValidLineStateless) &&
                !l.incoherent && l.hwState == cache::CohState::Invalid)
                throw AuditError("valid-line-stateless", where());
            if (applicable(Invariant::DirtyNeedsOwner) && l.dirty() &&
                !l.incoherent && l.hwState != cache::CohState::Modified)
                throw AuditError("dirty-needs-owner", where());
            if (applicable(Invariant::ModeDomain)) {
                if (mode == arch::CoherenceMode::HWccOnly && l.incoherent)
                    throw AuditError("mode-domain", where() + " (HWccOnly)");
                if (mode == arch::CoherenceMode::SWccOnly && !l.incoherent)
                    throw AuditError("mode-domain", where() + " (SWccOnly)");
            }

            if (!l.incoherent) {
                _hwccCopies.push_back(l.base | isOwner(l.hwState));
                if (applicable(Invariant::DlsCleanShared) &&
                    (l.hwState != cache::CohState::Shared ||
                     l.dirtyMask != 0)) {
                    // Directoryless bank writes through and grants
                    // Shared only: an HWcc L2 copy is always a clean
                    // Shared one.
                    throw AuditError("dls-clean-shared", where());
                }
                // HWcc copy: the home directory must know about it
                // (directory-backed backends only).
                const DirEntry *e = nullptr;
                if (applicable(Invariant::L2WithoutDirectory)) {
                    e = home;
                    if (!e)
                        throw AuditError("l2-without-directory", where());
                }
                if (applicable(Invariant::SharerMissing) && e &&
                    !e->sharers.contains(ci))
                    throw AuditError(
                        "sharer-missing",
                        where() + sim::cat(" (dir state ",
                                           cache::cohStateName(e->state),
                                           ", ", e->sharers.count(),
                                           " sharer(s))"));
                if (applicable(Invariant::StateMismatch) && e &&
                    isOwner(l.hwState) && !isOwner(e->state))
                    throw AuditError(
                        "state-mismatch",
                        where() + sim::cat(" (dir state ",
                                           cache::cohStateName(e->state),
                                           ")"));
                if (applicable(Invariant::DomainMismatch) &&
                    mode == arch::CoherenceMode::Cohesion &&
                    lineIsSwcc(l.base)) {
                    throw AuditError("domain-mismatch",
                                     where() + " (table says SWcc)");
                }
            } else if (mode == arch::CoherenceMode::Cohesion) {
                if (applicable(Invariant::DomainMismatch) &&
                    !lineIsSwcc(l.base))
                    throw AuditError("domain-mismatch",
                                     where() + " (table says HWcc)");
            }
        });
    }

    if (!_hwccCopies.empty() && applicable(Invariant::OwnerExclusive)) {
        const mem::Addr base = ownerConflict();
        if (base != ~mem::Addr(0)) {
            std::string detail =
                sim::cat("line 0x", std::hex, base, std::dec, ":");
            for (unsigned ci = 0; ci < c.numClusters(); ++ci) {
                const cache::Line *l = c.cluster(ci).l2().probe(base);
                if (l && !l->incoherent) {
                    detail += sim::cat(" cluster", ci, "=",
                                       cache::cohStateName(l->hwState));
                }
            }
            throw AuditError("owner-exclusive", detail);
        }
    }

    for (unsigned bi = 0; bi < c.numBanks(); ++bi) {
        const Directory *dir = c.bank(bi).directoryOrNull();
        if (!dir)
            continue; // directoryless backend: nothing to walk
        dir->forEach([&](const DirEntry &e) {
            auto where = [&] {
                return sim::cat("bank ", bi, " entry 0x", std::hex, e.base,
                                std::dec, " state ",
                                cache::cohStateName(e.state), " ",
                                e.sharers.count(), " sharer(s)");
            };
            if (applicable(Invariant::DirInSwccMode) &&
                mode == arch::CoherenceMode::SWccOnly)
                throw AuditError("dir-in-swcc-mode", where());
            if (inFlux(e.base)) {
                if (_countStats)
                    _linesSkipped.inc();
                return;
            }
            if (_countStats)
                _linesChecked.inc();
            if (applicable(Invariant::DirInvalidState) &&
                e.state == cache::CohState::Invalid)
                throw AuditError("dir-invalid-state", where());
            if (applicable(Invariant::DirEmptySharers) &&
                e.sharers.empty())
                throw AuditError("dir-empty-sharers", where());
            if (applicable(Invariant::DirMultiOwner) && isOwner(e.state) &&
                !e.sharers.broadcast() && e.sharers.count() != 1)
                throw AuditError("dir-multi-owner", where());
            if (applicable(Invariant::DirCoversSwcc) &&
                mode == arch::CoherenceMode::Cohesion &&
                lineIsSwcc(e.base))
                throw AuditError("dir-covers-swcc", where());
        });
    }
}

void
Auditor::registerStats(sim::StatRegistry &reg,
                       const std::string &prefix) const
{
    reg.addCounter(prefix + ".passes", _passes);
    reg.addCounter(prefix + ".lines_checked", _linesChecked);
    reg.addCounter(prefix + ".lines_skipped", _linesSkipped);
}

} // namespace coherence
