/**
 * @file
 * Teardown invariant checker implementation.
 */

#include "core/audit.hh"

namespace damn::audit {

Auditor::Auditor(iommu::Iommu &mmu) : mmu_(mmu)
{
    ledger_.resize(mmu.numDomains());
    ledgerPages_.resize(mmu.numDomains(), 0);
    mmu_.onMapChange(this);
}

Auditor::~Auditor()
{
    if (mmu_.mapObserver() == this)
        mmu_.onMapChange(nullptr);
}

void
Auditor::onEvent(iommu::MapEvent ev, iommu::DomainId d, iommu::Iova iova,
                 unsigned pages)
{
    if (d >= ledger_.size()) {
        ledger_.resize(d + 1);
        ledgerPages_.resize(d + 1, 0);
    }
    auto &dom = ledger_[d];
    std::uint64_t &count = ledgerPages_[d];
    switch (ev) {
      case iommu::MapEvent::Map: {
        ++mapEvents_;
        unsigned &slot = dom[iova];
        count += pages - std::uint64_t(slot); // a re-map replaces
        slot = pages;
      } break;
      case iommu::MapEvent::Unmap:
        ++unmapEvents_;
        if (const unsigned *pages_there = dom.find(iova)) {
            count -= *pages_there;
            dom.erase(iova);
        }
        break;
      case iommu::MapEvent::DetachClear:
        // The IOMMU dropped the whole table; anything still in the
        // ledger was force-cleared and is reported by verifyTeardown()
        // through the detach return value — the ledger follows suit.
        dom.clear();
        count = 0;
        break;
    }
}

std::uint64_t
Auditor::ledgerPages(iommu::DomainId d) const
{
    return d < ledgerPages_.size() ? ledgerPages_[d] : 0;
}

TeardownReport
Auditor::verifyTeardown(iommu::DomainId d,
                        std::uint64_t outstanding_iovas,
                        std::uint64_t force_cleared) const
{
    TeardownReport r;
    r.domain = d;
    r.ledgerPages = ledgerPages(d);
    r.tablePages = mmu_.pageTable(d).mappedPages();
    const std::vector<iommu::TlbEntry> tlb = mmu_.iotlb().validEntries(d);
    r.tlbEntries = tlb.size();
    // Cold path, charged no virtual time.  An entry is stale when the
    // table no longer backs it (missing, other frame or page size).
    for (const iommu::TlbEntry &e : tlb) {
        const iommu::WalkResult w = mmu_.pageTable(d).walk(e.iovaPage);
        const std::uint64_t page_mask =
            (e.huge ? iommu::kHugePageSize : mem::kPageSize) - 1;
        if (!w.present || w.huge != e.huge ||
            (w.pa & ~page_mask) != e.paPage)
            ++r.staleTlbEntries;
    }
    r.leakedIovas = outstanding_iovas;
    r.forceCleared = force_cleared;

    const auto flag = [&r](const std::string &v) {
        r.violations.push_back(v);
    };
    if (r.tablePages != 0)
        flag("page table still holds " + std::to_string(r.tablePages) +
             " live pages");
    if (r.ledgerPages != 0)
        flag("ledger still holds " + std::to_string(r.ledgerPages) +
             " live pages");
    if (r.ledgerPages != r.tablePages)
        flag("ledger (" + std::to_string(r.ledgerPages) +
             ") and page table (" + std::to_string(r.tablePages) +
             ") disagree");
    if (r.tlbEntries != 0)
        flag(std::to_string(r.tlbEntries) +
             " IOTLB entries survived teardown");
    if (r.staleTlbEntries != 0)
        flag(std::to_string(r.staleTlbEntries) +
             " stale IOTLB entries (freed memory device-reachable)");
    if (r.leakedIovas != 0)
        flag(std::to_string(r.leakedIovas) + " IOVAs leaked");
    if (r.forceCleared != 0)
        flag("detach force-cleared " + std::to_string(r.forceCleared) +
             " pages the drain missed");
    return r;
}

} // namespace damn::audit
