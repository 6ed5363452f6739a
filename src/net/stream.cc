/**
 * @file
 * StreamEngine implementation.
 */

#include "net/stream.hh"

#include <algorithm>
#include <cassert>

namespace damn::net {

bool
StreamEngine::inWindow() const
{
    const sim::TimeNs now = sys_.ctx.now();
    return now >= windowStart_ && now < windowEnd_;
}

void
StreamEngine::startFlow(std::size_t fi)
{
    State &f = flows_[fi];
    if (f.spec.kind == Traffic::Rx) {
        // Post the initial ring of receive buffers from the flow's core
        // (driver probe path), then let the peer stream.  Buffers the
        // allocator cannot produce (memory pressure) are retried like
        // any ring refill.
        sim::CpuCursor cpu(sys_.ctx.machine.core(f.spec.core), 0);
        for (unsigned i = 0; i < f.spec.window; ++i) {
            RxBuffer buf =
                stack_.driver.allocRxBuffer(cpu, f.spec.segBytes);
            if (buf.valid()) {
                f.posted.push_back(buf);
            } else {
                sys_.ctx.stats.add(sim::Ctr::NetRxRefillFails);
                sys_.ctx.engine.schedule(
                    cpu.time + f.spec.rtoNs,
                    [this, fi] { refillRx(fi); });
            }
        }
        pumpRx(fi);
    } else {
        pumpTx(fi);
    }
}

void
StreamEngine::refillRx(std::size_t fi)
{
    State &f = flows_[fi];
    if (tornDown_ || f.failed)
        return;
    sim::CpuCursor cpu(sys_.ctx.machine.core(f.spec.core),
                       sys_.ctx.now());
    RxBuffer buf = stack_.driver.allocRxBuffer(
        cpu, f.spec.segBytes, core::AllocCtx::Interrupt);
    if (!buf.valid()) {
        // Still under pressure: try again after a timeout, as the
        // kernel's ring-refill work item does.
        sys_.ctx.stats.add(sim::Ctr::NetRxRefillFails);
        sys_.ctx.engine.schedule(cpu.time + f.spec.rtoNs,
                                 [this, fi] { refillRx(fi); });
        return;
    }
    f.posted.push_back(buf);
    if (f.generatorStalled) {
        f.generatorStalled = false;
        sys_.ctx.engine.schedule(cpu.time, [this, fi] { pumpRx(fi); });
    }
}

void
StreamEngine::pumpRx(std::size_t fi)
{
    State &f = flows_[fi];
    if (tornDown_ || f.failed)
        return;
    if (f.posted.empty()) {
        // Lossless flow control: the peer pauses until buffers are
        // reposted.
        f.generatorStalled = true;
        return;
    }
    const RxBuffer buf = f.posted.front();

    const sim::TimeNs now = sys_.ctx.now();
    const dma::DmaOutcome out = nic_.transferSegment(
        now, f.spec.port, Traffic::Rx, buf.seg.dmaAddr, f.spec.segBytes);
    if (out.fault) {
        // The DMA faulted (IOMMU fault or injected drop): the segment
        // never landed.  The buffer stays posted at the head of the
        // ring and the peer retransmits after an exponentially
        // backed-off timeout; give up (flow failed) once the budget is
        // exhausted.
        ++f.drops;
        sys_.ctx.tracer.instant(f.spec.core, sim::TraceCat::Fault,
                                "net.rx_drop", out.completes,
                                f.spec.segBytes);
        if (!nic_.attached()) {
            // Surprise unplug: no retransmit will ever land.  Fail the
            // flow immediately; the posted ring (including this
            // buffer) is recovered by teardown().
            f.failed = true;
            return;
        }
        ++f.rxRetries;
        if (f.rxRetries > f.spec.maxRetries) {
            f.failed = true;
            return;
        }
        ++f.retransmits;
        const unsigned shift = std::min(f.rxRetries - 1, 16u);
        const sim::TimeNs retry_at =
            out.completes + (f.spec.rtoNs << shift);
        sys_.ctx.engine.schedule(retry_at,
                                 [this, fi] { pumpRx(fi); });
        return;
    }
    f.rxRetries = 0;
    f.posted.pop_front();

    ++f.rxInflight;
    sys_.ctx.engine.schedule(out.completes, [this, fi, buf, now] {
        rxProcess(fi, buf, now);
    });
    // The peer streams the next segment as soon as the wire frees up
    // (the pacing resources serialize per-flow occupancy).
    sys_.ctx.engine.schedule(out.completes, [this, fi] { pumpRx(fi); });
}

void
StreamEngine::rxProcess(std::size_t fi, const RxBuffer &buf,
                        sim::TimeNs started)
{
    State &f = flows_[fi];
    assert(f.rxInflight > 0);
    --f.rxInflight;
    sim::CpuCursor cpu(sys_.ctx.machine.core(f.spec.core),
                       sys_.ctx.now());

    if (tornDown_) {
        // The ring is gone: complete the buffer with error instead of
        // delivering data up a dead stack.
        stack_.driver.abortRxBuffer(cpu, buf,
                                    core::AllocCtx::Interrupt);
        ++abortedSegments_;
        return;
    }

    SkBuff skb = stack_.driver.rxBuild(cpu, buf, f.spec.segBytes);

    // Drivers refill the ring before handing the skb up (NAPI refills
    // eagerly); the freed buffer below therefore goes back to the page
    // allocator where *any* consumer may claim it before the next
    // refill -- the behaviour figure 9 measures on stock kernels.
    RxBuffer refill = stack_.driver.allocRxBuffer(
        cpu, f.spec.segBytes, core::AllocCtx::Interrupt);
    if (refill.valid()) {
        f.posted.push_back(refill);
        if (f.generatorStalled) {
            f.generatorStalled = false;
            sys_.ctx.engine.schedule(cpu.time,
                                     [this, fi] { pumpRx(fi); });
        }
    } else {
        // Memory pressure: retry the refill later; the peer stalls on
        // flow control if the ring runs dry meanwhile.
        sys_.ctx.stats.add(sim::Ctr::NetRxRefillFails);
        sys_.ctx.engine.schedule(cpu.time + f.spec.rtoNs,
                                 [this, fi] { refillRx(fi); });
    }

    stack_.rxSegment(cpu, skb, config_.costFactor);
    stack_.appRead(cpu, skb, config_.costFactor,
                   core::AllocCtx::Interrupt);

    if (inWindow()) {
        ++f.segments;
        f.bytes += f.spec.segBytes;
        latency_.record(cpu.time - started);
    }
}

void
StreamEngine::pumpTx(std::size_t fi)
{
    State &f = flows_[fi];
    if (tornDown_ || f.failed)
        return;
    if (f.txInflight >= f.spec.window) {
        f.appStalled = true;
        return;
    }

    sim::CpuCursor cpu(sys_.ctx.machine.core(f.spec.core),
                       sys_.ctx.now());
    std::uint32_t slot;
    if (freeTxSlots_.empty()) {
        slot = std::uint32_t(txSkbs_.size());
        txSkbs_.emplace_back();
    } else {
        slot = freeTxSlots_.back();
        freeTxSlots_.pop_back();
    }
    txSkbs_[slot] = stack_.txBuild(cpu, f.spec.segBytes, config_.costFactor,
                                   core::AllocCtx::Standard);
    if (txSkbs_[slot].allocFailed) {
        // Memory or IOVA pressure beat the build: nothing was mapped
        // (txBuild already freed the partial skb).  Throttle the
        // application with an exponentially backed-off retry instead
        // of spinning; give up once the budget is exhausted.
        freeTxSlots_.push_back(slot);
        sys_.ctx.stats.add(sim::Ctr::NetTxThrottled);
        ++f.txAllocRetries;
        if (f.txAllocRetries > f.spec.maxRetries) {
            f.failed = true;
            return;
        }
        const unsigned shift = std::min(f.txAllocRetries - 1, 16u);
        sys_.ctx.engine.schedule(cpu.time + (f.spec.rtoNs << shift),
                                 [this, fi] { pumpTx(fi); });
        return;
    }
    f.txAllocRetries = 0;
    ++f.txInflight;

    txSend(fi, slot, cpu.time, sys_.ctx.now(), /*attempt=*/1);
    // The application loops: next socket write follows immediately
    // (CPU availability permitting -- the cursor serialized on core).
    sys_.ctx.engine.schedule(cpu.time, [this, fi] { pumpTx(fi); });
}

void
StreamEngine::txSend(std::size_t fi, std::uint32_t slot, sim::TimeNs when,
                     sim::TimeNs started, unsigned attempt)
{
    State &f = flows_[fi];
    SkBuff &skb = txSkbs_[slot];

    // Abort the in-flight segment: complete with error (unmap + free,
    // so the mapping does not leak) and retire the ring credit.
    const auto abort_tx = [&](sim::TimeNs at) {
        sim::CpuCursor cpu(sys_.ctx.machine.core(f.spec.core), at);
        stack_.txAbort(cpu, skb, core::AllocCtx::Standard);
        freeTxSlots_.push_back(slot);
        ++abortedSegments_;
        assert(f.txInflight > 0);
        --f.txInflight;
    };

    if (tornDown_) {
        abort_tx(when);
        return;
    }

    const dma::DmaOutcome out =
        nic_.transferSegmentSg(when, f.spec.port, Traffic::Tx, skb);
    if (out.fault) {
        ++f.drops;
        sys_.ctx.tracer.instant(f.spec.core, sim::TraceCat::Fault,
                                "net.tx_drop", out.completes,
                                f.spec.segBytes, attempt);
        if (!nic_.attached() || attempt > f.spec.maxRetries) {
            // Unplugged or out of budget: the segment will never make
            // it.  Error-complete it so nothing stays mapped.
            f.failed = true;
            abort_tx(out.completes);
            return;
        }
        // The skb stays mapped; the retransmission timer fires with
        // exponential backoff until the retry budget runs out.
        ++f.retransmits;
        const unsigned shift = std::min(attempt - 1, 16u);
        const sim::TimeNs retry_at =
            out.completes + (f.spec.rtoNs << shift);
        sys_.ctx.engine.schedule(
            retry_at, [this, fi, slot, retry_at, started, attempt] {
                txSend(fi, slot, retry_at, started, attempt + 1);
            });
        return;
    }

    sys_.ctx.engine.schedule(out.completes, [this, fi, slot, started] {
        txDone(fi, slot, started);
    });
}

void
StreamEngine::txDone(std::size_t fi, std::uint32_t slot,
                     sim::TimeNs started)
{
    State &f = flows_[fi];
    sim::CpuCursor cpu(sys_.ctx.machine.core(f.spec.core),
                       sys_.ctx.now());
    stack_.txComplete(cpu, txSkbs_[slot], config_.costFactor,
                      core::AllocCtx::Standard);
    freeTxSlots_.push_back(slot);

    if (inWindow()) {
        ++f.segments;
        f.bytes += f.spec.segBytes;
        latency_.record(cpu.time - started);
    }

    assert(f.txInflight > 0);
    --f.txInflight;
    if (f.appStalled && !tornDown_ && !f.failed) {
        f.appStalled = false;
        sys_.ctx.engine.schedule(cpu.time, [this, fi] { pumpTx(fi); });
    }
}

void
StreamEngine::teardown(sim::CpuCursor &cpu)
{
    if (tornDown_)
        return;
    tornDown_ = true;
    for (State &f : flows_) {
        // Ring teardown: every posted (never-completed) buffer is
        // unmapped and freed.  In-flight segments abort as their
        // events fire; run the engine forward and check quiesced().
        while (!f.posted.empty()) {
            stack_.driver.abortRxBuffer(cpu, f.posted.front(),
                                        core::AllocCtx::Interrupt);
            ++abortedSegments_;
            f.posted.pop_front();
        }
        f.generatorStalled = false;
        f.appStalled = false;
    }
    sys_.ctx.stats.add(sim::Ctr::NetRingTeardowns);
}

StreamResult
StreamEngine::run()
{
    assert(!flows_.empty());
    for (std::size_t fi = 0; fi < flows_.size(); ++fi)
        startFlow(fi);

    sys_.ctx.engine.run(config_.warmupNs);
    windowStart_ = config_.warmupNs;
    windowEnd_ = config_.warmupNs + config_.measureNs;
    sys_.ctx.resetAccounting();

    sys_.ctx.engine.run(windowEnd_);

    StreamResult r;
    const double window_s = double(config_.measureNs) / 1e9;
    for (const State &f : flows_) {
        FlowResult fr;
        fr.segments = f.segments;
        fr.bytes = f.bytes;
        fr.gbps = double(f.bytes) * 8.0 / 1e9 / window_s;
        fr.drops = f.drops;
        fr.retransmits = f.retransmits;
        fr.failed = f.failed;
        r.flows.push_back(fr);
        r.drops += fr.drops;
        r.retransmits += fr.retransmits;
        if (fr.failed)
            ++r.failedFlows;
        if (f.spec.kind == Traffic::Rx)
            r.rxGbps += fr.gbps;
        else
            r.txGbps += fr.gbps;
    }
    r.totalGbps = r.rxGbps + r.txGbps;
    r.cpuPct = sys_.ctx.machine.utilizationPct(config_.measureNs);
    r.memGBps = sys_.ctx.memBw.achievedGBps(config_.measureNs);
    r.latency = latency_;
    return r;
}

} // namespace damn::net
