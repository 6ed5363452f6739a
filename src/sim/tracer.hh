/**
 * @file
 * Deterministic virtual-time event tracing and cost attribution.
 *
 * Two independent facilities behind one object, both owned by the
 * simulation Context:
 *
 *  - *Cost attribution* (always on): every nanosecond booked on any
 *    core lands in exactly one category — whichever TraceSpan is
 *    innermost on that core when the charge happens, or "other" when
 *    none is.  Attribution therefore accounts for 100% of the machine's
 *    busy time by construction; instrumentation only decides how
 *    informative the split is.  The hook is the Core busy-time
 *    observer (see sim/machine.hh), so no charge site can escape it.
 *
 *  - *Event recording* (off by default): when recording, spans and
 *    instants additionally append typed events to a bounded per-core
 *    ring buffer (oldest events overwritten, drops counted).  The
 *    exporter merges the rings into Chrome trace-event JSON.
 *
 * Determinism rules: events carry virtual times and a global sequence
 * number assigned in (single-threaded) execution order; names are
 * interned in first-use order; export sorts by (start time, sequence).
 * Nothing reads wall-clock time, so two same-seed runs serialize to
 * byte-identical output.
 *
 * Cost rules: recording never charges virtual CPU time — a traced run
 * and an untraced run book identical busy time and produce identical
 * metrics.  When recording is off the per-event wall-clock cost is a
 * category push/pop and one array add per charge.
 */

#ifndef DAMN_SIM_TRACER_HH
#define DAMN_SIM_TRACER_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/cpu_cursor.hh"
#include "sim/machine.hh"
#include "sim/types.hh"

namespace damn::sim {

class CostModel;

/**
 * Cost-attribution categories: the layers the paper's overhead
 * analysis argues about.  One enum for spans and attribution keeps the
 * trace and the table consistent.
 */
enum class TraceCat : std::uint8_t
{
    Other = 0,   //!< busy time charged outside any span
    DmaMap,      //!< DmaApi::map (IOVA alloc + PTE writes + bookkeeping)
    DmaUnmap,    //!< DmaApi::unmap / unmapBatch (PTE clears, recycling)
    IommuInval,  //!< IOTLB invalidation (sync or batched flush)
    Iotlb,       //!< IOTLB lookup outcomes (device-side, no CPU time)
    NicRing,     //!< NIC descriptor post/complete
    NetDriver,   //!< driver buffer management (alloc, skb build, TX map)
    NetStack,    //!< TCP/IP protocol work (segments, ACKs, IRQs)
    Copy,        //!< payload copies (shadow bounce, copy_to/from_user)
    App,         //!< application-level per-segment work
    Nvme,        //!< NVMe submission/completion CPU work
    Fault,       //!< fault handling and recovery
    kCount,
};

constexpr std::size_t kTraceCatCount =
    static_cast<std::size_t>(TraceCat::kCount);

/** Stable category name ("dma.map", "net.stack", ...). */
const char *traceCatName(TraceCat c);

/** One recorded event.  Spans have t1 > t0; instants have t1 == t0. */
struct TraceEvent
{
    TimeNs t0 = 0;
    TimeNs t1 = 0;
    std::uint64_t seq = 0;   //!< global record order (tie-break key)
    std::uint64_t bytes = 0; //!< payload bytes involved (0 = n/a)
    std::uint64_t aux = 0;   //!< event-specific extra (iova, count, ...)
    std::uint32_t nameId = 0;
    CoreId core = 0;
    TraceCat cat = TraceCat::Other;
    bool instant = false;
};

/**
 * Snapshot of one run's trace state, detachable from the live
 * simulation: the attribution table, the merged event log, and the
 * name table.  This is what workloads hand to the experiment layer.
 */
struct TraceBundle
{
    struct Category
    {
        std::string name;          //!< traceCatName()
        TimeNs ns = 0;             //!< busy time attributed
        std::uint64_t cycles = 0;  //!< ns converted at the modeled GHz
        std::uint64_t bytes = 0;
        std::uint64_t events = 0;  //!< span/instant activations
    };

    /** Non-empty categories, in enum order. */
    std::vector<Category> categories;
    TimeNs totalBusyNs = 0;          //!< machine busy time at snapshot
    std::uint64_t totalCycles = 0;
    TimeNs attributedNs = 0;         //!< sum of categories[].ns
    std::uint64_t droppedEvents = 0; //!< ring overwrites
    std::vector<TraceEvent> events;  //!< merged, sorted by (t0, seq)
    std::vector<std::string> names;  //!< interned event names

    bool hasData() const { return totalBusyNs != 0 || !events.empty(); }
    double
    coveragePct() const
    {
        return totalBusyNs == 0
            ? 100.0
            : 100.0 * double(attributedNs) / double(totalBusyNs);
    }
};

/** The tracing subsystem of one Context. */
class Tracer final : public BusyObserver
{
  public:
    /** Default per-core event ring capacity (events, not bytes). */
    static constexpr std::size_t kDefaultRingCapacity = 1u << 16;

    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Wire the tracer to @p machine: sizes per-core state and installs
     * the busy-time observer.  Called once by the Context constructor.
     */
    void attach(Machine &machine);

    // --- event recording control -----------------------------------

    /** Start appending events (bounded ring of @p capacity per core). */
    void startRecording(std::size_t capacity = kDefaultRingCapacity);
    bool recording() const { return recording_; }

    // --- category scopes (used by TraceSpan) -----------------------

    void
    pushCat(CoreId core, TraceCat cat)
    {
        PerCore &pc = perCore_[core];
        if (pc.depth < kMaxDepth)
            pc.stack[pc.depth] = cat;
        ++pc.depth;
        totals_[idx(cat)].events += 1;
    }

    void
    popCat(CoreId core)
    {
        PerCore &pc = perCore_[core];
        if (pc.depth > 0)
            --pc.depth;
    }

    /** Innermost category on @p core ("other" outside any span). */
    TraceCat
    currentCat(CoreId core) const
    {
        const PerCore &pc = perCore_[core];
        if (pc.depth == 0)
            return TraceCat::Other;
        const unsigned top = pc.depth < kMaxDepth ? pc.depth : kMaxDepth;
        return pc.stack[top - 1];
    }

    /** Busy-time hook: attribute @p booked to the current category. */
    void
    onBusy(CoreId core, TimeNs booked) override
    {
        totals_[idx(currentCat(core))].ns += booked;
    }

    /** Attribute payload bytes to a category (copies, DMA sizes). */
    void
    addBytes(TraceCat cat, std::uint64_t bytes)
    {
        totals_[idx(cat)].bytes += bytes;
    }

    // --- event recording -------------------------------------------

    /** Intern @p name; stable id in first-use order. */
    std::uint32_t intern(std::string_view name);

    /** Record a completed span (no-op unless recording). */
    void span(CoreId core, TraceCat cat, std::string_view name,
              TimeNs t0, TimeNs t1, std::uint64_t bytes = 0,
              std::uint64_t aux = 0);

    /** Record an instant event; attributes the activation always,
     *  appends the event only when recording (out of line). */
    void
    instant(CoreId core, TraceCat cat, std::string_view name, TimeNs t,
            std::uint64_t bytes = 0, std::uint64_t aux = 0)
    {
        Totals &tot = totals_[idx(cat)];
        tot.events += 1;
        tot.bytes += bytes;
        if (recording_)
            recordInstant(core, cat, name, t, bytes, aux);
    }

    // --- windows and export ----------------------------------------

    /**
     * Reset attribution totals and discard buffered events; called
     * alongside Machine::resetAccounting so the attribution window
     * always equals the busy-time window.  Interned names and the
     * recording flag survive (name ids stay stable across windows).
     */
    void resetWindow();

    /** Events overwritten because a ring was full. */
    std::uint64_t droppedEvents() const;

    /** Events currently buffered across all cores. */
    std::uint64_t bufferedEvents() const;

    /** Attributed ns for one category (testing/inspection). */
    TimeNs attributedNs(TraceCat cat) const { return totals_[idx(cat)].ns; }

    /**
     * Snapshot the attribution table and (if recording) the merged,
     * sorted event log.  @p machine supplies the busy-time total the
     * table is checked against; @p cpu_ghz converts ns to cycles.
     */
    TraceBundle bundle(const Machine &machine, double cpu_ghz) const;

  private:
    static constexpr unsigned kMaxDepth = 16;

    static std::size_t idx(TraceCat c) { return std::size_t(c); }

    struct Totals
    {
        TimeNs ns = 0;
        std::uint64_t bytes = 0;
        std::uint64_t events = 0;
    };

    struct PerCore
    {
        std::array<TraceCat, kMaxDepth> stack{};
        unsigned depth = 0; //!< may exceed kMaxDepth; excess not stored
        std::vector<TraceEvent> ring;
        std::size_t head = 0;  //!< next write slot
        std::size_t count = 0; //!< valid events (<= capacity)
        std::uint64_t dropped = 0;
    };

    /** instant()'s recording path: append the event. */
    void recordInstant(CoreId core, TraceCat cat, std::string_view name,
                       TimeNs t, std::uint64_t bytes, std::uint64_t aux);
    void append(CoreId core, const TraceEvent &ev);

    std::vector<PerCore> perCore_;
    std::array<Totals, kTraceCatCount> totals_{};
    std::vector<std::string> names_;
    std::size_t ringCapacity_ = kDefaultRingCapacity;
    std::uint64_t nextSeq_ = 0;
    bool recording_ = false;
};

/**
 * RAII span: pushes its category for the lifetime of the scope (so
 * every cpu.charge() inside lands in it) and, when recording, emits a
 * span event covering [cursor time at entry, cursor time at exit].
 */
class TraceSpan
{
  public:
    TraceSpan(Tracer &tracer, CpuCursor &cpu, TraceCat cat,
              std::string_view name)
        : tracer_(&tracer), cpu_(&cpu), name_(name), t0_(cpu.time),
          cat_(cat)
    {
        tracer_->pushCat(cpu_->id(), cat_);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Attach payload bytes: attribution plus the event's bytes arg. */
    void
    bytes(std::uint64_t b)
    {
        bytes_ += b;
        tracer_->addBytes(cat_, b);
    }

    void aux(std::uint64_t a) { aux_ = a; }

    ~TraceSpan()
    {
        tracer_->popCat(cpu_->id());
        if (tracer_->recording())
            tracer_->span(cpu_->id(), cat_, name_, t0_, cpu_->time,
                          bytes_, aux_);
    }

  private:
    Tracer *tracer_;
    CpuCursor *cpu_;
    std::string_view name_;
    TimeNs t0_;
    std::uint64_t bytes_ = 0;
    std::uint64_t aux_ = 0;
    TraceCat cat_;
};

/**
 * Escape @p s for inclusion inside a JSON string literal (quotes not
 * added).  Control characters become \u00XX (with the usual two-char
 * shortcuts); other bytes pass through untouched.  Exposed for the
 * fuzz suite.
 */
std::string jsonEscape(std::string_view s);

/** One run's contribution to a merged Chrome trace. */
struct TraceProcess
{
    std::string name; //!< e.g. "fig4_singlecore/strict mode=rx"
    const TraceBundle *bundle = nullptr;
};

/**
 * Serialize runs as Chrome trace-event JSON (chrome://tracing /
 * Perfetto "JSON Object Format").  Each TraceProcess becomes one pid
 * with a process_name metadata record; cores become tids.  Timestamps
 * are virtual microseconds with fixed 3-digit sub-µs precision, so
 * output is deterministic.
 */
std::string chromeTraceJson(const std::vector<TraceProcess> &procs);

} // namespace damn::sim

#endif // DAMN_SIM_TRACER_HH
