/**
 * @file
 * Tracer implementation: bounded rings, name interning, the JSON
 * string escaper, and the Chrome trace-event exporter.
 */

#include "sim/tracer.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace damn::sim {

const char *
traceCatName(TraceCat c)
{
    switch (c) {
      case TraceCat::Other:
        return "other";
      case TraceCat::DmaMap:
        return "dma.map";
      case TraceCat::DmaUnmap:
        return "dma.unmap";
      case TraceCat::IommuInval:
        return "iommu.inval";
      case TraceCat::Iotlb:
        return "iommu.iotlb";
      case TraceCat::NicRing:
        return "nic.ring";
      case TraceCat::NetDriver:
        return "net.driver";
      case TraceCat::NetStack:
        return "net.stack";
      case TraceCat::Copy:
        return "copy";
      case TraceCat::App:
        return "app";
      case TraceCat::Nvme:
        return "nvme";
      case TraceCat::Fault:
        return "fault";
      case TraceCat::kCount:
        break;
    }
    return "?";
}

void
Tracer::attach(Machine &machine)
{
    perCore_.resize(machine.numCores());
    machine.setBusyObserver(this);
}

void
Tracer::startRecording(std::size_t capacity)
{
    assert(capacity > 0);
    ringCapacity_ = capacity;
    recording_ = true;
    for (PerCore &pc : perCore_) {
        pc.ring.clear();
        pc.ring.reserve(capacity < 4096 ? capacity : 4096);
        pc.head = 0;
        pc.count = 0;
        pc.dropped = 0;
    }
}

std::uint32_t
Tracer::intern(std::string_view name)
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return std::uint32_t(i);
    names_.emplace_back(name);
    return std::uint32_t(names_.size() - 1);
}

void
Tracer::append(CoreId core, const TraceEvent &ev)
{
    assert(core < perCore_.size());
    PerCore &pc = perCore_[core];
    if (pc.ring.size() < ringCapacity_) {
        pc.ring.push_back(ev);
        pc.head = pc.ring.size() % ringCapacity_;
        pc.count = pc.ring.size();
        return;
    }
    // Full: overwrite the oldest slot.
    pc.ring[pc.head] = ev;
    pc.head = (pc.head + 1) % ringCapacity_;
    pc.dropped += 1;
}

void
Tracer::span(CoreId core, TraceCat cat, std::string_view name,
             TimeNs t0, TimeNs t1, std::uint64_t bytes,
             std::uint64_t aux)
{
    if (!recording_)
        return;
    TraceEvent ev;
    ev.t0 = t0;
    ev.t1 = t1 > t0 ? t1 : t0;
    ev.seq = nextSeq_++;
    ev.bytes = bytes;
    ev.aux = aux;
    ev.nameId = intern(name);
    ev.core = core;
    ev.cat = cat;
    ev.instant = false;
    append(core, ev);
}

void
Tracer::recordInstant(CoreId core, TraceCat cat, std::string_view name,
                      TimeNs t, std::uint64_t bytes, std::uint64_t aux)
{
    TraceEvent ev;
    ev.t0 = t;
    ev.t1 = t;
    ev.seq = nextSeq_++;
    ev.bytes = bytes;
    ev.aux = aux;
    ev.nameId = intern(name);
    ev.core = core;
    ev.cat = cat;
    ev.instant = true;
    append(core, ev);
}

void
Tracer::resetWindow()
{
    totals_ = {};
    for (PerCore &pc : perCore_) {
        pc.ring.clear();
        pc.head = 0;
        pc.count = 0;
        pc.dropped = 0;
    }
}

std::uint64_t
Tracer::droppedEvents() const
{
    std::uint64_t n = 0;
    for (const PerCore &pc : perCore_)
        n += pc.dropped;
    return n;
}

std::uint64_t
Tracer::bufferedEvents() const
{
    std::uint64_t n = 0;
    for (const PerCore &pc : perCore_)
        n += pc.count;
    return n;
}

TraceBundle
Tracer::bundle(const Machine &machine, double cpu_ghz) const
{
    TraceBundle b;
    b.totalBusyNs = machine.totalBusyNs();
    b.totalCycles = std::uint64_t(double(b.totalBusyNs) * cpu_ghz);
    for (std::size_t c = 0; c < kTraceCatCount; ++c) {
        const Totals &t = totals_[c];
        if (t.ns == 0 && t.bytes == 0 && t.events == 0)
            continue;
        TraceBundle::Category cat;
        cat.name = traceCatName(TraceCat(c));
        cat.ns = t.ns;
        cat.cycles = std::uint64_t(double(t.ns) * cpu_ghz);
        cat.bytes = t.bytes;
        cat.events = t.events;
        b.attributedNs += t.ns;
        b.categories.push_back(std::move(cat));
    }
    b.droppedEvents = droppedEvents();
    if (recording_) {
        b.names = names_;
        b.events.reserve(bufferedEvents());
        for (const PerCore &pc : perCore_)
            b.events.insert(b.events.end(), pc.ring.begin(),
                            pc.ring.end());
        std::sort(b.events.begin(), b.events.end(),
                  [](const TraceEvent &a, const TraceEvent &e) {
                      if (a.t0 != e.t0)
                          return a.t0 < e.t0;
                      return a.seq < e.seq;
                  });
    }
    return b;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        const unsigned char u = static_cast<unsigned char>(ch);
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (u < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", u);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

namespace {

/** Virtual ns as a Chrome µs timestamp: fixed "<µs>.<3 digits>". */
void
appendTsUs(std::string &out, TimeNs ns)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    out += buf;
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
}

} // namespace

std::string
chromeTraceJson(const std::vector<TraceProcess> &procs)
{
    std::string out;
    out += "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t pid = 0; pid < procs.size(); ++pid) {
        const TraceProcess &proc = procs[pid];
        if (proc.bundle == nullptr)
            continue;
        const TraceBundle &b = *proc.bundle;

        if (!first)
            out += ',';
        first = false;
        out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
        appendU64(out, pid);
        out += ",\"tid\":0,\"args\":{\"name\":\"";
        out += jsonEscape(proc.name);
        out += "\"}}";

        for (const TraceEvent &ev : b.events) {
            const std::string_view name = ev.nameId < b.names.size()
                ? std::string_view(b.names[ev.nameId])
                : std::string_view("?");
            out += ",{\"name\":\"";
            out += jsonEscape(name);
            out += "\",\"cat\":\"";
            out += traceCatName(ev.cat);
            if (ev.instant) {
                out += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
                appendTsUs(out, ev.t0);
            } else {
                out += "\",\"ph\":\"X\",\"ts\":";
                appendTsUs(out, ev.t0);
                out += ",\"dur\":";
                appendTsUs(out, ev.t1 - ev.t0);
            }
            out += ",\"pid\":";
            appendU64(out, pid);
            out += ",\"tid\":";
            appendU64(out, ev.core);
            if (ev.bytes != 0 || ev.aux != 0) {
                out += ",\"args\":{";
                if (ev.bytes != 0) {
                    out += "\"bytes\":";
                    appendU64(out, ev.bytes);
                }
                if (ev.aux != 0) {
                    if (ev.bytes != 0)
                        out += ',';
                    out += "\"aux\":";
                    appendU64(out, ev.aux);
                }
                out += '}';
            }
            out += '}';
        }
    }
    out += "],\"displayTimeUnit\":\"ns\"}";
    return out;
}

} // namespace damn::sim
