/**
 * @file
 * Experiment registry implementation.
 */

#include "exp/experiment.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace damn::exp {

const std::vector<dma::SchemeKind> &
defaultSchemes()
{
    static const std::vector<dma::SchemeKind> k = {
        dma::SchemeKind::IommuOff,  dma::SchemeKind::Deferred,
        dma::SchemeKind::Strict,    dma::SchemeKind::Shadow,
        dma::SchemeKind::Damn,
    };
    return k;
}

namespace {

std::vector<Experiment> &
registry()
{
    static std::vector<Experiment> r;
    return r;
}

} // namespace

bool
registerExperiment(Experiment e)
{
    if (e.name.empty() || !e.run)
        throw std::invalid_argument("experiment needs a name and a run fn");
    for (const Experiment &have : registry())
        if (have.name == e.name)
            throw std::invalid_argument("duplicate experiment: " + e.name);
    registry().push_back(std::move(e));
    return true;
}

std::vector<const Experiment *>
allExperiments()
{
    std::vector<const Experiment *> out;
    out.reserve(registry().size());
    for (const Experiment &e : registry())
        out.push_back(&e);
    std::sort(out.begin(), out.end(),
              [](const Experiment *a, const Experiment *b) {
                  return a->name < b->name;
              });
    return out;
}

bool
globMatch(const std::string &pattern, const std::string &text)
{
    // Iterative fnmatch with `*` backtracking.
    std::size_t p = 0, t = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

void
Collector::common(const work::CommonResult &c, bool with_latency)
{
    if (c.gbps != 0.0)
        metric("gbps", c.gbps, "Gb/s");
    if (c.cpuPct != 0.0)
        metric("cpu_pct", c.cpuPct, "%");
    if (c.opsPerSec != 0.0)
        metric("ops_per_sec", c.opsPerSec, "ops/s");
    if (c.memGBps != 0.0)
        metric("mem_gbps", c.memGBps, "GB/s");
    if (with_latency && c.latency.count() > 0) {
        metric("latency.p50_us", double(c.latency.p50()) / 1e3, "us");
        metric("latency.p95_us", double(c.latency.p95()) / 1e3, "us");
        metric("latency.p99_us", double(c.latency.p99()) / 1e3, "us");
        metric("latency.max_us", double(c.latency.maxNs()) / 1e3, "us");
    }
    // The workload's capture: its stats snapshot and trace bundle.
    sim::RunRecord &record = runs_.back();
    record = c;
}

} // namespace damn::exp
