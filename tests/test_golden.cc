/**
 * @file
 * SMMUv3 behaviour fingerprint (ctest label `golden`).
 *
 * perfbench's sweep_short fingerprint runs each experiment on its
 * native backend axis, which is VT-d everywhere but backend_matrix and
 * rdma_pagefault.  This test closes that gap: it runs every registered
 * experiment with `--backend=smmuv3 --warmup-ms=1 --measure-ms=2` at
 * seed 42 on two workers, checks that every run is labeled
 * backend=smmuv3, flattens the report the way perfbench does
 * (`exp#i/scheme/params/metric = %.17g unit`, plus each run's
 * `stats/<counter> = N count`), and compares the entries with
 * tests/golden/sweep_smmuv3.json, printing every key that moved.
 *
 * On a mismatch the got-file is written next to the test binary
 * (golden_sweep_smmuv3.json).  Re-blessing is copying that file over
 * the committed one, with the reason in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "exp/driver.hh"
#include "tests/json_reader.hh"

using namespace damn;
using namespace damn::testjson;
using exp::Json;

namespace {

using Entries = std::vector<std::pair<std::string, std::string>>;

std::string
fmtValue(double v, const std::string &unit)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf) + " " + unit;
}

Entries
entriesOf(const exp::Report &rep)
{
    Entries e;
    for (const exp::ExperimentResult &er : rep.experiments) {
        for (std::size_t i = 0; i < er.runs.size(); ++i) {
            const exp::Run &r = er.runs[i];
            std::string key =
                er.exp->name + "#" + std::to_string(i) + "/" + r.scheme;
            for (const auto &[pk, pv] : r.params)
                key += "/" + pk + "=" + pv;
            for (const exp::Metric &m : r.metrics)
                e.emplace_back(key + "/" + m.name,
                               fmtValue(m.value, m.unit));
            for (const auto &[name, v] : r.stats)
                e.emplace_back(key + "/stats/" + name,
                               fmtValue(double(v), "count"));
        }
    }
    return e;
}

/** FNV-1a over every "key=value\n" entry, in order (perfbench's). */
std::string
digestOf(const Entries &entries)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const std::string &s) {
        for (const char c : s) {
            h ^= std::uint8_t(c);
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &[k, v] : entries) {
        mix(k);
        mix("=");
        mix(v);
        mix("\n");
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

TEST(Golden, SweepSmmuV3MatchesCommittedFingerprint)
{
    exp::DriverOptions o;
    o.backends = {iommu::BackendKind::SmmuV3};
    o.warmupNs = 1 * sim::kNsPerMs;
    o.measureNs = 2 * sim::kNsPerMs;
    o.seed = 42;
    o.jobs = 2;
    const exp::Report rep = exp::runExperiments(o);
    // --backend reaches every experiment: each run is labeled.
    for (const exp::ExperimentResult &er : rep.experiments) {
        for (const exp::Run &r : er.runs) {
            ASSERT_FALSE(r.params.empty()) << er.exp->name;
            EXPECT_EQ(r.params[0].first, "backend") << er.exp->name;
            EXPECT_EQ(r.params[0].second, "smmuv3") << er.exp->name;
        }
    }
    const Entries got = entriesOf(rep);
    const std::string got_digest = digestOf(got);

    std::map<std::string, std::string> want;
    std::string want_digest;
    {
        std::ifstream in(DAMN_GOLDEN_FILE);
        std::stringstream ss;
        ss << in.rdbuf();
        if (in) {
            const Json doc = parseJson(ss.str());
            want_digest = at(doc, "fingerprint").str();
            for (const auto &[k, v] : at(doc, "entries").members())
                want[k] = v.str();
        }
    }
    if (got_digest == want_digest)
        return;

    std::map<std::string, std::string> have(got.begin(), got.end());
    std::map<std::string, std::string> keys = want;
    keys.insert(have.begin(), have.end());
    std::size_t moved = 0;
    for (const auto &[k, unused] : keys) {
        const auto g = have.find(k);
        const auto w = want.find(k);
        const std::string gs = g == have.end() ? "<missing>" : g->second;
        const std::string ws = w == want.end() ? "<missing>" : w->second;
        if (gs != ws) {
            ++moved;
            ADD_FAILURE() << k << ": expected '" << ws << "', got '" << gs
                          << "'";
        }
    }

    Json entries = Json::object();
    for (const auto &[k, v] : got)
        entries.set(k, v);
    Json doc = Json::object();
    doc.set("entries", std::move(entries));
    doc.set("fingerprint", got_digest);
    doc.set("seed", 42);
    doc.set("workload", "sweep_smmuv3");
    std::ofstream(DAMN_GOLDEN_OUT) << doc.dump() << "\n";
    ADD_FAILURE() << "fingerprint " << got_digest << " != expected '"
                  << want_digest << "'; " << moved
                  << " entries moved; got-file written to "
                  << DAMN_GOLDEN_OUT;
}

} // namespace
