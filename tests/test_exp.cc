/**
 * @file
 * Tests for the experiment layer: the registry, the glob/argument
 * parsing, the JSON value type, and — the expensive part — one
 * end-to-end sweep of every registered experiment at tiny windows,
 * asserting the --json schema and its bit-identical determinism.
 */

#include <gtest/gtest.h>

#include <set>

#include "exp/driver.hh"
#include "tests/json_reader.hh"

using namespace damn;
using namespace damn::testjson;
using exp::Json;

namespace {

TEST(Registry, AllTwentyExperimentsRegistered)
{
    const auto all = exp::allExperiments();
    ASSERT_EQ(all.size(), 20u);

    std::set<std::string> names;
    for (const exp::Experiment *e : all) {
        EXPECT_TRUE(names.insert(e->name).second) << e->name;
        EXPECT_FALSE(e->title.empty()) << e->name;
        EXPECT_FALSE(e->paper.empty()) << e->name;
        EXPECT_TRUE(bool(e->run)) << e->name;
    }
    for (const char *want :
         {"fig1_tradeoffs", "fig2_graph500", "fig4_singlecore",
          "fig5_multicore", "fig6_membw", "fig7_memcached",
          "fig8_tocttou", "fig9_stock_pages", "fig10_memory",
          "fig11_nvme", "table1_matrix", "table3_variants",
          "latency_profile", "micro_allocator", "fault_storm",
          "chaos_soak", "netperf_stream", "backend_matrix",
          "rdma_pagefault"})
        EXPECT_NE(names.count(want), 0u) << want;
}

TEST(Registry, LookupAndSchemeNames)
{
    std::set<std::string> names;
    for (const exp::Experiment *e : exp::allExperiments())
        names.insert(e->name);
    EXPECT_EQ(names.count("fig4_singlecore"), 1u);
    EXPECT_EQ(names.count("nope"), 0u);

    EXPECT_EQ(exp::defaultSchemes().size(), 5u);
    dma::SchemeKind k;
    ASSERT_TRUE(dma::schemeFromName("damn", &k));
    EXPECT_EQ(k, dma::SchemeKind::Damn);
    ASSERT_TRUE(dma::schemeFromName("iommu-off", &k));
    EXPECT_EQ(k, dma::SchemeKind::IommuOff);
    EXPECT_FALSE(dma::schemeFromName("passthrough", &k));
}

TEST(Registry, GlobMatch)
{
    EXPECT_TRUE(exp::globMatch("fig4*", "fig4_singlecore"));
    EXPECT_TRUE(exp::globMatch("*", "anything"));
    EXPECT_TRUE(exp::globMatch("fig?_membw", "fig6_membw"));
    EXPECT_TRUE(exp::globMatch("*matrix", "table1_matrix"));
    EXPECT_TRUE(exp::globMatch("f*g*5*", "fig5_multicore"));
    EXPECT_FALSE(exp::globMatch("fig4*", "fig5_multicore"));
    EXPECT_FALSE(exp::globMatch("fig4", "fig4_singlecore"));
    EXPECT_FALSE(exp::globMatch("", "x"));
    EXPECT_TRUE(exp::globMatch("", ""));
}

TEST(Driver, ParseArgs)
{
    const char *argv[] = {"damn_bench",   "--only=fig4*",
                          "--schemes=damn,iommu-off",
                          "--repeat=3",   "--measure-ms=2",
                          "--warmup-ms=1", "--seed=7",
                          "--json=/tmp/x.json"};
    exp::DriverOptions o;
    std::string err;
    ASSERT_TRUE(exp::parseArgs(8, argv, &o, &err)) << err;
    EXPECT_EQ(o.only, "fig4*");
    ASSERT_EQ(o.schemes.size(), 2u);
    EXPECT_EQ(o.schemes[0], dma::SchemeKind::Damn);
    EXPECT_EQ(o.schemes[1], dma::SchemeKind::IommuOff);
    EXPECT_EQ(o.repeat, 3u);
    EXPECT_EQ(o.measureNs, 2 * sim::kNsPerMs);
    EXPECT_EQ(o.warmupNs, 1 * sim::kNsPerMs);
    EXPECT_EQ(o.seed, 7u);
    EXPECT_EQ(o.jsonPath, "/tmp/x.json");
}

TEST(Driver, ParseArgsRejectsBadInput)
{
    const auto bad = [](std::initializer_list<const char *> extra) {
        std::vector<const char *> argv = {"damn_bench"};
        argv.insert(argv.end(), extra);
        exp::DriverOptions o;
        std::string err;
        const bool ok =
            exp::parseArgs(int(argv.size()), argv.data(), &o, &err);
        EXPECT_FALSE(err.empty() || ok);
        return !ok;
    };
    EXPECT_TRUE(bad({"--schemes=bogus"}));
    EXPECT_TRUE(bad({"--schemes=damn,damn"}));
    EXPECT_TRUE(bad({"--backend=vtd,vtd"}));
    EXPECT_TRUE(bad({"--repeat=0"}));
    EXPECT_TRUE(bad({"--repeat=x"}));
    EXPECT_TRUE(bad({"--measure-ms=0"}));
    EXPECT_TRUE(bad({"--json="}));
    EXPECT_TRUE(bad({"--frobnicate"}));
    EXPECT_TRUE(bad({"positional"}));
}

TEST(Driver, SelectionHonorsGlob)
{
    exp::DriverOptions o;
    o.only = "table*";
    const auto sel = exp::selectExperiments(o);
    ASSERT_EQ(sel.size(), 2u);
    EXPECT_EQ(sel[0]->name, "table1_matrix");
    EXPECT_EQ(sel[1]->name, "table3_variants");
}

TEST(JsonValue, BuildDumpParseRoundTrip)
{
    Json doc = Json::object();
    doc.set("int", std::int64_t(-3));
    doc.set("uint", std::uint64_t(18446744073709551615ull));
    doc.set("double", 0.1);
    doc.set("string", "a \"quoted\"\n\tstring");
    doc.set("controls", "\b\f\r\x01");
    doc.set("bool", true);
    doc.set("null", Json());
    Json arr = Json::array();
    arr.push(1);
    arr.push("two");
    doc.set("arr", std::move(arr));
    doc.set("empty_obj", Json::object());
    doc.set("empty_arr", Json::array());

    const std::string text = doc.dump();
    const Json back = parseJson(text);
    // Round-trip must preserve bytes: reserialize and compare.
    EXPECT_EQ(back.dump(), text);
    EXPECT_EQ(asInt(at(back, "int")), -3);
    EXPECT_EQ(asUint(at(back, "uint")), 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(asDouble(at(back, "double")), 0.1);
    EXPECT_EQ(at(back, "string").str(), "a \"quoted\"\n\tstring");
    EXPECT_EQ(at(back, "controls").str(), "\b\f\r\x01");
    EXPECT_TRUE(at(back, "bool").boolean());
    EXPECT_EQ(at(back, "arr").items().size(), 2u);
    EXPECT_THROW(parseJson("{\"unterminated\": "),
                 std::runtime_error);
    EXPECT_THROW(parseJson("[1, 2] trailing"), std::runtime_error);
}

/**
 * The expensive end-to-end contract, in one sweep: every registered
 * experiment runs at tiny windows, produces at least one run with at
 * least one metric under the documented schema, and the whole report
 * is bit-identical when re-run at the same seed.
 */
TEST(EndToEnd, EveryExperimentRunsAndJsonIsDeterministic)
{
    exp::DriverOptions o;
    o.warmupNs = 1 * sim::kNsPerMs;
    o.measureNs = 2 * sim::kNsPerMs;

    const exp::Report r1 = exp::runExperiments(o);
    const std::string json1 = exp::reportJson(r1).dump();
    const std::string json2 =
        exp::reportJson(exp::runExperiments(o)).dump();
    EXPECT_EQ(json1, json2) << "same seed must be bit-identical";

    ASSERT_EQ(r1.experiments.size(), exp::allExperiments().size());
    for (const exp::ExperimentResult &er : r1.experiments) {
        EXPECT_FALSE(er.runs.empty()) << er.exp->name;
        for (const exp::Run &run : er.runs) {
            EXPECT_FALSE(run.scheme.empty()) << er.exp->name;
            EXPECT_FALSE(run.metrics.empty()) << er.exp->name;
            for (const exp::Metric &m : run.metrics)
                EXPECT_FALSE(m.name.empty()) << er.exp->name;
        }
    }

    // Schema round-trip: parse the emitted JSON and check the
    // documented keys, then reserialize byte-identically.
    const Json doc = parseJson(json1);
    EXPECT_EQ(doc.dump(), json1);
    ASSERT_NE(find(doc, "schema_version"), nullptr);
    EXPECT_EQ(asInt(at(doc, "schema_version")),
              exp::kJsonSchemaVersion);
    EXPECT_EQ(at(doc, "generator").str(), "damn_bench");
    EXPECT_EQ(asUint(at(doc, "seed")), o.seed);
    EXPECT_EQ(at(doc, "schemes").items().size(), 5u);
    const Json *exps = find(doc, "experiments");
    ASSERT_NE(exps, nullptr);
    ASSERT_EQ(exps->items().size(), r1.experiments.size());
    for (const Json &je : exps->items()) {
        ASSERT_NE(find(je, "name"), nullptr);
        ASSERT_NE(find(je, "paper"), nullptr);
        const Json *runs = find(je, "runs");
        ASSERT_NE(runs, nullptr) << at(je, "name").str();
        for (const Json &jr : runs->items()) {
            ASSERT_NE(find(jr, "scheme"), nullptr);
            ASSERT_NE(find(jr, "params"), nullptr);
            const Json *metrics = find(jr, "metrics");
            ASSERT_NE(metrics, nullptr);
            EXPECT_FALSE(metrics->members().empty());
            for (const auto &[name, jm] : metrics->members()) {
                EXPECT_FALSE(name.empty());
                ASSERT_NE(find(jm, "value"), nullptr);
                ASSERT_NE(find(jm, "unit"), nullptr);
            }
            ASSERT_NE(find(jr, "stats"), nullptr);
        }
    }
}

/** Different seeds must be allowed to differ (the seed is real). */
TEST(EndToEnd, SeedReachesStochasticExperiments)
{
    exp::DriverOptions o;
    o.only = "fault_storm";
    o.warmupNs = 1 * sim::kNsPerMs;
    o.measureNs = 4 * sim::kNsPerMs;
    o.schemes = {dma::SchemeKind::Damn};

    const std::string a = exp::reportJson(exp::runExperiments(o)).dump();
    const std::string b = exp::reportJson(exp::runExperiments(o)).dump();
    EXPECT_EQ(a, b);
    o.seed = 1234567;
    const std::string c = exp::reportJson(exp::runExperiments(o)).dump();
    EXPECT_NE(a, c) << "seed must reach the fault injector";
}

TEST(EndToEnd, SchemeFilterAndRepeatShapeTheReport)
{
    exp::DriverOptions o;
    o.only = "fig7_memcached";
    o.warmupNs = 1 * sim::kNsPerMs;
    o.measureNs = 2 * sim::kNsPerMs;
    o.schemes = {dma::SchemeKind::IommuOff, dma::SchemeKind::Damn};
    o.repeat = 2;

    const exp::Report r = exp::runExperiments(o);
    ASSERT_EQ(r.experiments.size(), 1u);
    ASSERT_EQ(r.experiments[0].runs.size(), 4u);
    for (const exp::Run &run : r.experiments[0].runs) {
        ASSERT_FALSE(run.params.empty());
        EXPECT_EQ(run.params[0].first, "rep");
    }
    EXPECT_EQ(r.experiments[0].runs[0].scheme, "iommu-off");
    EXPECT_EQ(r.experiments[0].runs[1].scheme, "damn");
    EXPECT_EQ(r.experiments[0].runs[2].params[0].second, "1");
}

/** The scheme names of @p r's runs of its one experiment, in order. */
std::vector<std::string>
runSchemes(const exp::Report &r)
{
    std::vector<std::string> out;
    for (const exp::Run &run : r.experiments.at(0).runs)
        out.push_back(run.scheme);
    return out;
}

/**
 * --schemes filters each experiment's native scheme list; the native
 * order decides the run order, whatever order --schemes names them in.
 */
TEST(SchemeAxis, NativeOrderDecidesRunOrder)
{
    exp::DriverOptions o;
    o.warmupNs = 1 * sim::kNsPerMs;
    o.measureNs = 1 * sim::kNsPerMs;

    o.only = "fig1_tradeoffs";
    o.schemes = {dma::SchemeKind::Damn, dma::SchemeKind::Strict};
    EXPECT_EQ(runSchemes(exp::runExperiments(o)),
              (std::vector<std::string>{"strict", "damn"}));

    // chaos_soak's native list puts strict before deferred, unlike
    // defaultSchemes(); iommu-off is not on it.
    o.only = "chaos_soak";
    o.schemes = exp::defaultSchemes();
    EXPECT_EQ(runSchemes(exp::runExperiments(o)),
              (std::vector<std::string>{"strict", "deferred", "shadow",
                                        "damn"}));
}

/** A selection that misses the native list runs nothing, and the
 *  report still names the experiment. */
TEST(SchemeAxis, EmptyIntersectionReportsZeroRuns)
{
    exp::DriverOptions o;
    o.only = "fig9_stock_pages";
    o.schemes = {dma::SchemeKind::Damn};

    const exp::Report r = exp::runExperiments(o);
    ASSERT_EQ(r.experiments.size(), 1u);
    EXPECT_EQ(r.experiments[0].exp->name, "fig9_stock_pages");
    EXPECT_TRUE(r.experiments[0].runs.empty());
}

/** Find a run param by key (nullptr when absent). */
const std::string *
paramOf(const exp::Run &run, const std::string &key)
{
    for (const auto &[k, v] : run.params)
        if (k == key)
            return &v;
    return nullptr;
}

/**
 * --backend reaches experiments whose native axis is VT-d only: every
 * micro_allocator run is labeled smmuv3 and carries SMMUv3 counters.
 */
TEST(BackendAxis, ExplicitBackendReachesVtdNativeExperiment)
{
    exp::DriverOptions o;
    o.only = "micro_allocator";
    o.backends = {iommu::BackendKind::SmmuV3};

    const exp::Report r = exp::runExperiments(o);
    ASSERT_EQ(r.experiments.size(), 1u);
    ASSERT_FALSE(r.experiments[0].runs.empty());
    for (const exp::Run &run : r.experiments[0].runs) {
        ASSERT_FALSE(run.params.empty());
        EXPECT_EQ(run.params[0].first, "backend");
        EXPECT_EQ(run.params[0].second, "smmuv3");
        bool smmu_counter = false;
        for (const auto &[name, value] : run.stats)
            smmu_counter |= name.rfind("smmu.", 0) == 0;
        EXPECT_TRUE(smmu_counter) << "no smmu.* counter in the stats";
    }
}

/**
 * The label rule: runs carry a "backend" param exactly when their
 * effective axis is not {vtd}, and the header names an explicit axis
 * only.
 */
TEST(BackendAxis, LabelOnlyWhenAxisIsNotVtd)
{
    exp::DriverOptions o;
    o.only = "backend_matrix";
    o.warmupNs = 1 * sim::kNsPerMs;
    o.measureNs = 2 * sim::kNsPerMs;

    // Native axis {vtd, smmuv3}: every run labeled, no header key.
    const exp::Report native = exp::runExperiments(o);
    ASSERT_FALSE(native.experiments[0].runs.empty());
    for (const exp::Run &run : native.experiments[0].runs)
        EXPECT_NE(paramOf(run, "backend"), nullptr);
    const Json doc = parseJson(exp::reportJson(native).dump());
    EXPECT_EQ(find(doc, "backends"), nullptr);

    // --backend=vtd: the baseline axis, no labels.
    o.backends = {iommu::BackendKind::Vtd};
    const exp::Report vtd = exp::runExperiments(o);
    ASSERT_FALSE(vtd.experiments[0].runs.empty());
    for (const exp::Run &run : vtd.experiments[0].runs)
        EXPECT_EQ(paramOf(run, "backend"), nullptr);
}

} // namespace
