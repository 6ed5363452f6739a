/**
 * @file
 * damn_fuzz — deterministic DMA chaos fuzzer driver.
 *
 * Sweeps the weighted random chaos generator across {scheme} x
 * {backend} cells, checking the invariant oracles after every op
 * (src/fuzz/harness.hh).  Everything is virtual-time deterministic:
 * the same seed prints byte-identical output for any --jobs value.
 *
 *   damn_fuzz --ops=5000 --seed=42             # full default matrix
 *   damn_fuzz --scheme=strict --backend=smmu   # one cell
 *   damn_fuzz --inject=stale-tlb --shrink      # oracle self-check
 *   damn_fuzz --replay tests/corpus/foo.dfz    # regression corpus
 *
 * Exit codes: 0 clean (or every replay reproduced its recorded
 * verdict), 2 usage error, 3 an oracle violation was found, 4 a
 * replay's fresh verdict diverged from the recorded one.
 */

#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "fuzz/corpus.hh"
#include "fuzz/harness.hh"
#include "fuzz/shrink.hh"
#include "sim/parallel.hh"

using namespace damn;

namespace {

struct Options
{
    unsigned ops = 1000;
    std::uint64_t seed = 42;
    unsigned jobs = 1;
    bool shrink = false;
    bool injectStale = false;
    bool injectDevTlb = false;
    std::vector<dma::SchemeKind> schemes = fuzz::fuzzSchemes();
    std::vector<iommu::BackendKind> backends = fuzz::fuzzBackends();
    std::string saveDir;
    std::vector<std::string> replays;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--ops=N] [--seed=S] [--jobs=N]\n"
        "          [--scheme=strict|deferred|shadow|damn|all]\n"
        "          [--backend=vtd|smmuv3|all]\n"
        "          [--inject=stale-tlb|stale-devtlb] [--shrink]\n"
        "          [--save=DIR]\n"
        "          [--replay FILE.dfz ...]\n",
        argv0);
}

/** A decimal uint64; rejects signs, junk and overflow. */
bool
parseU64Arg(const char *s, std::uint64_t *out)
{
    const char *end = s + std::strlen(s);
    const auto res = std::from_chars(s, end, *out);
    return s != end && res.ec == std::errc() && res.ptr == end;
}

/** A positive count that fits the unsigned it is stored in. */
bool
parseCountArg(const char *s, unsigned *out)
{
    std::uint64_t v = 0;
    if (!parseU64Arg(s, &v) || v == 0 ||
        v > std::numeric_limits<unsigned>::max())
        return false;
    *out = unsigned(v);
    return true;
}

bool
parseArgs(int argc, char **argv, Options *opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto val = [&arg](const char *pfx) -> const char * {
            const std::size_t n = std::strlen(pfx);
            return arg.compare(0, n, pfx) == 0 ? arg.c_str() + n
                                               : nullptr;
        };
        if (const char *v = val("--ops=")) {
            if (!parseCountArg(v, &opt->ops))
                return false;
        } else if (const char *v2 = val("--seed=")) {
            if (!parseU64Arg(v2, &opt->seed))
                return false;
        } else if (const char *v3 = val("--jobs=")) {
            if (!parseCountArg(v3, &opt->jobs))
                return false;
        } else if (const char *v4 = val("--scheme=")) {
            if (std::string(v4) == "all") {
                opt->schemes = fuzz::fuzzSchemes();
            } else {
                opt->schemes.clear();
                for (const std::string &name : dma::splitNameList(v4)) {
                    dma::SchemeKind k;
                    if (!dma::schemeFromName(name, &k))
                        return false;
                    opt->schemes.push_back(k);
                }
            }
        } else if (const char *v5 = val("--backend=")) {
            if (std::string(v5) == "all") {
                opt->backends = fuzz::fuzzBackends();
            } else {
                iommu::BackendKind b;
                if (!iommu::backendFromName(v5, &b))
                    return false;
                opt->backends = {b};
            }
        } else if (const char *v6 = val("--inject=")) {
            if (std::string(v6) == "stale-tlb")
                opt->injectStale = true;
            else if (std::string(v6) == "stale-devtlb")
                opt->injectDevTlb = true;
            else
                return false;
        } else if (const char *v7 = val("--save=")) {
            opt->saveDir = v7;
        } else if (arg == "--shrink") {
            opt->shrink = true;
        } else if (arg == "--replay") {
            if (i + 1 >= argc)
                return false;
            opt->replays.push_back(argv[++i]);
        } else if (const char *v8 = val("--replay=")) {
            opt->replays.push_back(v8);
        } else {
            return false;
        }
    }
    return true;
}

int
replayMode(const Options &opt)
{
    bool allReproduced = true;
    for (const std::string &path : opt.replays) {
        fuzz::CorpusFile file;
        std::string err;
        if (!fuzz::loadCorpus(path, &file, &err)) {
            std::fprintf(stderr, "damn_fuzz: %s: %s\n", path.c_str(),
                         err.c_str());
            return 2;
        }
        const fuzz::ReplayOutcome out = fuzz::replayCorpus(file);
        std::printf("replay %s cell=%s/%s ops=%zu recorded=%s "
                    "got=%s reproduced=%s\n",
                    path.c_str(),
                    dma::schemeKindName(file.cfg.scheme),
                    iommu::backendKindName(file.cfg.backend),
                    file.seq.size(), file.verdict.c_str(),
                    out.verdict.c_str(),
                    out.reproduced ? "yes" : "NO");
        allReproduced = allReproduced && out.reproduced;
    }
    return allReproduced ? 0 : 4;
}

/** One cell's fully-rendered report (printed in fixed order). */
struct CellReport
{
    std::string text;
    bool violated = false;
};

CellReport
runCell(const Options &opt, dma::SchemeKind scheme,
        iommu::BackendKind backend)
{
    fuzz::FuzzConfig cfg;
    cfg.scheme = scheme;
    cfg.backend = backend;
    cfg.seed = opt.seed;
    cfg.ops = opt.ops;
    cfg.injectStaleBug = opt.injectStale;
    cfg.injectDevTlbBug = opt.injectDevTlb;

    const fuzz::Sequence seq = fuzz::generate(cfg);
    fuzz::FuzzResult res = fuzz::runSequence(cfg, seq);

    CellReport rep;
    rep.violated = res.violated;
    char line[512];
    std::snprintf(line, sizeof(line),
                  "cell scheme=%s backend=%s seed=%llu ops=%zu/%zu "
                  "verdict=%s digest=%016llx faults=%llu stalls=%llu\n",
                  dma::schemeKindName(scheme),
                  iommu::backendKindName(backend),
                  (unsigned long long)cfg.seed, res.opsExecuted,
                  seq.size(), fuzz::verdictOf(res).c_str(),
                  (unsigned long long)res.digest,
                  (unsigned long long)res.faults,
                  (unsigned long long)res.watchdogStalls);
    rep.text += line;

    if (!res.violated)
        return rep;

    rep.text += "  violation op=" +
                std::to_string(res.violation.opIndex) + " oracle=" +
                res.violation.oracle + ": " + res.violation.detail +
                "\n";

    fuzz::Sequence repro = seq;
    if (opt.shrink) {
        const fuzz::ShrinkResult sh =
            fuzz::shrink(cfg, seq, res.violation);
        rep.text += "  shrunk " + std::to_string(seq.size()) +
                    " -> " + std::to_string(sh.seq.size()) +
                    " ops in " + std::to_string(sh.attempts) +
                    " attempts\n";
        repro = sh.seq;
        res = sh.result;
        for (const fuzz::Op &op : sh.seq)
            rep.text += "    " +
                        std::string(fuzz::opKindName(op.kind)) + " " +
                        std::to_string(op.a) + " " +
                        std::to_string(op.b) + " " +
                        std::to_string(op.c) + "\n";
    }

    if (!opt.saveDir.empty()) {
        fuzz::CorpusFile file;
        file.cfg = cfg;
        file.cfg.ops = unsigned(repro.size());
        file.seq = repro;
        file.verdict = fuzz::verdictOf(res);
        const std::string path =
            opt.saveDir + "/" +
            std::string(dma::schemeKindName(scheme)) + "-" +
            iommu::backendKindName(backend) + "-seed" +
            std::to_string(cfg.seed) +
            (cfg.injectDevTlbBug
                 ? "-stale-devtlb"
                 : cfg.injectStaleBug ? "-stale" : "") +
            ".dfz";
        std::string err;
        if (fuzz::saveCorpus(path, file, &err))
            rep.text += "  saved " + path + "\n";
        else
            rep.text += "  SAVE FAILED: " + err + "\n";
    }
    return rep;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, &opt)) {
        usage(argv[0]);
        return 2;
    }
    if (!opt.replays.empty())
        return replayMode(opt);

    // The cell matrix in fixed scheme-major order; execution may be
    // parallel but reports are emitted in matrix order, so output is
    // byte-identical for every --jobs value.
    struct Cell
    {
        dma::SchemeKind scheme;
        iommu::BackendKind backend;
    };
    std::vector<Cell> cells;
    for (const dma::SchemeKind s : opt.schemes)
        for (const iommu::BackendKind b : opt.backends)
            cells.push_back({s, b});

    std::vector<CellReport> reports(cells.size());
    sim::parallelFor(cells.size(), opt.jobs, [&](std::size_t i) {
        reports[i] = runCell(opt, cells[i].scheme, cells[i].backend);
    });

    bool anyViolation = false;
    for (const CellReport &rep : reports) {
        std::fputs(rep.text.c_str(), stdout);
        anyViolation = anyViolation || rep.violated;
    }
    std::printf("%zu cells, %s\n", cells.size(),
                anyViolation ? "VIOLATIONS FOUND" : "all clean");
    return anyViolation ? 3 : 0;
}
