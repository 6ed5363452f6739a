/**
 * @file
 * .dfz corpus file serialization, parsing, and replay.
 */

#include "fuzz/corpus.hh"

#include <fstream>
#include <sstream>

namespace damn::fuzz {

namespace {

/** Strip a trailing '#' comment and surrounding whitespace. */
std::string
cleanLine(std::string line)
{
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos)
        line.erase(hash);
    const char *ws = " \t\r\n";
    const std::size_t b = line.find_first_not_of(ws);
    if (b == std::string::npos)
        return {};
    const std::size_t e = line.find_last_not_of(ws);
    return line.substr(b, e - b + 1);
}

bool
parseU64(const std::string &tok, std::uint64_t *out)
{
    if (tok.empty())
        return false;
    std::uint64_t v = 0;
    for (const char c : tok) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + std::uint64_t(c - '0');
    }
    *out = v;
    return true;
}

} // namespace

std::string
verdictOf(const FuzzResult &res)
{
    return res.violated ? res.violation.oracle : "clean";
}

std::string
serializeCorpus(const CorpusFile &file)
{
    std::ostringstream os;
    os << "dfz 1\n";
    os << "scheme " << dma::schemeKindName(file.cfg.scheme) << "\n";
    os << "backend " << iommu::backendKindName(file.cfg.backend) << "\n";
    os << "seed " << file.cfg.seed << "\n";
    os << "inject "
       << (file.cfg.injectDevTlbBug
               ? "stale-devtlb"
               : file.cfg.injectStaleBug ? "stale-tlb" : "none")
       << "\n";
    os << "verdict " << file.verdict << "\n";
    os << "ops " << file.seq.size() << "\n";
    for (const Op &op : file.seq)
        os << opKindName(op.kind) << " " << op.a << " " << op.b << " "
           << op.c << "\n";
    return os.str();
}

bool
parseCorpus(const std::string &text, CorpusFile *out, std::string *err)
{
    std::istringstream is(text);
    std::string raw;
    CorpusFile file;
    bool sawMagic = false, sawVerdict = false;
    std::size_t opsDeclared = 0;
    bool inOps = false;
    std::size_t lineno = 0;

    const auto bad = [&](const std::string &what) {
        if (err)
            *err = "line " + std::to_string(lineno) + ": " + what;
        return false;
    };

    while (std::getline(is, raw)) {
        ++lineno;
        const std::string line = cleanLine(raw);
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;

        if (!sawMagic) {
            std::string ver;
            ls >> ver;
            if (key != "dfz" || ver != "1")
                return bad("expected 'dfz 1' header");
            sawMagic = true;
            continue;
        }

        if (inOps) {
            OpKind kind;
            if (!opKindFromName(key, &kind))
                return bad("unknown op '" + key + "'");
            std::string ta, tb, tc;
            ls >> ta >> tb >> tc;
            std::uint64_t a = 0, b = 0, c = 0;
            if (!parseU64(ta, &a) || !parseU64(tb, &b) ||
                !parseU64(tc, &c))
                return bad("op needs three numeric operands");
            file.seq.push_back({kind, std::uint32_t(a),
                                std::uint32_t(b), std::uint32_t(c)});
            continue;
        }

        std::string val;
        ls >> val;
        if (key == "scheme") {
            if (!dma::schemeFromName(val, &file.cfg.scheme))
                return bad("unknown scheme '" + val + "'");
        } else if (key == "backend") {
            if (!iommu::backendFromName(val, &file.cfg.backend))
                return bad("unknown backend '" + val + "'");
        } else if (key == "seed") {
            if (!parseU64(val, &file.cfg.seed))
                return bad("bad seed");
        } else if (key == "inject") {
            if (val == "none") {
                file.cfg.injectStaleBug = false;
                file.cfg.injectDevTlbBug = false;
            } else if (val == "stale-tlb") {
                file.cfg.injectStaleBug = true;
            } else if (val == "stale-devtlb") {
                file.cfg.injectDevTlbBug = true;
            } else {
                return bad("unknown inject mode '" + val + "'");
            }
        } else if (key == "verdict") {
            if (val.empty())
                return bad("empty verdict");
            file.verdict = val;
            sawVerdict = true;
        } else if (key == "ops") {
            std::uint64_t n = 0;
            if (!parseU64(val, &n))
                return bad("bad op count");
            opsDeclared = std::size_t(n);
            inOps = true;
        } else {
            return bad("unknown header key '" + key + "'");
        }
    }

    if (!sawMagic)
        return bad("missing 'dfz 1' header");
    if (!sawVerdict)
        return bad("missing verdict");
    if (!inOps)
        return bad("missing ops section");
    if (file.seq.size() != opsDeclared)
        return bad("declared " + std::to_string(opsDeclared) +
                   " ops but found " + std::to_string(file.seq.size()));
    file.cfg.ops = unsigned(file.seq.size());
    *out = std::move(file);
    return true;
}

bool
saveCorpus(const std::string &path, const CorpusFile &file,
           std::string *err)
{
    std::ofstream os(path, std::ios::trunc);
    if (!os) {
        if (err)
            *err = "cannot open " + path + " for writing";
        return false;
    }
    os << serializeCorpus(file);
    os.flush();
    if (!os) {
        if (err)
            *err = "write to " + path + " failed";
        return false;
    }
    return true;
}

bool
loadCorpus(const std::string &path, CorpusFile *out, std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        if (err)
            *err = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return parseCorpus(buf.str(), out, err);
}

ReplayOutcome
replayCorpus(const CorpusFile &file)
{
    ReplayOutcome out;
    out.result = runSequence(file.cfg, file.seq);
    out.verdict = verdictOf(out.result);
    out.reproduced = out.verdict == file.verdict;
    return out;
}

} // namespace damn::fuzz
