#include "cover/ledger.hh"


#include "support/faults.hh"
#include "support/textcodec.hh"

namespace scamv::cover {

std::int64_t
TemplateCoverage::coveredClasses() const
{
    std::int64_t n = 0;
    for (const auto &[cls, stats] : classes)
        n += stats.hits > 0;
    return n;
}

bool
ProgramDelta::empty() const
{
    return classes.empty() && pathPairs.empty() &&
           verdicts == VerdictCounts{};
}

void
ProgramDelta::countDraw(int cls)
{
    if (cls >= 0)
        ++classes[cls].draws;
}

void
ProgramDelta::countHit(int cls)
{
    if (cls >= 0)
        ++classes[cls].hits;
}

void
ProgramDelta::chargeSolver(int cls, double seconds)
{
    if (cls >= 0)
        classes[cls].solverSeconds += seconds;
}

bool
CoverageLedger::merge(const ProgramDelta &delta)
{
    // Nothing to account (e.g. a failed program task): trivially ok,
    // and no fault attempt is spent on it.
    if (delta.empty())
        return true;
    // Injected accounting failure: the delta is lost before it
    // reaches the ledger, as if a shared store rejected the update.
    if (faults::maybeInject(faults::Site::CoverLedgerMerge))
        return false;
    std::lock_guard<std::mutex> lock(m);
    TemplateCoverage &cell = state.templates[delta.templ];
    if (delta.universe > cell.universe)
        cell.universe = delta.universe;
    for (const auto &[cls, stats] : delta.classes) {
        ClassStats &into = cell.classes[cls];
        into.hits += stats.hits;
        into.draws += stats.draws;
        into.solverSeconds += stats.solverSeconds;
    }
    for (const auto &[id, n] : delta.pathPairs)
        cell.pathPairs[id] += n;
    VerdictCounts &v = cell.models[delta.model];
    v.experiments += delta.verdicts.experiments;
    v.counterexamples += delta.verdicts.counterexamples;
    v.inconclusive += delta.verdicts.inconclusive;
    v.indistinguishable += delta.verdicts.indistinguishable;
    return true;
}

Snapshot
CoverageLedger::snapshot() const
{
    std::lock_guard<std::mutex> lock(m);
    return state;
}

void
CoverageLedger::clear()
{
    std::lock_guard<std::mutex> lock(m);
    state = Snapshot{};
}

namespace {

std::string
jsonString(const std::string &s)
{
    return '"' + text::jsonEscape(s) + '"';
}

} // namespace

std::string
toJson(const Snapshot &snap)
{
    std::string out;
    out += "{\n  \"schema\": \"scamv-coverage-v1\",\n";
    out += "  \"templates\": {";
    std::size_t t_i = 0;
    for (const auto &[templ, cell] : snap.templates) {
        out += t_i++ ? ",\n    " : "\n    ";
        out += jsonString(templ) + ": {\n";
        out += "      \"universe\": " + std::to_string(cell.universe) +
               ",\n";
        out += "      \"covered\": " +
               std::to_string(cell.coveredClasses()) + ",\n";

        out += "      \"classes\": {";
        std::size_t i = 0;
        for (const auto &[cls, stats] : cell.classes) {
            out += i++ ? ",\n        " : "\n        ";
            out += '"';
            out += std::to_string(cls);
            out += "\": {\"hits\": " + std::to_string(stats.hits) +
                   ", \"draws\": " + std::to_string(stats.draws) +
                   ", \"solver_s\": " + text::g17(stats.solverSeconds) +
                   "}";
        }
        out += cell.classes.empty() ? "},\n" : "\n      },\n";

        out += "      \"path_pairs\": {";
        i = 0;
        for (const auto &[id, n] : cell.pathPairs) {
            out += i++ ? ",\n        " : "\n        ";
            out += jsonString(id) + ": " + std::to_string(n);
        }
        out += cell.pathPairs.empty() ? "},\n" : "\n      },\n";

        out += "      \"models\": {";
        i = 0;
        for (const auto &[model, v] : cell.models) {
            out += i++ ? ",\n        " : "\n        ";
            out += jsonString(model) + ": {\"experiments\": " +
                   std::to_string(v.experiments) +
                   ", \"counterexamples\": " +
                   std::to_string(v.counterexamples) +
                   ", \"inconclusive\": " +
                   std::to_string(v.inconclusive) +
                   ", \"indistinguishable\": " +
                   std::to_string(v.indistinguishable) + "}";
        }
        out += cell.models.empty() ? "}\n" : "\n      }\n";
        out += "    }";
    }
    out += snap.templates.empty() ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

bool
writeJson(const Snapshot &snap, const std::string &path)
{
    return text::writeFile(path, toJson(snap));
}

} // namespace scamv::cover
