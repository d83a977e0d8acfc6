#include "triage/findings.hh"

#include <bit>
#include <map>
#include <sstream>

#include "support/faults.hh"
#include "support/metrics.hh"
#include "support/textcodec.hh"

namespace scamv::triage {
namespace {

void
emitInput(std::ostringstream &os, const harness::ProgramInput &in)
{
    os << "{\"regs\":{";
    bool first = true;
    for (std::size_t r = 0; r < in.regs.regs.size(); ++r) {
        if (in.regs.regs[r] == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "\"" << r << "\":\"0x" << text::hex(in.regs.regs[r])
           << "\"";
    }
    os << "},\"mem\":[";
    for (std::size_t i = 0; i < in.mem.size(); ++i) {
        if (i)
            os << ",";
        os << "[\"0x" << text::hex(in.mem[i].first) << "\",\"0x"
           << text::hex(in.mem[i].second) << "\"]";
    }
    os << "]}";
}

} // namespace

int
stateBitCount(const harness::TestCase &tc)
{
    int bits = 0;
    for (const harness::ProgramInput *in : {&tc.s1, &tc.s2}) {
        for (std::uint64_t v : in->regs.regs)
            bits += std::popcount(v);
        for (const auto &[addr, word] : in->mem)
            bits += std::popcount(addr) + std::popcount(word);
    }
    return bits;
}

std::string
shapeSignature(const bir::Program &p)
{
    std::string sig;
    for (const bir::Instr &ins : p.instrs()) {
        if (!sig.empty())
            sig += ',';
        if (ins.transient)
            sig += "t:";
        switch (ins.kind) {
        case bir::InstrKind::Alu: sig += bir::aluName(ins.aluOp); break;
        case bir::InstrKind::MovImm: sig += "mov"; break;
        case bir::InstrKind::Load: sig += "ld"; break;
        case bir::InstrKind::Store: sig += "st"; break;
        case bir::InstrKind::Branch: sig += "br"; break;
        case bir::InstrKind::Jump: sig += "j"; break;
        case bir::InstrKind::Halt: sig += "halt"; break;
        }
    }
    return sig;
}

std::string
classifyMechanism(const bir::Program &prog, const harness::TestCase &tc,
                  const std::optional<harness::ProgramInput> &training,
                  bool speculativeRefinement,
                  const harness::PlatformConfig &platform,
                  std::uint64_t seed)
{
    if (speculativeRefinement)
        return "speculative_load";

    // Same isolation discipline as the minimizer: the probe run must
    // not perturb the task's metrics or fault attempt counters.
    metrics::Registry scratch(metrics::ClockMode::Deterministic);
    metrics::ScopedRegistry scoped(scratch);
    faults::ScopedSuppress suppress;

    harness::PlatformConfig no_pf = platform;
    no_pf.core.prefetcher.enabled = false;
    harness::Platform probe(no_pf, seed ^ 0x9ef7cbULL);
    const auto result = probe.runExperiment(prog, tc, training);
    return result.verdict != harness::Verdict::Counterexample
               ? "prefetch_spill"
               : "cache_set_collision";
}

std::string
findingsToJson(const std::vector<Finding> &findings)
{
    // signature -> findings, already in program-index order because
    // the pipeline merges findings by program index.
    std::map<std::string, std::vector<const Finding *>> clusters;
    for (const Finding &f : findings)
        clusters[f.signature].push_back(&f);

    std::ostringstream os;
    os << "{\n  \"schema\": \"scamv-findings-v1\",\n"
       << "  \"findings\": " << findings.size() << ",\n"
       << "  \"clusters\": [";
    bool first_cluster = true;
    for (const auto &[signature, members] : clusters) {
        os << (first_cluster ? "\n" : ",\n");
        first_cluster = false;
        os << "    {\n      \"signature\": \"" << text::jsonEscape(signature)
           << "\",\n      \"mechanism\": \""
           << text::jsonEscape(members.front()->mechanism)
           << "\",\n      \"count\": " << members.size()
           << ",\n      \"findings\": [";
        bool first = true;
        for (const Finding *f : members) {
            os << (first ? "\n" : ",\n");
            first = false;
            os << "        {\"program_index\": " << f->progIndex
               << ", \"program\": \"" << text::jsonEscape(f->program)
               << "\", \"minimized\": "
               << (f->minimized ? "true" : "false")
               << ", \"degraded\": " << (f->degraded ? "true" : "false")
               << ", \"instrs_before\": " << f->instrsBefore
               << ", \"instrs_after\": " << f->instrsAfter
               << ", \"state_bits_before\": " << f->stateBitsBefore
               << ", \"state_bits_after\": " << f->stateBitsAfter
               << ",\n         \"core\": \"" << text::jsonEscape(f->core)
               << "\",\n         \"s1\": ";
            emitInput(os, f->tc.s1);
            os << ", \"s2\": ";
            emitInput(os, f->tc.s2);
            os << "}";
        }
        os << "\n      ]\n    }";
    }
    os << (clusters.empty() ? "]\n}\n" : "\n  ]\n}\n");
    return os.str();
}

bool
writeFindings(const std::vector<Finding> &findings,
              const std::string &path)
{
    return text::writeFile(path, findingsToJson(findings));
}

} // namespace scamv::triage
