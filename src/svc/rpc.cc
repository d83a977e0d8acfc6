/**
 * @file
 * "scamv-rpc-v1" frame codec and submission-spec marshalling.
 *
 * A frame payload is one checksummed line of the shared text codec
 * (support/textcodec.hh), the one the shard artifact uses too:
 * space-separated fields, percent-escaped so fields with spaces or
 * control bytes survive, ending in a 16-digit fnv1a checksum over
 * the line's prefix.  Numeric spec fields parse strictly (no sign on
 * the seed, no whitespace, no overflow).  On the wire each payload is
 * preceded by an 8-hex-digit byte length plus '\n', so a reader can
 * frame the stream without scanning for terminators and a truncated
 * connection is detected as NeedMore, never a short parse.  Damage
 * handling mirrors the qcache/shard codecs: a bad checksum or
 * malformed field drops the whole frame.
 */

#include "svc/svc.hh"

#include <cstdio>

#include "shard/shard.hh"
#include "support/textcodec.hh"

namespace scamv::svc {

std::string
encodePayload(const Frame &frame)
{
    std::string line = text::esc(frame.type);
    for (const std::string &arg : frame.args) {
        line += ' ';
        line += text::esc(arg);
    }
    return text::withChecksum(line);
}

std::optional<Frame>
decodePayload(std::string_view payload)
{
    const std::optional<std::string_view> prefix =
        text::checkLine(payload);
    if (!prefix)
        return std::nullopt;
    Frame frame;
    for (std::string_view field : text::split(*prefix)) {
        std::optional<std::string> plain = text::unesc(field);
        if (!plain)
            return std::nullopt;
        frame.args.push_back(std::move(*plain));
    }
    frame.type = std::move(frame.args.front());
    frame.args.erase(frame.args.begin());
    if (frame.type.empty())
        return std::nullopt;
    return frame;
}

std::string
encodeFrame(const Frame &frame)
{
    const std::string payload = encodePayload(frame);
    char prefix[16];
    std::snprintf(prefix, sizeof prefix, "%08zx\n", payload.size());
    return prefix + payload;
}

FrameStatus
decodeFrame(std::string_view buf, Frame &out, std::size_t &consumed)
{
    if (buf.size() < 9)
        return FrameStatus::NeedMore;
    std::uint64_t len = 0;
    if (!text::parseNum(buf.substr(0, 8), len, 16) || buf[8] != '\n' ||
        len > kMaxFrameBytes)
        return FrameStatus::Bad;
    if (buf.size() < 9 + len)
        return FrameStatus::NeedMore;
    const std::optional<Frame> frame =
        decodePayload(buf.substr(9, len));
    if (!frame)
        return FrameStatus::Bad;
    out = *frame;
    consumed = 9 + len;
    return FrameStatus::Ok;
}

std::vector<std::string>
specToArgs(const SubmissionSpec &spec)
{
    std::vector<std::string> args;
    args.push_back("programs=" + std::to_string(spec.programs));
    args.push_back("tests=" + std::to_string(spec.tests));
    args.push_back("seed=" + std::to_string(spec.seed));
    args.push_back("adaptive=" + std::to_string(spec.adaptive ? 1 : 0));
    args.push_back("line=" + std::to_string(spec.line ? 1 : 0));
    args.push_back("priority=" + std::to_string(spec.priority));
    args.push_back("shards=" + std::to_string(spec.shards));
    args.push_back(std::string("fault_rate=") +
                   text::g17(spec.faultRate));
    args.push_back("fault_plan=" + (spec.faultSites.empty()
                                        ? std::string("-")
                                        : spec.faultSites));
    args.push_back("retry_max=" + std::to_string(spec.retryMax));
    args.push_back("triage=" + std::to_string(spec.triage ? 1 : 0));
    args.push_back("minimize=" +
                   std::to_string(spec.minimize ? 1 : 0));
    args.push_back("corpus=" + (spec.corpusDir.empty()
                                    ? std::string("-")
                                    : spec.corpusDir));
    return args;
}

std::optional<SubmissionSpec>
specFromArgs(const std::vector<std::string> &args, std::string &error)
{
    SubmissionSpec spec;
    for (const std::string &arg : args) {
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos) {
            error = "malformed submission field '" + arg + "'";
            return std::nullopt;
        }
        const std::string_view key(arg.data(), eq);
        const std::string_view val(arg.data() + eq + 1,
                                   arg.size() - eq - 1);
        // Range-checked fields; a bool field is the range 0..1.
        const auto in = [val](auto &field, auto lo, auto hi) {
            const auto v = text::parseInRange(val, lo, hi);
            if (v)
                field = static_cast<std::decay_t<decltype(field)>>(*v);
            return v.has_value();
        };
        bool ok = true;
        if (key == "programs")
            ok = in(spec.programs, 1, 100000);
        else if (key == "tests")
            ok = in(spec.tests, 1, 10000);
        else if (key == "seed")
            ok = text::parseNum(val, spec.seed);
        else if (key == "adaptive")
            ok = in(spec.adaptive, 0, 1);
        else if (key == "line")
            ok = in(spec.line, 0, 1);
        else if (key == "priority")
            ok = in(spec.priority, -100, 100);
        else if (key == "shards")
            ok = in(spec.shards, 0, 64);
        else if (key == "fault_rate")
            ok = in(spec.faultRate, 0.0, 1.0);
        else if (key == "fault_plan")
            spec.faultSites = val == "-" ? "" : std::string(val);
        else if (key == "retry_max")
            ok = in(spec.retryMax, -1, 64);
        else if (key == "triage")
            ok = in(spec.triage, 0, 1);
        else if (key == "minimize")
            ok = in(spec.minimize, 0, 1);
        else if (key == "corpus")
            spec.corpusDir = val == "-" ? "" : std::string(val);
        else
            ok = false;
        if (!ok) {
            error = "invalid submission field '" + arg + "'";
            return std::nullopt;
        }
    }
    return spec;
}

faults::FaultPlan
faultPlanFor(const SubmissionSpec &spec)
{
    if (spec.faultRate <= 0.0)
        return {};
    return faults::FaultPlan::of(spec.faultRate, spec.faultSites);
}

core::PipelineConfig
campaignConfig(const SubmissionSpec &spec)
{
    core::PipelineConfig cfg =
        spec.corpusDir.empty()
            ? shard::defaultWorkload(spec.programs, spec.tests,
                                     spec.seed, spec.adaptive,
                                     spec.line)
            : shard::corpusWorkload(spec.programs, spec.tests,
                                    spec.seed, spec.adaptive,
                                    spec.corpusDir);
    if (spec.faultRate > 0.0)
        cfg.faultPlan = faultPlanFor(spec);
    if (spec.retryMax >= 0)
        cfg.retryMax = spec.retryMax;
    if (spec.triage)
        cfg.triageScreen = 1;
    if (spec.minimize)
        cfg.triageMinimize = 1;
    return cfg;
}

const char *
stateName(SubmissionState state)
{
    switch (state) {
      case SubmissionState::Queued: return "queued";
      case SubmissionState::Running: return "running";
      case SubmissionState::Merging: return "merging";
      case SubmissionState::Done: return "done";
      case SubmissionState::Failed: return "failed";
    }
    return "?";
}

} // namespace scamv::svc
