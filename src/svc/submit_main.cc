/**
 * @file
 * scamv-submit: submit campaigns to a running scamvd and follow
 * their progress.
 *
 *   scamv-submit --socket PATH submit [workload flags] [--watch]
 *   scamv-submit --socket PATH status ID
 *   scamv-submit --socket PATH watch ID
 *   scamv-submit --socket PATH drain
 *   scamv-submit --socket PATH ping
 *
 * Workload flags: --programs N --tests N --seed S [--adaptive]
 * [--line] [--corpus DIR] [--priority P] [--shards K]
 * [--fault-rate R] [--fault-plan SITES] [--retry-max N] [--triage]
 * [--minimize].
 *
 * Numbers are strict decimal and range-checked by the same
 * specFromArgs the daemon applies; a malformed flag exits 2 without
 * contacting the daemon.
 *
 * Output is line-oriented `key=value` pairs (submit prints `id=N`;
 * status/watch print the submission's state and counters), so shell
 * scripts and the CI svc-equivalence job can parse it with `cut`.
 * Exit status: 0 on success (for watch: the submission finished
 * Done), 1 on a service-reported error, 2 on usage errors.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "svc/svc.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH COMMAND\n"
        "  submit [--programs N] [--tests N] [--seed S]\n"
        "         [--adaptive] [--line] [--priority P] [--shards K]\n"
        "         [--fault-rate R] [--fault-plan SITES]\n"
        "         [--retry-max N] [--triage] [--minimize]\n"
        "         [--corpus DIR] [--watch]\n"
        "  status ID | watch ID | drain | ping\n",
        argv0);
    return 2;
}

void
printStatusLine(const char *tag, const scamv::svc::Frame &frame)
{
    // OK/PROGRESS/DONE status payload:
    //   id state done total cex classes findings dir [error]
    const auto &a = frame.args;
    if (a.size() < 8) {
        std::printf("%s\n", tag);
        return;
    }
    std::printf("%s id=%s state=%s done=%s total=%s cex=%s "
                "classes=%s findings=%s dir=%s%s%s\n",
                tag, a[0].c_str(), a[1].c_str(), a[2].c_str(),
                a[3].c_str(), a[4].c_str(), a[5].c_str(),
                a[6].c_str(), a[7].c_str(),
                a.size() > 8 ? " error=" : "",
                a.size() > 8 ? a[8].c_str() : "");
}

int
runWatch(scamv::svc::Client &client, const std::string &id)
{
    using scamv::svc::Frame;
    if (!client.send(Frame{"WATCH", {id}})) {
        std::fprintf(stderr, "scamv-submit: send failed\n");
        return 1;
    }
    for (;;) {
        const std::optional<Frame> frame = client.recv();
        if (!frame) {
            std::fprintf(stderr,
                         "scamv-submit: connection lost\n");
            return 1;
        }
        if (frame->type == "PROGRESS") {
            printStatusLine("progress", *frame);
        } else if (frame->type == "DONE") {
            printStatusLine("done", *frame);
            return frame->args.size() > 1 &&
                           frame->args[1] == "done"
                       ? 0
                       : 1;
        } else if (frame->type == "ERR") {
            std::fprintf(stderr, "scamv-submit: %s\n",
                         frame->args.empty()
                             ? "error"
                             : frame->args[0].c_str());
            return 1;
        }
    }
}

/**
 * The submit flags as specFromArgs fields ("--retry-max 1" ->
 * "retry_max=1", a switch "--line" -> "line=1"), so the client
 * validates with exactly the parser the daemon re-runs at accept.
 * @return nullopt on a malformed flag or value.
 */
std::optional<scamv::svc::SubmissionSpec>
parseSubmitFlags(int argc, char **argv, int &i, bool &watch)
{
    std::vector<std::string> fields;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--watch") {
            watch = true;
            continue;
        }
        if (arg.rfind("--", 0) != 0 ||
            arg.find_first_of("=_") != std::string::npos)
            return std::nullopt;
        std::string key = arg.substr(2);
        std::replace(key.begin(), key.end(), '-', '_');
        if (key == "adaptive" || key == "line" || key == "triage" ||
            key == "minimize")
            fields.push_back(key + "=1");
        else if (i + 1 < argc)
            fields.push_back(key + "=" + argv[++i]);
        else
            return std::nullopt;
    }
    std::string err;
    std::optional<scamv::svc::SubmissionSpec> spec =
        scamv::svc::specFromArgs(fields, err);
    if (!spec)
        std::fprintf(stderr, "scamv-submit: %s\n", err.c_str());
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace scamv::svc;

    std::string socket_path;
    if (const char *sock = std::getenv("SCAMV_SVC_SOCKET");
        sock && *sock)
        socket_path = sock;
    int i = 1;
    if (i + 1 < argc && std::strcmp(argv[i], "--socket") == 0) {
        socket_path = argv[i + 1];
        i += 2;
    }
    if (i >= argc || socket_path.empty())
        return usage(argv[0]);
    const std::string command = argv[i++];

    // Every argument is checked before the daemon is contacted.
    std::optional<SubmissionSpec> spec;
    bool watch = false;
    if (command == "submit") {
        spec = parseSubmitFlags(argc, argv, i, watch);
        if (!spec)
            return usage(argv[0]);
    } else if (command == "status" || command == "watch") {
        if (i >= argc)
            return usage(argv[0]);
    } else if (command != "ping" && command != "drain") {
        return usage(argv[0]);
    }

    Client client;
    if (!client.connectTo(socket_path)) {
        std::fprintf(stderr,
                     "scamv-submit: cannot connect to %s\n",
                     socket_path.c_str());
        return 1;
    }

    if (command == "ping") {
        const std::optional<Frame> res =
            client.call(Frame{"PING", {}});
        if (!res || res->type != "OK")
            return 1;
        std::printf("pong\n");
        return 0;
    }

    if (command == "drain") {
        const std::optional<Frame> res =
            client.call(Frame{"DRAIN", {}});
        if (!res || res->type != "OK") {
            std::fprintf(stderr, "scamv-submit: drain failed\n");
            return 1;
        }
        std::printf("drained\n");
        return 0;
    }

    if (command == "status" || command == "watch") {
        const std::string id = argv[i];
        if (command == "watch")
            return runWatch(client, id);
        const std::optional<Frame> res =
            client.call(Frame{"STATUS", {id}});
        if (!res || res->type != "OK") {
            std::fprintf(stderr, "scamv-submit: %s\n",
                         res && !res->args.empty()
                             ? res->args[0].c_str()
                             : "status failed");
            return 1;
        }
        printStatusLine("status", *res);
        return 0;
    }

    const std::optional<Frame> res =
        client.call(Frame{"SUBMIT", specToArgs(*spec)});
    if (!res || res->type != "OK" || res->args.empty()) {
        std::fprintf(stderr, "scamv-submit: %s\n",
                     res && !res->args.empty()
                         ? res->args[0].c_str()
                         : "submit failed");
        return 1;
    }
    std::printf("id=%s\n", res->args[0].c_str());
    std::fflush(stdout);
    if (watch)
        return runWatch(client, res->args[0]);
    return 0;
}
