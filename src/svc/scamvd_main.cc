/**
 * @file
 * scamvd: the long-running campaign daemon.
 *
 *   scamvd [--socket PATH] [--dir DIR] [--workers N] [--shards N]
 *          [--queue-max N]
 *
 * Flags override the SCAMV_SVC_* environment (see OPERATIONS.md for
 * the full tuning table and runbook) and obey the same bounds:
 * --workers 1..64, --shards 1..16, --queue-max 1..4096, strict
 * decimal; anything else exits 2 before the fleet starts.
 * SIGTERM/SIGINT trigger a graceful drain: stop accepting, finish
 * every in-flight campaign, fold its checkpoint delta, then exit 0.
 * A client DRAIN request does the same.  Campaign knobs that are
 * env-resolved per process (SCAMV_QCACHE_MB for the shared
 * checkpoint, SCAMV_RETRY_MAX, ...) are read from the daemon's
 * environment; export-path variables (SCAMV_METRICS,
 * SCAMV_COVERAGE_FILE) should stay unset — each campaign writes its
 * own artifact set under its campaign directory.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>

#include "support/logging.hh"
#include "support/textcodec.hh"
#include "svc/svc.hh"

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

int
usage(const char *argv0)
{
    using scamv::svc::ServiceConfig;
    std::fprintf(stderr,
                 "usage: %s [--socket PATH] [--dir DIR]\n"
                 "          [--workers 1..%d] [--shards 1..%d] "
                 "[--queue-max 1..%d]\n"
                 "Defaults: SCAMV_SVC_* from the environment "
                 "(OPERATIONS.md).\n",
                 argv0, ServiceConfig::kMaxWorkers,
                 ServiceConfig::kMaxShards, ServiceConfig::kMaxQueue);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace scamv;

    svc::ServiceConfig cfg = svc::ServiceConfig::fromEnv();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--socket" && val) {
            cfg.socketPath = val;
            ++i;
        } else if (arg == "--dir" && val) {
            cfg.dir = val;
            ++i;
        } else if (arg == "--workers" && val &&
                   text::parseNum(val, cfg.workers)) {
            ++i;
        } else if (arg == "--shards" && val &&
                   text::parseNum(val, cfg.shards)) {
            ++i;
        } else if (arg == "--queue-max" && val &&
                   text::parseNum(val, cfg.queueMax)) {
            ++i;
        } else {
            return usage(argv[0]);
        }
    }
    if (!cfg.inBounds())
        return usage(argv[0]);

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
#ifdef SIGPIPE
    // A client vanishing mid-stream is its problem, not the fleet's.
    std::signal(SIGPIPE, SIG_IGN);
#endif

    svc::Service service(cfg);
    if (!svc::serveLoop(service, cfg.socketPath, g_stop))
        return 1;
    // The loop exits on SIGTERM/SIGINT or a DRAIN request; finish
    // whatever is still in flight before the Service destructor
    // stops the fleet.
    service.drain();
    inform("scamvd: drained, exiting");
    return 0;
}
