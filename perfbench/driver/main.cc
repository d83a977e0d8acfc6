/**
 * @file
 * perfbench_driver: runs one benchmark workload and writes its raw
 * samples as JSON.  perfbench/run.py builds and invokes it:
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --root DIR --work DIR --out FILE [--spans FILE]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hh"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 --root DIR --work DIR "
                 "--out FILE [--spans FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opts;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            opts.workload = val;
        else if (key == "--seed")
            opts.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            opts.seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            opts.trace = std::strcmp(val, "0") != 0;
        else if (key == "--root")
            opts.root = val;
        else if (key == "--work")
            opts.work = val;
        else if (key == "--out")
            opts.out = val;
        else if (key == "--spans")
            opts.spans = val;
        else
            return usage();
    }
    if (argc % 2 == 0 || opts.workload.empty() || opts.work.empty() ||
        opts.out.empty() || !(opts.seconds > 0) ||
        (opts.trace && opts.spans.empty()))
        return usage();
    try {
        if (opts.workload == "svc_tenants")
            return perfbench::runTenantsWorkload(opts);
        if (opts.workload == "mpart_prefetch" ||
            opts.workload == "spec_siscloak" ||
            opts.workload == "corpus_kernels")
            return perfbench::runCampaignWorkload(opts);
        std::fprintf(stderr, "perfbench_driver: unknown workload %s\n",
                     opts.workload.c_str());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    }
}
