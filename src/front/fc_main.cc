/**
 * @file
 * scamv-fc: the SC frontend driver.
 *
 * Compiles `.sc` kernels and prints diagnostics, the AST dump, or the
 * lowered BIR assembly.  The BIR emitted by --emit-bir is exactly the
 * asm.hh syntax, so `scamv-fc --emit-bir k.sc` output can be fed back
 * through bir::assemble() unchanged (property-tested in
 * tests/test_front.cc).
 *
 * Usage:
 *   scamv-fc [--emit-ast] [--emit-bir] [--unroll-budget N] file.sc...
 *
 * With no emit flag, compiles each file and prints a one-line summary;
 * exit status is non-zero if any file fails.
 */

#include "front/front.hh"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "support/textcodec.hh"

using namespace scamv;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--emit-ast] [--emit-bir] "
                 "[--unroll-budget N] file.sc...\n",
                 argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    bool emitAst = false;
    bool emitBir = false;
    front::CompileOptions opts;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--emit-ast")) {
            emitAst = true;
        } else if (!std::strcmp(argv[i], "--emit-bir")) {
            emitBir = true;
        } else if (!std::strcmp(argv[i], "--unroll-budget") &&
                   i + 1 < argc) {
            if (!text::parseNum(argv[++i], opts.unrollBudget) ||
                opts.unrollBudget <= 0) {
                std::fprintf(stderr, "scamv-fc: bad --unroll-budget\n");
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--help")) {
            usage(argv[0]);
            return 0;
        } else if (argv[i][0] == '-') {
            usage(argv[0]);
            return 2;
        } else {
            files.push_back(argv[i]);
        }
    }
    if (files.empty()) {
        usage(argv[0]);
        return 2;
    }

    int rc = 0;
    for (const std::string &path : files) {
        const std::optional<std::string> read = text::readFile(path);
        if (!read) {
            std::fprintf(stderr, "scamv-fc: cannot read %s\n",
                         path.c_str());
            rc = 1;
            continue;
        }
        const std::string &src = *read;

        if (emitAst) {
            front::ParseResult p = front::parse(src);
            if (!p.ok()) {
                std::fprintf(stderr, "%s\n",
                             p.error->render(path).c_str());
                rc = 1;
                continue;
            }
            std::fputs(front::dumpAst(p.unit).c_str(), stdout);
            if (!emitBir)
                continue;
        }

        std::string stem = path;
        if (std::size_t slash = stem.find_last_of('/');
            slash != std::string::npos)
            stem = stem.substr(slash + 1);
        if (stem.size() > 3 && stem.ends_with(".sc"))
            stem = stem.substr(0, stem.size() - 3);
        front::CompileResult res = front::compile(src, stem, opts);
        if (!res.ok()) {
            std::fprintf(stderr, "%s\n", res.error->render(path).c_str());
            rc = 1;
            continue;
        }
        if (emitBir) {
            std::fputs(res.compiled->program.toString().c_str(), stdout);
        } else if (!emitAst) {
            std::printf("%s: ok (%zu instrs, %d loads/stores, %d "
                        "branches, %zu secret regs, %zu arrays)\n",
                        path.c_str(), res.compiled->program.size(),
                        res.compiled->program.memAccessCount(),
                        res.compiled->program.branchCount(),
                        res.compiled->secretRegs.size(),
                        res.compiled->arrays.size());
        }
    }
    return rc;
}
