/**
 * @file
 * SC corpus loading.
 *
 * Campaigns consume corpus programs by index, and every artifact
 * (metrics, coverage, database, findings) must be byte-identical
 * across threads, shards and the service — so corpus enumeration must
 * be deterministic.  Directory iteration order is filesystem-specific;
 * we sort by filename before compiling.
 *
 * A kernel that fails to read or compile warns and is skipped rather
 * than aborting the campaign: one bad file in a user corpus should
 * cost one program, not the run.
 */

#include "front/front.hh"

#include "support/logging.hh"
#include "support/textcodec.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

namespace scamv::front {

namespace {

/** "sbox" from "examples/corpus/sbox.sc". */
std::string
stemOf(const std::string &path)
{
    return std::filesystem::path(path).stem().string();
}

} // namespace

std::optional<CompiledProgram>
loadProgramFile(const std::string &path, const CompileOptions &opts)
{
    std::optional<std::string> src = text::readFile(path);
    if (!src) {
        warn("front: cannot read program file " + path);
        return std::nullopt;
    }
    CompileResult res = compile(*src, stemOf(path), opts);
    if (!res.ok()) {
        warn("front: skipping " + res.error->render(path));
        return std::nullopt;
    }
    return std::move(res.compiled);
}

std::vector<CompiledProgram>
loadCorpusDir(const std::string &dir, const CompileOptions &opts)
{
    std::vector<CompiledProgram> out;
    std::error_code ec;
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() && entry.path().extension() == ".sc")
            files.push_back(entry.path().string());
    }
    if (ec) {
        warn("front: cannot read corpus directory " + dir + ": " +
             ec.message());
        return out;
    }
    std::sort(files.begin(), files.end());
    for (const std::string &f : files)
        if (std::optional<CompiledProgram> p = loadProgramFile(f, opts))
            out.push_back(std::move(*p));
    return out;
}

std::vector<CompiledProgram>
corpusFromEnv(const CompileOptions &opts)
{
    std::vector<CompiledProgram> out;
    if (const char *dir = std::getenv("SCAMV_CORPUS_DIR"); dir && *dir)
        out = loadCorpusDir(dir, opts);
    if (const char *file = std::getenv("SCAMV_PROGRAM_FILE");
        file && *file)
        if (std::optional<CompiledProgram> p =
                loadProgramFile(file, opts))
            out.push_back(std::move(*p));
    return out;
}

} // namespace scamv::front
