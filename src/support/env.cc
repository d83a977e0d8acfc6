#include "support/env.hh"

#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>

#include "support/logging.hh"
#include "support/textcodec.hh"

namespace scamv {

namespace {

template <class T>
std::optional<T>
envNum(const char *name)
{
    const char *env = std::getenv(name);
    if (!env)
        return std::nullopt;
    // Trailing blanks are tolerated (a quoted "4 " in a shell).
    std::string_view val(env);
    while (!val.empty() && (val.back() == ' ' || val.back() == '\t'))
        val.remove_suffix(1);
    T v{};
    if (!text::parseNum(val, v) ||
        !std::isfinite(static_cast<double>(v))) {
        warn(std::string(name) + "='" + env +
             "' is malformed or out of range; using the default");
        return std::nullopt;
    }
    return v;
}

template <class T>
std::optional<T>
envNum(const char *name, T lo, T hi)
{
    const auto v = envNum<T>(name);
    if (v && (*v < lo || *v > hi)) {
        warn(std::string(name) + "=" + std::to_string(*v) +
             " is outside [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]; using the default");
        return std::nullopt;
    }
    return v;
}

} // namespace

std::optional<double>
envDouble(const char *name)
{
    return envNum<double>(name);
}

std::optional<double>
envDouble(const char *name, double lo, double hi)
{
    return envNum(name, lo, hi);
}

std::optional<long>
envLong(const char *name)
{
    return envNum<long>(name);
}

std::optional<long>
envLong(const char *name, long lo, long hi)
{
    return envNum(name, lo, hi);
}

} // namespace scamv
