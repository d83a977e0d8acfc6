#include "support/textcodec.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace scamv::text {

std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%" PRIx64, v);
    return buf;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

std::string
g17(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
esc(std::string_view s)
{
    if (s.empty())
        return "-";
    if (s == "-")
        return "%2D";
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (c == '%' || c == ' ' || u < 0x20) {
            char buf[4];
            std::snprintf(buf, sizeof buf, "%%%02X", u);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::optional<std::string>
unesc(std::string_view s)
{
    if (s == "-")
        return std::string();
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            out += s[i];
            continue;
        }
        // Either hex case: esc writes "%2D", hand-written escapes
        // may not.
        std::uint8_t byte = 0;
        const char *at = s.data() + i + 1;
        if (i + 2 >= s.size() ||
            std::from_chars(at, at + 2, byte, 16).ptr != at + 2)
            return std::nullopt;
        out += static_cast<char>(byte);
        i += 2;
    }
    return out;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::vector<std::string_view>
split(std::string_view s, char sep)
{
    std::vector<std::string_view> out;
    while (true) {
        const std::size_t pos = s.find(sep);
        if (pos == std::string_view::npos) {
            out.push_back(s);
            return out;
        }
        out.push_back(s.substr(0, pos));
        s.remove_prefix(pos + 1);
    }
}

bool
nextLine(std::string_view &rest, std::string_view &line)
{
    if (rest.empty())
        return false;
    const std::size_t nl = rest.find('\n');
    line = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size()
                                                     : nl + 1);
    return true;
}

std::string
withChecksum(std::string_view line, SumWidth width)
{
    std::string out(line);
    out += ' ';
    out += width == SumWidth::Fixed ? hex16(fnv1a(line))
                                    : hex(fnv1a(line));
    return out;
}

std::optional<std::string_view>
checkLine(std::string_view line, SumWidth width)
{
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos)
        return std::nullopt;
    const std::string_view field = line.substr(space + 1);
    std::uint64_t sum = 0;
    if ((width == SumWidth::Fixed && field.size() != 16) ||
        !parseNum(field, sum, 16))
        return std::nullopt;
    const std::string_view prefix = line.substr(0, space);
    if (sum != fnv1a(prefix))
        return std::nullopt;
    return prefix;
}

std::optional<std::string>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return std::nullopt;
    // One allocation of the final size when the file is seekable.
    std::string out;
    if (std::fseek(f, 0, SEEK_END) == 0) {
        out.reserve(static_cast<std::size_t>(std::max(0L, std::ftell(f))));
        std::rewind(f);
    }
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    if (!ok)
        return std::nullopt;
    return out;
}

bool
writeFile(const std::string &path, std::string_view text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && wrote;
}

} // namespace scamv::text
