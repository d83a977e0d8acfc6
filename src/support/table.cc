#include "support/table.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "support/textcodec.hh"

namespace scamv {

void
TextTable::setHeader(std::vector<std::string> cells)
{
    header = std::move(cells);
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    rows.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths;
    auto grow = [&](const std::vector<std::string> &r) {
        if (widths.size() < r.size())
            widths.resize(r.size(), 0);
        for (std::size_t i = 0; i < r.size(); ++i)
            widths[i] = std::max(widths[i], r[i].size());
    };
    if (!header.empty())
        grow(header);
    for (const auto &r : rows)
        grow(r);

    std::ostringstream out;
    auto emit = [&](const std::vector<std::string> &r) {
        for (std::size_t i = 0; i < r.size(); ++i) {
            out << r[i];
            if (i + 1 < r.size())
                out << std::string(widths[i] - r[i].size() + 2, ' ');
        }
        out << '\n';
    };
    if (!header.empty()) {
        emit(header);
        std::size_t total = 0;
        for (std::size_t i = 0; i < widths.size(); ++i)
            total += widths[i] + (i + 1 < widths.size() ? 2 : 0);
        out << std::string(total, '-') << '\n';
    }
    for (const auto &r : rows)
        emit(r);
    return out.str();
}

namespace {

std::string
csvQuote(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string q = "\"";
    for (char c : s) {
        if (c == '"')
            q += '"';
        q += c;
    }
    q += '"';
    return q;
}

} // namespace

std::string
TextTable::renderCsv() const
{
    std::ostringstream out;
    auto emit = [&](const std::vector<std::string> &r) {
        for (std::size_t i = 0; i < r.size(); ++i) {
            out << csvQuote(r[i]);
            if (i + 1 < r.size())
                out << ',';
        }
        out << '\n';
    };
    if (!header.empty())
        emit(header);
    for (const auto &r : rows)
        emit(r);
    return out.str();
}

bool
TextTable::writeCsv(const std::string &path) const
{
    return text::writeFile(path, renderCsv());
}

std::string
fmtDouble(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
fmtRatio(double num, double den, int decimals)
{
    if (den == 0.0)
        return "-";
    return fmtDouble(num / den, decimals) + "x";
}

} // namespace scamv
