#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace ceer {
namespace util {

std::string
format(const char *fmt, ...)
{
    // One pass into a stack buffer; a second only when it overflowed.
    char buf[256];
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0 && static_cast<std::size_t>(needed) < sizeof buf) {
        out.assign(buf, static_cast<std::size_t>(needed));
    } else if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

void
appendDouble(std::string *out, double value, int precision)
{
    char buf[64];
    const auto result =
        std::to_chars(buf, buf + sizeof buf, value,
                      std::chars_format::general, precision);
    if (result.ec != std::errc{}) {
        *out += format("%.*g", precision, value);
        return;
    }
    out->append(buf, result.ptr);
}

std::vector<std::string>
split(const std::string &text, char delim)
{
    std::vector<std::string> parts;
    std::string::size_type start = 0;
    for (;;) {
        const auto pos = text.find(delim, start);
        if (pos == std::string::npos) {
            parts.push_back(text.substr(start));
            return parts;
        }
        parts.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::string
join(const std::vector<std::string> &parts, const std::string &delim)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += delim;
        out += parts[i];
    }
    return out;
}

std::string
trim(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return text.substr(begin, end - begin);
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.size() >= prefix.size() &&
           text.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

std::string
toLower(std::string text)
{
    for (auto &c : text)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return text;
}

std::string
humanBytes(double bytes)
{
    static const char *units[] = {"B", "KB", "MB", "GB", "TB"};
    int unit = 0;
    while (bytes >= 1000.0 && unit < 4) {
        bytes /= 1000.0;
        ++unit;
    }
    return format("%.1f%s", bytes, units[unit]);
}

std::string
humanMicros(double micros)
{
    if (micros < 1e3)
        return format("%.1fus", micros);
    if (micros < 1e6)
        return format("%.2fms", micros / 1e3);
    const double seconds = micros / 1e6;
    if (seconds < 60.0)
        return format("%.2fs", seconds);
    if (seconds < 3600.0)
        return format("%.1fmin", seconds / 60.0);
    return format("%.2fh", seconds / 3600.0);
}

} // namespace util
} // namespace ceer
