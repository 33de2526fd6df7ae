/**
 * @file
 * Small string helpers (split/join/trim) and printf-style formatting.
 *
 * GCC 12 lacks std::format, so format() wraps vsnprintf with a
 * std::string result; appendDouble() is the one number formatter of
 * the text writers.
 */

#ifndef CEER_UTIL_STRINGS_H
#define CEER_UTIL_STRINGS_H

#include <string>
#include <vector>

namespace ceer {
namespace util {

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Appends @p value as printf's `%.<precision>g` would print it, via
 * std::to_chars (no locale, no allocation beyond the append).
 */
void appendDouble(std::string *out, double value, int precision);

/** Splits @p text on @p delim; consecutive delimiters yield empty parts. */
std::vector<std::string> split(const std::string &text, char delim);

/** Joins @p parts with @p delim between consecutive elements. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &delim);

/** Removes leading and trailing ASCII whitespace. */
std::string trim(const std::string &text);

/** True if @p text begins with @p prefix. */
bool startsWith(const std::string &text, const std::string &prefix);

/** True if @p text ends with @p suffix. */
bool endsWith(const std::string &text, const std::string &suffix);

/** Lower-cases ASCII letters. */
std::string toLower(std::string text);

/**
 * Human-readable byte count, e.g. "85.0MB"; powers of 1000 to match the
 * paper's MB figures.
 */
std::string humanBytes(double bytes);

/** Human-readable time from microseconds, e.g. "3.42ms", "1.2h". */
std::string humanMicros(double micros);

} // namespace util
} // namespace ceer

#endif // CEER_UTIL_STRINGS_H
