/**
 * @file
 * Whole-number option parsing shared by the example command lines.
 */

#ifndef FLASHSIM_EXAMPLES_PARSE_COUNT_HH_
#define FLASHSIM_EXAMPLES_PARSE_COUNT_HH_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

/** Parse all of @p s as an unsigned integer in [@p lo, @p hi]
 *  (strtoull base 0: decimal, 0x hex or 0 octal). */
inline bool
parseCount(const char *s, std::uint64_t lo, std::uint64_t hi,
           std::uint64_t &out)
{
    // strtoull would accept a sign and wrap "-3" to 2^64 - 3.
    if (!std::isdigit(static_cast<unsigned char>(*s)))
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 0);
    if (*end != '\0' || errno == ERANGE || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

#endif // FLASHSIM_EXAMPLES_PARSE_COUNT_HH_
