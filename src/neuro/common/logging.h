/**
 * @file
 * Status-message and error-handling primitives, modeled on the gem5
 * inform/warn/fatal/panic discipline.
 *
 * - panic():  an internal invariant was violated (a neurocmp bug); aborts.
 * - fatal():  the simulation cannot continue due to a user error (bad
 *             configuration, missing file); exits with status 1.
 * - warn():   something is questionable but the run can continue.
 * - inform(): plain status output.
 *
 * Every message goes to stderr; there is no verbosity level to set.
 */

#pragma once

#include <cstdarg>
#include <string>

namespace neuro {

/** Print an informational message (printf-style). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a warning; execution continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user-level error (bad config, missing data)
 * and exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation (a neurocmp bug) and abort().
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Internal: print the location line of a failed assertion. */
void assertContext(const char *cond, const char *file, int line);

/**
 * Assertion macro used throughout the library. Unlike <cassert> it is
 * active in all build types: invariants in a simulator guard result
 * validity, not just debugging. Usage:
 * NEURO_ASSERT(x > 0, "x was %d", x);
 */
#define NEURO_ASSERT(cond, ...)                                 \
    do {                                                        \
        if (!(cond)) {                                          \
            ::neuro::assertContext(#cond, __FILE__, __LINE__);  \
            ::neuro::panic(__VA_ARGS__);                        \
        }                                                       \
    } while (0)

} // namespace neuro

