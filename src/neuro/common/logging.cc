#include "neuro/common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace neuro {

namespace {

/**
 * Each message is emitted under a single stream lock so that
 * multi-threaded callers (instrumented parallel benches) never
 * interleave tag, body and newline of concurrent messages.
 */
void
vprint(const char *tag, const char *fmt, va_list ap)
{
    flockfile(stderr);
    std::fprintf(stderr, "%s", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    funlockfile(stderr);
}
} // namespace

void
inform(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vprint("info: ", fmt, ap);
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vprint("warn: ", fmt, ap);
    va_end(ap);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vprint("fatal: ", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
assertContext(const char *cond, const char *file, int line)
{
    std::fprintf(stderr, "panic: assertion '%s' failed at %s:%d\n", cond,
                 file, line);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vprint("panic: ", fmt, ap);
    va_end(ap);
    std::abort();
}

} // namespace neuro
