#include "neuro/common/trace.h"

#include <cinttypes>
#include <thread>

#include "neuro/common/logging.h"

namespace neuro {

namespace {

/** Small dense thread ids (Chrome wants integers, not hashes). */
int
currentTid()
{
    static std::atomic<int> next{1};
    thread_local int tid = next.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

/** Escape a name for embedding in a JSON string literal. */
std::string
jsonEscape(const char *s)
{
    std::string out;
    for (; *s; ++s) {
        const char c = *s;
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20)
            continue; // control characters never appear in our names.
        out.push_back(c);
    }
    return out;
}

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::~Tracer()
{
    stop();
}

bool
Tracer::start(const std::string &path)
{
    MutexGuard lock(mutex_);
    if (out_) {
        warn("trace already active; ignoring start('%s')", path.c_str());
        return false;
    }
    out_ = std::fopen(path.c_str(), "w");
    if (!out_) {
        warn("cannot open trace file '%s'", path.c_str());
        return false;
    }
    std::fputs("[\n", out_);
    firstEvent_ = true;
    eventsSinceFlush_ = 0;
    epoch_ = std::chrono::steady_clock::now();
    active_.store(true, std::memory_order_relaxed);
    return true;
}

void
Tracer::stop()
{
    MutexGuard lock(mutex_);
    if (!out_)
        return;
    active_.store(false, std::memory_order_relaxed);
    std::fputs("\n]\n", out_);
    std::fclose(out_);
    out_ = nullptr;
}

double
Tracer::elapsedUs() const
{
    const auto dt = std::chrono::steady_clock::now() - epoch_;
    return std::chrono::duration<double, std::micro>(dt).count();
}

void
Tracer::emitLocked(const char *name, const char *cat, char phase,
                   const char *extra, double tsUs)
{
    if (!out_)
        return;
    if (!firstEvent_)
        std::fputs(",\n", out_);
    firstEvent_ = false;
    std::fprintf(out_,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                 "\"ts\":%.3f,\"pid\":1,\"tid\":%d%s}",
                 jsonEscape(name).c_str(), cat, phase,
                 tsUs < 0.0 ? elapsedUs() : tsUs, currentTid(), extra);
    // Crash safety: a process that dies mid-run still leaves a
    // mostly-complete trace on disk (bounded staleness, not per-event
    // flushing — that would dominate the emit cost).
    if (++eventsSinceFlush_ >= 128) {
        eventsSinceFlush_ = 0;
        std::fflush(out_);
    }
}

void
Tracer::begin(const char *name, const char *cat)
{
    MutexGuard lock(mutex_);
    emitLocked(name, cat, 'B', "");
}

void
Tracer::end(const char *name, const char *cat)
{
    MutexGuard lock(mutex_);
    emitLocked(name, cat, 'E', "");
}

void
Tracer::instant(const char *name, const char *cat)
{
    MutexGuard lock(mutex_);
    emitLocked(name, cat, 'i', ",\"s\":\"t\"");
}

void
Tracer::counter(const char *name, double value,
                const std::string &series)
{
    char number[32];
    std::snprintf(number, sizeof(number), "%.6g", value);
    const std::string extra =
        ",\"args\":{\"" + jsonEscape(series.c_str()) + "\":" + number + "}";
    MutexGuard lock(mutex_);
    emitLocked(name, "counter", 'C', extra.c_str());
}

void
Tracer::asyncSpan(const char *name, const char *cat, char phase,
                  uint64_t id,
                  std::chrono::steady_clock::time_point when)
{
    char extra[48];
    std::snprintf(extra, sizeof(extra), ",\"id\":\"0x%" PRIx64 "\"",
                  id);
    MutexGuard lock(mutex_);
    const double tsUs =
        std::chrono::duration<double, std::micro>(when - epoch_)
            .count();
    // Clamp to the trace epoch: a span boundary captured before
    // start() would otherwise render with a negative timestamp.
    emitLocked(name, cat, phase, extra, tsUs < 0.0 ? 0.0 : tsUs);
}

} // namespace neuro
