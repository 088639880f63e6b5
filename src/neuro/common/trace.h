/**
 * @file
 * Structured trace-event sink emitting Chrome `trace_event` JSON
 * (open the file in Perfetto or chrome://tracing). The process-wide
 * Tracer records four kinds of events:
 *
 * - begin/end duration pairs bracketing profiled scopes
 *   (see NEURO_PROFILE_SCOPE in profile.h);
 * - instant events marking a point in time (a neuron fired, an SRAM
 *   array was built);
 * - counter events plotting a numeric series over time (spikes per
 *   tick, cumulative SRAM reads);
 * - async span events ('b'/'e' with an id) tracking one logical
 *   operation — e.g. one inference request — across threads and
 *   queues, with explicit (possibly backdated) timestamps captured
 *   where the stage boundary actually happened.
 *
 * Tracing is off by default and costs one relaxed atomic load per
 * call site. Start it by exporting `NEURO_TRACE=<path>`, which needs
 * no code changes in the binary (see profile.h), or explicitly with
 * Tracer::instance().start(path) (tests).
 *
 * Events are written one per line inside a JSON array; the writer is
 * thread-safe and timestamps (microseconds since start()) are taken
 * under the same lock that orders the writes, so file order is
 * timestamp order (async span events may carry earlier, backdated
 * timestamps — Perfetto sorts by ts, not file order). The stream is
 * fflush()ed every ~128 events so a crashed process still leaves a
 * mostly-complete trace (append a closing `]` by hand to load it).
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "neuro/common/mutex.h"

namespace neuro {

/** Process-wide Chrome trace_event JSON writer. */
class Tracer
{
  public:
    /** @return the process-wide tracer. */
    static Tracer &instance();

    /** @return true if the tracer is recording (cheap; callers should
     *  gate event construction on this). */
    static bool
    enabled()
    {
        return instance().active_.load(std::memory_order_relaxed);
    }

    /**
     * Open @p path and start recording. Returns false (and warns) if
     * the file cannot be opened or a trace is already active.
     */
    bool start(const std::string &path);

    /** Finish the JSON array and close the file. Idempotent. */
    void stop();

    /** Emit a duration-begin event for @p name. */
    void begin(const char *name, const char *cat = "scope");

    /** Emit the matching duration-end event for @p name. */
    void end(const char *name, const char *cat = "scope");

    /** Emit an instant (point-in-time) event. */
    void instant(const char *name, const char *cat = "event");

    /** Emit a counter event: plots @p value on the counter track
     *  @p name, as its @p series line (a model label, or "value"). */
    void counter(const char *name, double value,
                 const std::string &series = "value");

    /**
     * Emit an async-span event: @p phase is 'b' (span begin) or 'e'
     * (span end); events with the same @p id pair up into one span
     * lane regardless of which thread emits them. @p when is the
     * moment the boundary actually happened — it may predate the call
     * (a stage recorded after the fact), and must not predate start().
     */
    void asyncSpan(const char *name, const char *cat, char phase,
                   uint64_t id,
                   std::chrono::steady_clock::time_point when);

    ~Tracer();

  private:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Serialize one event line. @p tsUs is the event timestamp (us
     *  since start()), or a negative value to stamp "now". */
    void emitLocked(const char *name, const char *cat, char phase,
                    const char *extra, double tsUs = -1.0)
        NEURO_REQUIRES(mutex_);

    /** Microseconds since start(). */
    double elapsedUs() const NEURO_REQUIRES(mutex_);

    std::atomic<bool> active_{false};
    mutable Mutex mutex_;
    std::FILE *out_ NEURO_GUARDED_BY(mutex_) = nullptr;
    bool firstEvent_ NEURO_GUARDED_BY(mutex_) = true;
    int eventsSinceFlush_ NEURO_GUARDED_BY(mutex_) = 0;
    std::chrono::steady_clock::time_point
        epoch_ NEURO_GUARDED_BY(mutex_);
};

} // namespace neuro

