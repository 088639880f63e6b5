/**
 * @file
 * Pure logic of the repository benchmark (perfbench/driver.cc), kept
 * apart from the workloads so tests can pin it without a server or a
 * model: percentile selection, span self time, the seeded Poisson
 * arrival schedule and the wire-response checker.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Highest percentile, in tenths of a percent, from the ladder
 * {99.9, 99, 90, 50} that leaves at least ten of @p n samples beyond
 * it under the nearest-rank rule; 0 when even the median does not.
 */
int tailPermille(std::size_t n);

/**
 * Nearest-rank percentile of @p sorted (ascending): the value at
 * 1-based rank ceil(permille * n / 1000). @p sorted must be non-empty.
 */
double percentileSorted(const std::vector<double> &sorted, int permille);

/** @return the median of @p values (sorts a copy); 0 when empty. */
double median(std::vector<double> values);

/** One recorded interval. Spans of one request share an id. */
struct Span
{
    std::string name;
    uint64_t id = 0;    ///< request or repetition id.
    int parent = -1;    ///< index of the enclosing span; -1 = root.
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/**
 * Self time of every span: its duration minus the durations of its
 * direct children. Children are expected to be disjoint and inside
 * their parent.
 */
std::vector<int64_t> selfTimesNs(const std::vector<Span> &spans);

/** In-memory span store; written out once when the run ends. */
class Tracer
{
  public:
    /** Record a finished span. @return its index (a parent handle). */
    int add(std::string name, uint64_t id, int parent, int64_t startNs,
            int64_t endNs);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as a Chrome trace ("ph":"X") JSON file.
     *  @return false when the file cannot be written. */
    bool writeChromeJson(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/**
 * Open-loop Poisson arrival offsets in nanoseconds from the phase
 * start, for @p rateReqS over @p durationS, drawn from @p seed alone.
 */
std::vector<int64_t> poissonScheduleNs(double rateReqS, double durationS,
                                       uint64_t seed);

/** Terminal status of one wire request as the client saw it. */
enum class WireStatus
{
    Ok,
    Shed,  ///< Rejected or Expired by admission control.
    Error, ///< BadFrame / UnknownModel.
};

/**
 * Tallies one phase's responses against the in-process answers. A
 * failure is a wrong class, an error status, a duplicate or unknown
 * response id, a response never received, or — when shedding is not
 * expected in the phase — a shed request.
 */
class WireCheck
{
  public:
    WireCheck(std::size_t sent, bool shedAllowed);

    /** Account one response for request @p id. */
    void record(uint64_t id, WireStatus status, int classIndex,
                int expectedClass);

    /** @return failed requests, counting never-answered ones. */
    uint64_t failed() const;

    /** @return requests never answered. */
    uint64_t lost() const;

    uint64_t ok() const { return ok_; }
    uint64_t shed() const { return shed_; }
    uint64_t sent() const { return seen_.size(); }

  private:
    std::vector<uint8_t> seen_;
    bool shedAllowed_;
    uint64_t answered_ = 0;
    uint64_t ok_ = 0;
    uint64_t shed_ = 0;
    uint64_t bad_ = 0;
};

} // namespace perfbench
