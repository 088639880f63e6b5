/**
 * @file
 * Wire protocol of the network serving front end (docs/serving.md,
 * "Network protocol"): length-prefixed binary frames over a stream
 * transport (TCP). Every frame is
 *
 *     u32 payloadLen | payload (payloadLen bytes)
 *
 * with all integers and floats little-endian on the wire. A request
 * payload carries magic + version, the target model name, per-request
 * id / stream seed / relative deadline, and the sample as f32 pixels;
 * a response payload carries the prediction, the per-stage latency
 * decomposition the serving runtime measured (queue/batch/compute,
 * docs/observability.md) and a FrameStatus — Ok, the serving
 * runtime's Rejected/Expired admission outcomes, or the
 * protocol-level BadFrame/UnknownModel errors.
 *
 * FrameDecoder does the transport-side work: it accumulates whatever
 * byte chunks recv() produced (partial frames, frames split at any
 * byte boundary, several frames concatenated in one read) and yields
 * complete payloads, rejecting oversize or malformed length prefixes
 * before any allocation proportional to the claimed length.
 * parseRequest()/parseResponse() then validate a payload's magic,
 * version, bounds and exact length.
 *
 * Pixels travel as f32 so future datasets are not clamped to 8-bit
 * luminance; the front end converts to the backends' uint8 domain
 * with round-to-nearest, which is exact for every integral value in
 * [0, 255] — the conversion keeps wire predictions bit-identical to
 * in-process serving for byte-valued samples.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace neuro {
namespace net {

/** Frame magic ("NRN1" when read as little-endian bytes). */
constexpr uint32_t kMagic = 0x314E524EU;

/** Protocol version this build speaks. */
constexpr uint16_t kVersion = 1;

/** Fixed request-payload prefix before the name/pixel tails. */
constexpr std::size_t kRequestHeaderBytes = 32;

/** Exact response-payload size. */
constexpr std::size_t kResponseBytes = 40;

/** Longest accepted model name. */
constexpr std::size_t kMaxNameBytes = 256;

/** Most pixels a request may carry (1M f32 = 4 MiB payload). */
constexpr std::size_t kMaxPixels = 1U << 20;

/** FrameDecoder's bound on one frame's payload length. */
constexpr std::size_t kDefaultMaxFrameBytes =
    kRequestHeaderBytes + kMaxNameBytes + 4 * kMaxPixels;

/** Terminal disposition of a request, as sent on the wire. */
enum class FrameStatus : uint16_t
{
    Ok = 0,           ///< classified; classIndex is valid.
    Rejected = 1,     ///< admission control refused (queue full/closed).
    Expired = 2,      ///< deadline passed before a worker got to it.
    BadFrame = 3,     ///< malformed frame or pixel-count mismatch.
    UnknownModel = 4, ///< no registered model under that name.
};

/** @return a printable name ("ok", "rejected", ...). */
const char *frameStatusName(FrameStatus status);

/** One decoded inference request frame. */
struct RequestFrame
{
    uint64_t id = 0;            ///< echoed verbatim in the response.
    uint64_t streamSeed = 0;    ///< per-request random stream seed.
    /** Relative deadline in microseconds from server receipt;
     *  0 = no deadline. */
    uint32_t deadlineMicros = 0;
    std::string model;          ///< routing key (ModelRegistry name).
    std::vector<float> pixels;  ///< the sample, f32 per pixel.
};

/** One decoded inference response frame. */
struct ResponseFrame
{
    uint64_t id = 0;
    FrameStatus status = FrameStatus::BadFrame;
    int32_t classIndex = -1;    ///< predicted class (Ok only).
    uint32_t batchSize = 0;     ///< size of the batch it rode in.
    float queueMicros = 0.0F;   ///< enqueue -> dequeued for batching.
    float batchMicros = 0.0F;   ///< dequeue -> batch compute start.
    float computeMicros = 0.0F; ///< backend compute -> completion.
    float totalMicros = 0.0F;   ///< enqueue -> completion.
};

/** Append @p frame (length prefix + payload) to @p out. */
void encodeRequest(const RequestFrame &frame, std::vector<uint8_t> *out);

/** Append @p frame (length prefix + payload) to @p out. */
void encodeResponse(const ResponseFrame &frame,
                    std::vector<uint8_t> *out);

/**
 * Parse a complete request payload (as yielded by FrameDecoder).
 * @return false with @p error set on bad magic/version, oversize
 *         name or pixel count, or a payload whose length disagrees
 *         with its own header fields.
 */
bool parseRequest(const uint8_t *payload, std::size_t size,
                  RequestFrame *out, std::string *error);

/** Parse a complete response payload; see parseRequest(). */
bool parseResponse(const uint8_t *payload, std::size_t size,
                   ResponseFrame *out, std::string *error);

/**
 * Incremental frame reassembler over a byte stream. Not thread-safe;
 * each connection owns one. feed() appends whatever the transport
 * produced; next() yields complete payloads one at a time. A length
 * prefix exceeding kDefaultMaxFrameBytes (or shorter than the smallest
 * well-formed payload) is a protocol error: the decoder latches
 * Error and the connection must be torn down — byte streams cannot
 * resynchronize after a corrupt length.
 */
class FrameDecoder
{
  public:
    /** Outcome of one next() call. */
    enum class Result
    {
        NeedMore, ///< no complete frame buffered yet.
        Frame,    ///< *payload holds one complete frame payload.
        Error,    ///< corrupt length prefix; see error().
    };

    /** Append @p n transport bytes. */
    void feed(const uint8_t *data, std::size_t n);

    /** Extract the next complete payload into @p payload. */
    Result next(std::vector<uint8_t> *payload);

    /** @return the latched protocol error ("" if none). */
    const std::string &error() const { return error_; }

    /** @return bytes buffered but not yet yielded. */
    std::size_t buffered() const { return buffer_.size() - readPos_; }

  private:
    std::vector<uint8_t> buffer_;
    std::size_t readPos_ = 0;
    std::string error_;
    bool failed_ = false;
};

} // namespace net
} // namespace neuro
