#include "neuro/net/protocol.h"

#include <bit>
#include <cstdio>
#include <cstring>

namespace neuro {
namespace net {

namespace {

// Explicit little-endian byte serialization: the wire format is
// defined in bytes, not in host integers, so the codec is correct on
// any endianness without #ifdefs.

void
putU16(std::vector<uint8_t> *out, uint16_t v)
{
    out->push_back(static_cast<uint8_t>(v & 0xFFU));
    out->push_back(static_cast<uint8_t>((v >> 8) & 0xFFU));
}

void
putU32(std::vector<uint8_t> *out, uint32_t v)
{
    for (int shift = 0; shift < 32; shift += 8)
        out->push_back(static_cast<uint8_t>((v >> shift) & 0xFFU));
}

void
putU64(std::vector<uint8_t> *out, uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8)
        out->push_back(static_cast<uint8_t>((v >> shift) & 0xFFU));
}

void
putF32(std::vector<uint8_t> *out, float v)
{
    putU32(out, std::bit_cast<uint32_t>(v));
}

uint16_t
getU16(const uint8_t *p)
{
    return static_cast<uint16_t>(static_cast<uint16_t>(p[0]) |
                                 static_cast<uint16_t>(p[1]) << 8);
}

uint32_t
getU32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

uint64_t
getU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

float
getF32(const uint8_t *p)
{
    return std::bit_cast<float>(getU32(p));
}

bool
fail(std::string *error, const std::string &what)
{
    if (error != nullptr)
        *error = what;
    return false;
}

/** Shared magic/version validation of both payload kinds. */
bool
checkPreamble(const uint8_t *payload, std::size_t size,
              std::size_t minSize, const char *kind, std::string *error)
{
    if (size < minSize) {
        return fail(error, std::string(kind) + " payload truncated (" +
                               std::to_string(size) + " < " +
                               std::to_string(minSize) + " bytes)");
    }
    if (getU32(payload) != kMagic)
        return fail(error, std::string(kind) + " payload has bad magic");
    const uint16_t version = getU16(payload + 4);
    if (version != kVersion) {
        return fail(error, std::string(kind) + " payload version " +
                               std::to_string(version) +
                               " unsupported (this build speaks " +
                               std::to_string(kVersion) + ")");
    }
    return true;
}

} // namespace

const char *
frameStatusName(FrameStatus status)
{
    switch (status) {
    case FrameStatus::Ok: return "ok";
    case FrameStatus::Rejected: return "rejected";
    case FrameStatus::Expired: return "expired";
    case FrameStatus::BadFrame: return "bad_frame";
    case FrameStatus::UnknownModel: return "unknown_model";
    }
    return "unknown";
}

void
encodeRequest(const RequestFrame &frame, std::vector<uint8_t> *out)
{
    const std::size_t payloadLen = kRequestHeaderBytes +
                                   frame.model.size() +
                                   4 * frame.pixels.size();
    out->reserve(out->size() + 4 + payloadLen);
    putU32(out, static_cast<uint32_t>(payloadLen));
    putU32(out, kMagic);
    putU16(out, kVersion);
    putU16(out, static_cast<uint16_t>(frame.model.size()));
    putU64(out, frame.id);
    putU64(out, frame.streamSeed);
    putU32(out, frame.deadlineMicros);
    putU32(out, static_cast<uint32_t>(frame.pixels.size()));
    out->insert(out->end(), frame.model.begin(), frame.model.end());
    for (const float v : frame.pixels)
        putF32(out, v);
}

void
encodeResponse(const ResponseFrame &frame, std::vector<uint8_t> *out)
{
    out->reserve(out->size() + 4 + kResponseBytes);
    putU32(out, static_cast<uint32_t>(kResponseBytes));
    putU32(out, kMagic);
    putU16(out, kVersion);
    putU16(out, static_cast<uint16_t>(frame.status));
    putU64(out, frame.id);
    putU32(out, std::bit_cast<uint32_t>(frame.classIndex));
    putU32(out, frame.batchSize);
    putF32(out, frame.queueMicros);
    putF32(out, frame.batchMicros);
    putF32(out, frame.computeMicros);
    putF32(out, frame.totalMicros);
}

bool
parseRequest(const uint8_t *payload, std::size_t size,
             RequestFrame *out, std::string *error)
{
    if (!checkPreamble(payload, size, kRequestHeaderBytes, "request",
                       error))
        return false;
    const uint16_t nameLen = getU16(payload + 6);
    out->id = getU64(payload + 8);
    out->streamSeed = getU64(payload + 16);
    out->deadlineMicros = getU32(payload + 24);
    const uint32_t pixelCount = getU32(payload + 28);
    if (nameLen > kMaxNameBytes)
        return fail(error, "request model name exceeds " +
                               std::to_string(kMaxNameBytes) + " bytes");
    if (pixelCount > kMaxPixels)
        return fail(error, "request pixel count " +
                               std::to_string(pixelCount) + " exceeds " +
                               std::to_string(kMaxPixels));
    const std::size_t expect = kRequestHeaderBytes + nameLen +
                               std::size_t{4} * pixelCount;
    if (size != expect) {
        return fail(error, "request payload is " + std::to_string(size) +
                               " bytes, header describes " +
                               std::to_string(expect));
    }
    out->model.assign(reinterpret_cast<const char *>(payload) +
                          kRequestHeaderBytes,
                      nameLen);
    out->pixels.resize(pixelCount);
    const uint8_t *p = payload + kRequestHeaderBytes + nameLen;
    for (uint32_t i = 0; i < pixelCount; ++i, p += 4)
        out->pixels[i] = getF32(p);
    return true;
}

bool
parseResponse(const uint8_t *payload, std::size_t size,
              ResponseFrame *out, std::string *error)
{
    if (!checkPreamble(payload, size, kResponseBytes, "response", error))
        return false;
    if (size != kResponseBytes) {
        return fail(error, "response payload is " +
                               std::to_string(size) + " bytes, expected " +
                               std::to_string(kResponseBytes));
    }
    const uint16_t status = getU16(payload + 6);
    if (status > static_cast<uint16_t>(FrameStatus::UnknownModel)) {
        return fail(error, "response status " + std::to_string(status) +
                               " unknown");
    }
    out->status = static_cast<FrameStatus>(status);
    out->id = getU64(payload + 8);
    out->classIndex = std::bit_cast<int32_t>(getU32(payload + 16));
    out->batchSize = getU32(payload + 20);
    out->queueMicros = getF32(payload + 24);
    out->batchMicros = getF32(payload + 28);
    out->computeMicros = getF32(payload + 32);
    out->totalMicros = getF32(payload + 36);
    return true;
}

void
FrameDecoder::feed(const uint8_t *data, std::size_t n)
{
    if (failed_)
        return; // the connection is doomed; don't buffer more.
    // Reclaim consumed prefix before growing: the buffer then stays
    // bounded by one frame plus one read chunk.
    if (readPos_ > 0 && readPos_ == buffer_.size()) {
        buffer_.clear();
        readPos_ = 0;
    } else if (readPos_ > kDefaultMaxFrameBytes) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<std::ptrdiff_t>(readPos_));
        readPos_ = 0;
    }
    buffer_.insert(buffer_.end(), data, data + n);
}

FrameDecoder::Result
FrameDecoder::next(std::vector<uint8_t> *payload)
{
    if (failed_)
        return Result::Error;
    if (buffered() < 4)
        return Result::NeedMore;
    const uint8_t *base = buffer_.data() + readPos_;
    const uint32_t len = getU32(base);
    // The smallest well-formed payload is a request header with no
    // name and no pixels (32 bytes); a shorter (or absurdly long)
    // length prefix means the stream is corrupt or hostile, and a
    // byte stream cannot resynchronize past it.
    if (len < kRequestHeaderBytes || len > kDefaultMaxFrameBytes) {
        failed_ = true;
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "frame length %u outside [%zu, %zu]", len,
                      kRequestHeaderBytes, kDefaultMaxFrameBytes);
        error_ = buf;
        return Result::Error;
    }
    if (buffered() < 4 + static_cast<std::size_t>(len))
        return Result::NeedMore;
    payload->assign(base + 4, base + 4 + len);
    readPos_ += 4 + static_cast<std::size_t>(len);
    return Result::Frame;
}

} // namespace net
} // namespace neuro
