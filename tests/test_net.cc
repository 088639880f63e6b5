// Tests for the network serving front end: frame codec round trips
// and rejection of malformed frames (truncated headers, oversize
// lengths, magic/version/length-field disagreements), FrameDecoder
// reassembly with the stream split at every byte boundary and with
// several frames concatenated into one read, multi-model routing
// (unknown names, pixel-count mismatches), loopback request/response
// over a real socket, drain-first shutdown, per-model registry
// series (`serve.completed{model=...}`), and the acceptance
// criterion that predictions over the wire are bit-identical to
// in-process serving for the same model and seed.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "neuro/net/client.h"
#include "neuro/net/frontend.h"
#include "neuro/net/protocol.h"
#include "neuro/net/server.h"
#include "neuro/serve/backend.h"
#include "neuro/serve/registry.h"
#include "neuro/serve/server.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace {

using net::FrameDecoder;
using net::FrameStatus;
using net::RequestFrame;
using net::ResponseFrame;

/**
 * Deterministic test backend: classify() = (pixels[0] + streamSeed)
 * mod numClasses, the same stub shape test_serve uses — predictions
 * are a pure function of the request, so wire-vs-in-process
 * comparisons are exact.
 */
class StubBackend final : public serve::InferenceBackend
{
  public:
    explicit StubBackend(int bias = 0) : bias_(bias) {}

    serve::BackendKind
    kind() const override
    {
        return serve::BackendKind::Mlp;
    }
    std::size_t inputSize() const override { return 4; }
    int numClasses() const override { return 16; }
    std::unique_ptr<serve::BackendSession>
    newSession() const override
    {
        return std::make_unique<Session>(bias_);
    }

  private:
    class Session final : public serve::BackendSession
    {
      public:
        explicit Session(int bias) : bias_(bias) {}

        int
        classify(const uint8_t *pixels, std::size_t /*numPixels*/,
                 uint64_t streamSeed) override
        {
            return static_cast<int>(
                (pixels[0] + streamSeed +
                 static_cast<uint64_t>(bias_)) %
                16);
        }

      private:
        int bias_;
    };

    int bias_;
};

RequestFrame
makeRequest(uint64_t id, const std::string &model = "stub")
{
    RequestFrame frame;
    frame.id = id;
    frame.streamSeed = id * 31 + 7;
    frame.model = model;
    frame.pixels = {static_cast<float>(id % 251), 1.0F, 2.0F, 3.0F};
    return frame;
}

// --- codec ---------------------------------------------------------

TEST(NetProtocol, RequestRoundTrip)
{
    RequestFrame in;
    in.id = 0xDEADBEEFCAFEF00DULL;
    in.streamSeed = 42;
    in.deadlineMicros = 1500;
    in.model = "glyphs.q8";
    in.pixels = {0.0F, 255.0F, 17.5F, 3.0F};
    std::vector<uint8_t> wire;
    encodeRequest(in, &wire);

    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    std::vector<uint8_t> payload;
    ASSERT_EQ(decoder.next(&payload), FrameDecoder::Result::Frame);

    RequestFrame out;
    std::string error;
    ASSERT_TRUE(
        net::parseRequest(payload.data(), payload.size(), &out, &error))
        << error;
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.streamSeed, in.streamSeed);
    EXPECT_EQ(out.deadlineMicros, in.deadlineMicros);
    EXPECT_EQ(out.model, in.model);
    EXPECT_EQ(out.pixels, in.pixels);
    EXPECT_EQ(decoder.next(&payload), FrameDecoder::Result::NeedMore);
    EXPECT_EQ(decoder.buffered(), 0U);
}

TEST(NetProtocol, ResponseRoundTrip)
{
    ResponseFrame in;
    in.id = 77;
    in.status = FrameStatus::Expired;
    in.classIndex = -1;
    in.batchSize = 8;
    in.queueMicros = 12.5F;
    in.batchMicros = 3.25F;
    in.computeMicros = 890.0F;
    in.totalMicros = 905.75F;
    std::vector<uint8_t> wire;
    encodeResponse(in, &wire);
    ASSERT_EQ(wire.size(), 4U + net::kResponseBytes);

    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    std::vector<uint8_t> payload;
    ASSERT_EQ(decoder.next(&payload), FrameDecoder::Result::Frame);

    ResponseFrame out;
    std::string error;
    ASSERT_TRUE(net::parseResponse(payload.data(), payload.size(),
                                   &out, &error))
        << error;
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.status, in.status);
    EXPECT_EQ(out.classIndex, in.classIndex);
    EXPECT_EQ(out.batchSize, in.batchSize);
    EXPECT_EQ(out.queueMicros, in.queueMicros);
    EXPECT_EQ(out.batchMicros, in.batchMicros);
    EXPECT_EQ(out.computeMicros, in.computeMicros);
    EXPECT_EQ(out.totalMicros, in.totalMicros);
}

TEST(NetProtocol, TruncatedHeaderIsNotAFrame)
{
    std::vector<uint8_t> wire;
    encodeRequest(makeRequest(1), &wire);
    // Every strict prefix — including mid-length-prefix and
    // mid-header cuts — must yield NeedMore, never a frame or error.
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        FrameDecoder decoder;
        decoder.feed(wire.data(), cut);
        std::vector<uint8_t> payload;
        EXPECT_EQ(decoder.next(&payload),
                  FrameDecoder::Result::NeedMore)
            << "cut at " << cut;
    }
}

TEST(NetProtocol, OversizeLengthLatchesError)
{
    const uint32_t huge = 1U << 30;
    std::vector<uint8_t> wire;
    for (std::size_t i = 0; i < 4; ++i)
        wire.push_back(
            static_cast<uint8_t>((huge >> (8 * i)) & 0xFFU));
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    std::vector<uint8_t> payload;
    EXPECT_EQ(decoder.next(&payload), FrameDecoder::Result::Error);
    EXPECT_FALSE(decoder.error().empty());
    // The error is latched: feeding a valid frame afterwards cannot
    // resynchronize the stream.
    std::vector<uint8_t> good;
    encodeRequest(makeRequest(2), &good);
    decoder.feed(good.data(), good.size());
    EXPECT_EQ(decoder.next(&payload), FrameDecoder::Result::Error);
}

TEST(NetProtocol, UndersizeLengthLatchesError)
{
    // A length prefix below the fixed request header cannot hold a
    // well-formed payload of either kind.
    const uint32_t tiny = 4;
    std::vector<uint8_t> wire;
    for (std::size_t i = 0; i < 4; ++i)
        wire.push_back(
            static_cast<uint8_t>((tiny >> (8 * i)) & 0xFFU));
    wire.insert(wire.end(), 4, 0);
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    std::vector<uint8_t> payload;
    EXPECT_EQ(decoder.next(&payload), FrameDecoder::Result::Error);
}

TEST(NetProtocol, BadMagicAndVersionRejected)
{
    std::vector<uint8_t> wire;
    encodeRequest(makeRequest(3), &wire);
    RequestFrame out;
    std::string error;

    std::vector<uint8_t> corrupt(wire.begin() + 4, wire.end());
    corrupt[0] ^= 0xFFU; // magic
    EXPECT_FALSE(net::parseRequest(corrupt.data(), corrupt.size(),
                                   &out, &error));

    corrupt.assign(wire.begin() + 4, wire.end());
    corrupt[4] ^= 0xFFU; // version
    EXPECT_FALSE(net::parseRequest(corrupt.data(), corrupt.size(),
                                   &out, &error));
}

TEST(NetProtocol, PayloadLengthDisagreementRejected)
{
    std::vector<uint8_t> wire;
    encodeRequest(makeRequest(4), &wire);
    std::vector<uint8_t> payload(wire.begin() + 4, wire.end());
    RequestFrame out;
    std::string error;

    // Shorter than the header fields claim.
    EXPECT_FALSE(net::parseRequest(payload.data(), payload.size() - 1,
                                   &out, &error));
    // Longer than they claim.
    std::vector<uint8_t> padded = payload;
    padded.push_back(0);
    EXPECT_FALSE(net::parseRequest(padded.data(), padded.size(), &out,
                                   &error));
}

TEST(NetProtocol, SplitAtEveryByteBoundary)
{
    std::vector<uint8_t> wire;
    encodeRequest(makeRequest(5, "a-model-name"), &wire);
    const RequestFrame want = makeRequest(5, "a-model-name");
    for (std::size_t split = 1; split < wire.size(); ++split) {
        FrameDecoder decoder;
        std::vector<uint8_t> payload;
        decoder.feed(wire.data(), split);
        // The partial stream must never yield a frame early.
        ASSERT_EQ(decoder.next(&payload),
                  FrameDecoder::Result::NeedMore)
            << "split at " << split;
        decoder.feed(wire.data() + split, wire.size() - split);
        ASSERT_EQ(decoder.next(&payload), FrameDecoder::Result::Frame)
            << "split at " << split;
        RequestFrame out;
        std::string error;
        ASSERT_TRUE(net::parseRequest(payload.data(), payload.size(),
                                      &out, &error))
            << error;
        EXPECT_EQ(out.id, want.id);
        EXPECT_EQ(out.model, want.model);
        EXPECT_EQ(out.pixels, want.pixels);
    }
}

TEST(NetProtocol, ConcatenatedFramesInOneRead)
{
    std::vector<uint8_t> wire;
    const std::size_t kFrames = 5;
    for (uint64_t i = 0; i < kFrames; ++i)
        encodeRequest(makeRequest(100 + i), &wire);
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size()); // one "recv" of them all.
    std::vector<uint8_t> payload;
    for (uint64_t i = 0; i < kFrames; ++i) {
        ASSERT_EQ(decoder.next(&payload), FrameDecoder::Result::Frame)
            << "frame " << i;
        RequestFrame out;
        std::string error;
        ASSERT_TRUE(net::parseRequest(payload.data(), payload.size(),
                                      &out, &error))
            << error;
        EXPECT_EQ(out.id, 100 + i);
    }
    EXPECT_EQ(decoder.next(&payload), FrameDecoder::Result::NeedMore);
    EXPECT_EQ(decoder.buffered(), 0U);
}

TEST(NetProtocol, StatusNames)
{
    EXPECT_STREQ(net::frameStatusName(FrameStatus::Ok), "ok");
    EXPECT_STREQ(net::frameStatusName(FrameStatus::UnknownModel),
                 "unknown_model");
}

// --- frontend routing ---------------------------------------------

TEST(NetFrontend, RoutesByModelAndFlagsUnknown)
{
    serve::ModelRegistry registry;
    registry.add("m0", std::make_shared<StubBackend>(0));
    registry.add("m1", std::make_shared<StubBackend>(5));
    net::ServeFrontend frontend(registry, serve::ServeConfig{});
    EXPECT_EQ(frontend.models(),
              (std::vector<std::string>{"m0", "m1"}));

    auto ask = [&](const std::string &model, uint64_t id) {
        std::promise<ResponseFrame> promise;
        auto future = promise.get_future();
        frontend.submit(makeRequest(id, model),
                        [&promise](ResponseFrame &&response) {
                            promise.set_value(std::move(response));
                        });
        return future.get();
    };

    const ResponseFrame r0 = ask("m0", 9);
    ASSERT_EQ(r0.status, FrameStatus::Ok);
    const ResponseFrame r1 = ask("m1", 9);
    ASSERT_EQ(r1.status, FrameStatus::Ok);
    // Same request, different model: the bias separates the routes.
    EXPECT_EQ((r0.classIndex + 5) % 16, r1.classIndex);

    const ResponseFrame bad = ask("no-such-model", 10);
    EXPECT_EQ(bad.status, FrameStatus::UnknownModel);
    EXPECT_EQ(bad.id, 10U);
}

TEST(NetFrontend, PixelCountMismatchIsBadFrame)
{
    serve::ModelRegistry registry;
    registry.add("stub", std::make_shared<StubBackend>());
    net::ServeFrontend frontend(registry, serve::ServeConfig{});
    RequestFrame frame = makeRequest(11);
    frame.pixels.resize(7); // backend inputSize() is 4.
    std::promise<ResponseFrame> promise;
    auto future = promise.get_future();
    frontend.submit(std::move(frame),
                    [&promise](ResponseFrame &&response) {
                        promise.set_value(std::move(response));
                    });
    EXPECT_EQ(future.get().status, FrameStatus::BadFrame);
}

TEST(NetFrontend, PerModelSeriesCountEachModelsCompletions)
{
    // Model names unique to this test: the frontend labels each
    // server's series with its model name, and a label's series are
    // shared process-wide.
    const std::string names[2] = {"series.m0", "series.m1"};
    const uint64_t sent[2] = {7, 3};
    serve::ModelRegistry registry;
    registry.add(names[0], std::make_shared<StubBackend>(0));
    registry.add(names[1], std::make_shared<StubBackend>(5));
    net::ServeFrontend frontend(registry, serve::ServeConfig{});

    std::vector<std::future<ResponseFrame>> responses[2];
    for (int m = 0; m < 2; ++m) {
        for (uint64_t id = 0; id < sent[m]; ++id) {
            auto promise = std::make_shared<std::promise<ResponseFrame>>();
            responses[m].push_back(promise->get_future());
            frontend.submit(makeRequest(id, names[m]),
                            [promise](ResponseFrame &&response) {
                                promise->set_value(std::move(response));
                            });
        }
    }
    uint64_t ok[2] = {0, 0};
    for (int m = 0; m < 2; ++m) {
        for (auto &f : responses[m])
            ok[m] += f.get().status == FrameStatus::Ok ? 1 : 0;
    }
    frontend.stop(); // joins the dispatchers: counts are final.

    auto &reg = telemetry::MetricRegistry::instance();
    for (int m = 0; m < 2; ++m) {
        EXPECT_EQ(ok[m], sent[m]) << names[m];
        EXPECT_EQ(reg.counter("serve.completed", names[m])->value(),
                  ok[m])
            << names[m];
        const serve::ServeCounters c =
            frontend.server(names[m])->counters();
        EXPECT_EQ(c.completed, ok[m]) << names[m];
        EXPECT_EQ(c.enqueued, sent[m]) << names[m];
        EXPECT_EQ(frontend.server(names[m])->latency().count(), ok[m])
            << names[m];
    }
}

// --- loopback over a real socket ----------------------------------

/** Frontend + server + connected client on an ephemeral port. */
struct Loopback
{
    serve::ModelRegistry registry;
    std::unique_ptr<net::ServeFrontend> frontend;
    std::unique_ptr<net::NetServer> server;
    net::NetClient client;

    explicit Loopback(const serve::ServeConfig &config = {})
    {
        registry.add("stub", std::make_shared<StubBackend>());
        frontend =
            std::make_unique<net::ServeFrontend>(registry, config);
        server = std::make_unique<net::NetServer>(*frontend);
        std::string error;
        if (!server->start(&error))
            ADD_FAILURE() << "server start failed: " << error;
        if (!client.connect("127.0.0.1", server->port(), &error))
            ADD_FAILURE() << "client connect failed: " << error;
    }
};

TEST(NetLoopback, RoundTrip)
{
    Loopback loop;
    std::string error;
    for (uint64_t id = 1; id <= 32; ++id) {
        ASSERT_TRUE(loop.client.sendRequest(makeRequest(id), &error))
            << error;
    }
    for (uint64_t id = 1; id <= 32; ++id) {
        ResponseFrame response;
        ASSERT_TRUE(loop.client.readResponse(&response, &error))
            << error;
        // Responses come back in submission order on one connection
        // (single model, in-order batching).
        EXPECT_EQ(response.id, id);
        ASSERT_EQ(response.status, FrameStatus::Ok);
        const uint64_t seed = id * 31 + 7;
        EXPECT_EQ(response.classIndex,
                  static_cast<int32_t>((id % 251 + seed) % 16));
        EXPECT_GE(response.totalMicros, 0.0F);
        EXPECT_GE(response.batchSize, 1U);
    }
}

TEST(NetLoopback, UnknownModelOverTheWire)
{
    Loopback loop;
    std::string error;
    ASSERT_TRUE(loop.client.sendRequest(
                    makeRequest(1, "never-registered"), &error))
        << error;
    ResponseFrame response;
    ASSERT_TRUE(loop.client.readResponse(&response, &error)) << error;
    EXPECT_EQ(response.status, FrameStatus::UnknownModel);
    EXPECT_EQ(response.id, 1U);
}

TEST(NetLoopback, WirePredictionsMatchInProcessServing)
{
    // Acceptance criterion: for the same model and per-request seeds,
    // predictions over the wire are bit-identical to in-process
    // serving.
    auto backend = std::make_shared<StubBackend>();
    serve::InferenceServer inProcess(backend);

    Loopback loop;
    std::string error;
    const uint64_t kRequests = 64;
    for (uint64_t id = 1; id <= kRequests; ++id) {
        ASSERT_TRUE(loop.client.sendRequest(makeRequest(id), &error))
            << error;
    }
    for (uint64_t id = 1; id <= kRequests; ++id) {
        ResponseFrame wire;
        ASSERT_TRUE(loop.client.readResponse(&wire, &error)) << error;
        ASSERT_EQ(wire.status, FrameStatus::Ok);

        const RequestFrame frame = makeRequest(id);
        serve::InferenceRequest request;
        request.id = frame.id;
        request.streamSeed = frame.streamSeed;
        request.pixels.assign(frame.pixels.size(), 0);
        for (std::size_t i = 0; i < frame.pixels.size(); ++i)
            request.pixels[i] =
                static_cast<uint8_t>(frame.pixels[i]);
        const serve::InferenceResult local =
            inProcess.submit(std::move(request)).get();
        ASSERT_EQ(local.status, serve::RequestStatus::Ok);
        EXPECT_EQ(wire.classIndex,
                  static_cast<int32_t>(local.classIndex))
            << "id " << id;
    }
}

TEST(NetLoopback, MalformedLengthPrefixGetsBadFrameThenClose)
{
    Loopback loop;
    // A corrupt length prefix (0xFFFFFFFF) cannot be resynchronized:
    // the server answers one BadFrame and closes the connection. The
    // raw bytes go out on a hand-made socket because NetClient only
    // speaks well-formed frames.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(loop.server->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(
                  fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr),
              0);
    const uint8_t junk[8] = {0xFF, 0xFF, 0xFF, 0xFF,
                             0,    0,    0,    0};
    ASSERT_EQ(::send(fd, junk, sizeof junk, 0),
              static_cast<ssize_t>(sizeof junk));

    // Read the whole server side of the stream: exactly one BadFrame
    // response, then EOF as the server drops the connection.
    std::vector<uint8_t> bytes;
    uint8_t buf[1024];
    for (;;) {
        const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
        if (r <= 0)
            break;
        bytes.insert(bytes.end(), buf, buf + r);
    }
    ::close(fd);
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    std::vector<uint8_t> payload;
    ASSERT_EQ(decoder.next(&payload), FrameDecoder::Result::Frame);
    ResponseFrame response;
    std::string error;
    ASSERT_TRUE(net::parseResponse(payload.data(), payload.size(),
                                   &response, &error))
        << error;
    EXPECT_EQ(response.status, FrameStatus::BadFrame);
    EXPECT_EQ(decoder.next(&payload), FrameDecoder::Result::NeedMore);
    EXPECT_EQ(decoder.buffered(), 0U);
}

TEST(NetLoopback, ShutdownDrainsInFlightRequests)
{
    auto loop = std::make_unique<Loopback>();
    std::string error;
    const uint64_t kRequests = 16;
    for (uint64_t id = 1; id <= kRequests; ++id) {
        ASSERT_TRUE(loop->client.sendRequest(makeRequest(id), &error))
            << error;
    }
    // Half-close: the server sees EOF once the frames are consumed,
    // but must still answer every one before dropping the connection.
    loop->client.shutdownWrite();
    uint64_t answered = 0;
    ResponseFrame response;
    while (loop->client.readResponse(&response, &error)) {
        EXPECT_EQ(response.status, FrameStatus::Ok);
        ++answered;
    }
    EXPECT_EQ(answered, kRequests);
    loop->server->stop();
    EXPECT_EQ(loop->server->connectionCount(), 0U);
}

TEST(NetLoopback, RequestStopIsObservable)
{
    Loopback loop;
    EXPECT_FALSE(loop.server->stopRequested());
    loop.server->requestStop(); // the signal-handler half.
    EXPECT_TRUE(loop.server->stopRequested());
    loop.server->stop(); // the normal-context half.
}

TEST(NetLoopback, TwoClientsTwoModels)
{
    serve::ModelRegistry registry;
    registry.add("m0", std::make_shared<StubBackend>(0));
    registry.add("m1", std::make_shared<StubBackend>(5));
    net::ServeFrontend frontend(registry, serve::ServeConfig{});
    net::NetServer server(frontend);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    auto drive = [&](const std::string &model, int bias) {
        net::NetClient client;
        std::string err;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &err))
            << err;
        for (uint64_t id = 1; id <= 16; ++id)
            ASSERT_TRUE(
                client.sendRequest(makeRequest(id, model), &err))
                << err;
        for (uint64_t id = 1; id <= 16; ++id) {
            ResponseFrame response;
            ASSERT_TRUE(client.readResponse(&response, &err)) << err;
            ASSERT_EQ(response.status, FrameStatus::Ok);
            const uint64_t seed = id * 31 + 7;
            EXPECT_EQ(response.classIndex,
                      static_cast<int32_t>(
                          (id % 251 + seed +
                           static_cast<uint64_t>(bias)) %
                          16));
        }
    };
    std::thread t0([&] { drive("m0", 0); });
    std::thread t1([&] { drive("m1", 5); });
    t0.join();
    t1.join();
    server.stop();
}

} // namespace
} // namespace neuro
