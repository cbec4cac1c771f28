/**
 * @file
 * Transport-layer tests (DESIGN.md §15.1): endpoint parsing, UDS and
 * TCP round trips through listenOn/connectTo, framing across partial
 * reads, the frame-size cap, ephemeral-port reporting, stale-socket
 * recovery, and the wake() contract the session layer's shutdown path
 * relies on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/service/protocol.hh"
#include "serve/service/service_handler.hh"
#include "serve/session/server.hh"
#include "serve/transport/transport.hh"

using namespace laperm;
using namespace laperm::serve;

namespace {

std::string
sockPath(const std::string &name)
{
    const std::string p = ::testing::TempDir() + "laperm_tx_" + name;
    std::filesystem::remove(p);
    return p;
}

/** One echo exchange over an established listener/client pair. */
void
expectEcho(Listener &listener, const Endpoint &ep)
{
    std::thread serverSide([&] {
        auto conn = listener.accept();
        ASSERT_NE(conn, nullptr);
        std::string line;
        ASSERT_TRUE(conn->readLine(line));
        ASSERT_TRUE(conn->writeAll("echo:" + line + "\n"));
    });
    std::string err;
    auto client = connectTo(ep, err);
    ASSERT_NE(client, nullptr) << err;
    ASSERT_TRUE(client->writeAll("hello\n"));
    std::string reply;
    ASSERT_TRUE(client->readLine(reply));
    EXPECT_EQ(reply, "echo:hello");
    serverSide.join();
}

} // namespace

// ---------------------------------------------------------- endpoints

TEST(Endpoint, ParsesSchemesAndBarePaths)
{
    Endpoint ep;
    std::string err;

    ASSERT_TRUE(parseEndpoint("unix:/tmp/x.sock", ep, err)) << err;
    EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(ep.path, "/tmp/x.sock");
    EXPECT_EQ(ep.toString(), "unix:/tmp/x.sock");

    ASSERT_TRUE(parseEndpoint("tcp:127.0.0.1:9000", ep, err)) << err;
    EXPECT_EQ(ep.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(ep.host, "127.0.0.1");
    EXPECT_EQ(ep.port, 9000);
    EXPECT_EQ(ep.toString(), "tcp:127.0.0.1:9000");

    // A bare string is a Unix socket path.
    ASSERT_TRUE(parseEndpoint("laperm_served.sock", ep, err)) << err;
    EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(ep.path, "laperm_served.sock");

    EXPECT_EQ(ep, Endpoint::unixAt("laperm_served.sock"));
    EXPECT_EQ(Endpoint::tcpAt("localhost", 80).toString(),
              "tcp:localhost:80");
}

TEST(Endpoint, RejectsMalformedSpellings)
{
    Endpoint ep;
    std::string err;
    for (const char *bad :
         {"", "unix:", "tcp:", "tcp:127.0.0.1", "tcp::9000",
          "tcp:127.0.0.1:", "tcp:127.0.0.1:notaport",
          "tcp:127.0.0.1:70000", "tcp:127.0.0.1:-1"}) {
        err.clear();
        EXPECT_FALSE(parseEndpoint(bad, ep, err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

// ----------------------------------------------------------- streams

TEST(Transport, UnixRoundTrip)
{
    const Endpoint ep = Endpoint::unixAt(sockPath("uds_rt.sock"));
    std::string err;
    auto listener = listenOn(ep, err);
    ASSERT_NE(listener, nullptr) << err;
    EXPECT_EQ(listener->boundEndpoint(), ep);
    expectEcho(*listener, ep);
}

TEST(Transport, TcpRoundTripOnEphemeralPort)
{
    // Port 0: the kernel picks; boundEndpoint() must report the real
    // port so clients can be pointed at it.
    std::string err;
    auto listener = listenOn(Endpoint::tcpAt("127.0.0.1", 0), err);
    ASSERT_NE(listener, nullptr) << err;
    const Endpoint bound = listener->boundEndpoint();
    EXPECT_EQ(bound.kind, Endpoint::Kind::Tcp);
    EXPECT_GT(bound.port, 0);
    expectEcho(*listener, bound);
}

TEST(Transport, FramingSurvivesCoalescedAndSplitWrites)
{
    const Endpoint ep = Endpoint::unixAt(sockPath("framing.sock"));
    std::string err;
    auto listener = listenOn(ep, err);
    ASSERT_NE(listener, nullptr) << err;

    std::thread serverSide([&] {
        auto conn = listener->accept();
        ASSERT_NE(conn, nullptr);
        // Two frames in one write, then one frame in two writes.
        ASSERT_TRUE(conn->writeAll("first\nsecond\n"));
        ASSERT_TRUE(conn->writeAll("thi"));
        ASSERT_TRUE(conn->writeAll("rd\n"));
    });
    auto client = connectTo(ep, err);
    ASSERT_NE(client, nullptr) << err;
    std::string line;
    ASSERT_TRUE(client->readLine(line));
    EXPECT_EQ(line, "first");
    ASSERT_TRUE(client->readLine(line));
    EXPECT_EQ(line, "second");
    ASSERT_TRUE(client->readLine(line));
    EXPECT_EQ(line, "third");
    // EOF with no buffered frame: readLine reports failure.
    serverSide.join();
    EXPECT_FALSE(client->readLine(line));
}

TEST(Transport, OversizedFrameGetsOneErrorLineThenClose)
{
    // 2 MiB with no terminator: the daemon must answer with one
    // structured error and hang up, not buffer the stream forever.
    const std::string unterminated(std::size_t{2} << 20, 'x');
    const std::string cacheDir = ::testing::TempDir() + "laperm_tx_cache";
    for (const Endpoint &ep : {Endpoint::unixAt(sockPath("big.sock")),
                               Endpoint::tcpAt("127.0.0.1", 0)}) {
        ServiceOptions sopts;
        sopts.jobs = 1;
        sopts.cacheDir = cacheDir;
        ServiceHandler handler(sopts);
        SessionOptions opts;
        opts.endpoint = ep;
        Server server(opts, handler);
        std::string err;
        ASSERT_TRUE(server.start(err)) << err;

        auto client = connectTo(server.boundEndpoint(), err);
        ASSERT_NE(client, nullptr) << err;
        // Bounded waits both ways: a server that keeps reading fails
        // the test instead of hanging it.
        ASSERT_TRUE(client->setRecvTimeout(5000));
        timeval tv{};
        tv.tv_sec = 5;
        ASSERT_EQ(::setsockopt(client->fd(), SOL_SOCKET, SO_SNDTIMEO, &tv,
                               sizeof(tv)),
                  0);
        // The write may fail part-way: the server closes mid-stream.
        client->writeAll(unterminated);

        std::string reply;
        ASSERT_TRUE(client->readLine(reply)) << ep.toString();
        JsonObject obj;
        ASSERT_TRUE(parseJsonObject(reply, obj, err)) << reply;
        std::string status;
        EXPECT_TRUE(getString(obj, "status", status));
        EXPECT_EQ(status, kStatusError) << reply;
        EXPECT_FALSE(client->readLine(reply))
            << ep.toString() << ": connection left open";
    }
}

TEST(Transport, StaleUnixSocketFileIsRecovered)
{
    const Endpoint ep = Endpoint::unixAt(sockPath("stale.sock"));
    std::string err;
    {
        auto first = listenOn(ep, err);
        ASSERT_NE(first, nullptr) << err;
        // While the listener is live, a second bind must be refused.
        auto second = listenOn(ep, err);
        EXPECT_EQ(second, nullptr);
        EXPECT_FALSE(err.empty());
    }
    // Simulate a crashed daemon: a socket file with no listener behind
    // it (raw bind, fd closed without unlink). listenOn must detect
    // that nobody answers, unlink, and rebind.
    {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      ep.path.c_str());
        ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ::close(fd); // file stays behind, nothing accepts on it
    }
    ASSERT_TRUE(std::filesystem::exists(ep.path));
    {
        auto reborn = listenOn(ep, err);
        EXPECT_NE(reborn, nullptr) << err;
    }
    // ...and the destructor cleaned the path up again.
    EXPECT_FALSE(std::filesystem::exists(ep.path));
}

TEST(Transport, TcpRebindsImmediatelyAfterRestart)
{
    // SO_REUSEADDR: a restarted daemon re-binds the same port without
    // waiting out TIME_WAIT from the previous incarnation's sockets.
    std::string err;
    auto first = listenOn(Endpoint::tcpAt("127.0.0.1", 0), err);
    ASSERT_NE(first, nullptr) << err;
    const Endpoint bound = first->boundEndpoint();

    std::thread serverSide([&] {
        auto conn = first->accept();
        ASSERT_NE(conn, nullptr);
        std::string line;
        conn->readLine(line); // wait for client close
    });
    {
        auto client = connectTo(bound, err);
        ASSERT_NE(client, nullptr) << err;
    }
    serverSide.join();
    first.reset();

    auto second = listenOn(bound, err);
    EXPECT_NE(second, nullptr) << err;
}

TEST(Transport, WakeUnblocksAPendingAccept)
{
    const Endpoint ep = Endpoint::unixAt(sockPath("wake.sock"));
    std::string err;
    auto listener = listenOn(ep, err);
    ASSERT_NE(listener, nullptr) << err;

    std::thread accepting([&] {
        EXPECT_EQ(listener->accept(), nullptr);
        // wake() is permanent: later accepts fail too, so a shutdown
        // race (wake before the loop re-enters accept) cannot hang.
        EXPECT_EQ(listener->accept(), nullptr);
    });
    listener->wake();
    accepting.join();
}
