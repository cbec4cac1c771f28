/**
 * @file
 * Session layer of the serving stack (DESIGN.md §15.2): an accept loop
 * plus one thread per live connection, each reading newline-delimited
 * frames off a transport Connection and answering through a
 * LineHandler. Transport-agnostic — the same Server speaks UDS and TCP
 * because listenOn() hides the difference — and service-agnostic: the
 * handler decides what the bytes mean.
 *
 * Connection-thread lifecycle: a finished connection parks its thread
 * handle on a reap list that the accept loop drains before every
 * accept (and stop() drains last), so a long-lived daemon holds
 * O(live connections) thread handles, not O(all connections ever) —
 * the unbounded-growth bug the pre-§15 server had.
 *
 * Embeddable: tests and the repository benchmark run Servers
 * in-process; laperm_served is a thin main() around one.
 */

#ifndef LAPERM_SERVE_SESSION_SERVER_HH
#define LAPERM_SERVE_SESSION_SERVER_HH

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/session/handler.hh"
#include "serve/transport/transport.hh"

namespace laperm {
namespace serve {

struct SessionOptions
{
    Endpoint endpoint = Endpoint::unixAt("laperm_served.sock");
};

class Server
{
  public:
    /** @p handler is borrowed and must outlive the server. */
    Server(SessionOptions opts, LineHandler &handler);

    /** stop() if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and spawn the accept thread. Installs this
     * server's requestShutdown as the handler's shutdown hook.
     */
    bool start(std::string &err);

    /**
     * Block until a shutdown request arrives or @p ms elapses
     * (0 = wait forever). True when shutdown was requested.
     */
    bool waitShutdown(std::uint64_t ms = 0);

    /** Ask the server to stop (also triggered by the shutdown verb). */
    void requestShutdown();

    /** Stop accepting, unblock and join every connection thread. */
    void stop();

    /**
     * Endpoint actually bound (valid after start(); tcp:HOST:0 carries
     * the kernel-assigned port).
     */
    const Endpoint &boundEndpoint() const;

  private:
    /**
     * One live connection. The node owns the Connection so the socket
     * is closed only when the node is erased, which happens strictly
     * after its thread has been joined; the thread itself only flips
     * `finished` on exit.
     */
    struct Conn
    {
        std::thread thread;
        std::unique_ptr<Connection> connection;
        bool finished = false;
    };

    void acceptLoop();
    void handleConnection(Connection &conn,
                          std::list<Conn>::iterator slot);

    SessionOptions opts_;
    LineHandler &handler_;

    std::unique_ptr<Listener> listener_;
    std::thread acceptThread_;

    std::mutex mu_; ///< guards conns_ and the shutdown flags
    std::list<Conn> conns_;
    bool shutdownRequested_ = false;
    bool stopped_ = false;
    std::condition_variable shutdownCv_;
};

} // namespace serve
} // namespace laperm

#endif // LAPERM_SERVE_SESSION_SERVER_HH
