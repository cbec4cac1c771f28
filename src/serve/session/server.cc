#include "serve/session/server.hh"

#include <chrono>

namespace laperm {
namespace serve {

Server::Server(SessionOptions opts, LineHandler &handler)
    : opts_(std::move(opts)), handler_(handler)
{
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string &err)
{
    listener_ = listenOn(opts_.endpoint, err);
    if (!listener_)
        return false;
    handler_.setShutdownHook([this] { requestShutdown(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

bool
Server::waitShutdown(std::uint64_t ms)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (ms == 0) {
        shutdownCv_.wait(lock, [&] { return shutdownRequested_; });
        return true;
    }
    return shutdownCv_.wait_for(lock, std::chrono::milliseconds(ms),
                                [&] { return shutdownRequested_; });
}

void
Server::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdownRequested_ = true;
    }
    shutdownCv_.notify_all();
}

const Endpoint &
Server::boundEndpoint() const
{
    return listener_ ? listener_->boundEndpoint() : opts_.endpoint;
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopped_)
            return;
        stopped_ = true;
        shutdownRequested_ = true;
    }
    shutdownCv_.notify_all();

    if (listener_)
        listener_->wake();
    if (acceptThread_.joinable())
        acceptThread_.join();
    listener_.reset(); // closes the socket, unlinks a Unix path

    // Unblock live connection readers; splice the nodes out (list
    // iterators held by connection epilogues stay valid across splice)
    // and join. Destroying the nodes afterwards closes the sockets, so
    // a fd is never closed before its thread has been joined.
    std::list<Conn> doomed;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (Conn &c : conns_)
            c.connection->shutdownBoth();
        doomed.splice(doomed.begin(), conns_);
    }
    for (Conn &c : doomed) {
        if (c.thread.joinable())
            c.thread.join();
    }
}

void
Server::acceptLoop()
{
    for (;;) {
        std::unique_ptr<Connection> conn = listener_->accept();
        const bool exiting = conn == nullptr; // woken or fatal error

        // Reap connections that have since finished, so a long-lived
        // daemon holds nodes for LIVE connections only — not one per
        // connection ever accepted. Joining happens outside the lock.
        std::list<Conn> finished;
        std::list<Conn>::iterator slot;
        bool haveSlot = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (auto it = conns_.begin(); it != conns_.end();) {
                auto cur = it++;
                if (cur->finished)
                    finished.splice(finished.begin(), conns_, cur);
            }
            if (!exiting) {
                conns_.emplace_back();
                slot = std::prev(conns_.end());
                slot->connection = std::move(conn);
                haveSlot = true;
            }
        }
        for (Conn &c : finished) {
            if (c.thread.joinable())
                c.thread.join();
        }
        if (exiting)
            return; // stop() shuts down and joins the rest
        if (haveSlot) {
            slot->thread = std::thread(
                [this, c = slot->connection.get(), slot] {
                    handleConnection(*c, slot);
                });
        }
    }
}

void
Server::handleConnection(Connection &conn,
                         std::list<Conn>::iterator slot)
{
    std::string line;
    while (conn.readLine(line)) {
        const Reply reply = handler_.handleLine(line);
        const bool sent = conn.writeAll(reply.frame + "\n");
        // Only now may the stop begin: it shuts every connection down,
        // this one included, and would cut off an unsent reply.
        if (reply.shutdown)
            handler_.fireShutdownHook();
        if (!sent)
            break;
    }
    // The rest of an oversized frame may never end, so the session
    // answers once and hangs up; the peer sees the close now, not when
    // the node is reaped.
    if (conn.frameTooLong()) {
        conn.writeAll(handler_.oversizedFrame(kMaxFrameBytes) + "\n");
        conn.shutdownBoth();
    }
    // Only the flag is touched here: the node (and with it the socket)
    // is destroyed by the reaper after this thread has been joined.
    std::lock_guard<std::mutex> lock(mu_);
    slot->finished = true;
}

} // namespace serve
} // namespace laperm
