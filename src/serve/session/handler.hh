/**
 * @file
 * The seam between the session layer and whatever answers requests
 * (DESIGN.md §15.2). A LineHandler maps one request frame to one
 * response frame; the Server owns sockets, threads, and framing and
 * knows nothing else. ServiceHandler (serve/service) is the daemon's
 * implementation; protocol verbs stay above this seam.
 */

#ifndef LAPERM_SERVE_SESSION_HANDLER_HH
#define LAPERM_SERVE_SESSION_HANDLER_HH

#include <cstddef>
#include <functional>
#include <string>

namespace laperm {
namespace serve {

/** A handler's answer to one request frame. */
struct Reply
{
    std::string frame; ///< response frame (no terminator)
    /**
     * The request asked the process to stop. The session fires the
     * shutdown hook only after it has written @c frame, so the stop
     * the hook starts cannot cut the reply off.
     */
    bool shutdown = false;
};

class LineHandler
{
  public:
    virtual ~LineHandler() = default;

    /**
     * Handle one request frame (no terminator). Must be callable from
     * multiple session threads concurrently.
     */
    virtual Reply handleLine(const std::string &line) = 0;

    /**
     * The response frame (no terminator) for a request frame that
     * outgrew @p limitBytes before its terminator arrived. The session
     * sends it and closes the connection.
     */
    virtual std::string oversizedFrame(std::size_t limitBytes) = 0;

    /**
     * Invoked when a reply asked the process to stop accepting work —
     * e.g. the handler dispatched a `shutdown` verb. The embedder (a
     * Server-owning main, or a test) installs the hook; an unset hook
     * makes shutdown requests a no-op beyond the response, which is
     * what in-process protocol tests want.
     */
    void setShutdownHook(std::function<void()> hook)
    {
        shutdownHook_ = std::move(hook);
    }

    /** The session calls this once a Reply::shutdown reply is sent. */
    void fireShutdownHook()
    {
        if (shutdownHook_)
            shutdownHook_();
    }

  private:
    std::function<void()> shutdownHook_;
};

} // namespace serve
} // namespace laperm

#endif // LAPERM_SERVE_SESSION_HANDLER_HH
