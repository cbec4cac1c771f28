/**
 * @file
 * Service layer entry point (DESIGN.md §15.3): a LineHandler that
 * parses protocol frames, dispatches verbs, and answers from a local
 * SimService. This is the daemon's whole brain: Server (serve/session)
 * feeds it frames over UDS or TCP.
 *
 * Response formats are part of the protocol contract: the run / stats /
 * ping / shutdown response lines here are byte-compatible with every
 * prior release of the daemon.
 */

#ifndef LAPERM_SERVE_SERVICE_SERVICE_HANDLER_HH
#define LAPERM_SERVE_SERVICE_SERVICE_HANDLER_HH

#include <memory>
#include <string>

#include "serve/service/service.hh"
#include "serve/session/handler.hh"

namespace laperm {
namespace serve {

class ServiceHandler : public LineHandler
{
  public:
    explicit ServiceHandler(ServiceOptions opts);

    /** Dispatch one protocol line; also usable directly in tests. */
    Reply handleLine(const std::string &line) override;

    /** A structured `error` response naming the frame limit. */
    std::string oversizedFrame(std::size_t limitBytes) override;

    SimService &service() { return *service_; }

  private:
    std::unique_ptr<SimService> service_;
};

} // namespace serve
} // namespace laperm

#endif // LAPERM_SERVE_SERVICE_SERVICE_HANDLER_HH
