#include "serve/service/service_handler.hh"

#include "common/log.hh"
#include "serve/service/protocol.hh"
#include "serve/service/sim_request.hh"

namespace laperm {
namespace serve {

ServiceHandler::ServiceHandler(ServiceOptions opts)
    : service_(std::make_unique<SimService>(std::move(opts)))
{
}

Reply
ServiceHandler::handleLine(const std::string &line)
{
    JsonObject obj;
    std::string err;
    if (!parseJsonObject(line, obj, err))
        return {errorResponse(kStatusError, "bad request: " + err)};

    std::string op;
    if (!getString(obj, "op", op))
        return {errorResponse(kStatusError, "missing 'op'")};

    if (op == kVerbPing) {
        return {logFormat(
            "{\"status\":\"ok\",\"op\":\"ping\",\"fingerprint\":\"%s\","
            "\"protocol\":%d}",
            service_->fingerprint().c_str(), kProtocolVersion)};
    }
    if (op == kVerbStats) {
        return {"{\"status\":\"ok\",\"op\":\"stats\",\"fingerprint\":\"" +
                service_->fingerprint() + "\"," +
                service_->metrics().jsonFields() + "}"};
    }
    if (op == kVerbShutdown)
        return {"{\"status\":\"ok\",\"op\":\"shutdown\"}", true};
    if (op != kVerbRun)
        return {errorResponse(kStatusError, "unknown op '" + op + "'")};

    SimRequest req;
    if (!SimRequest::fromJson(obj, req, err))
        return {errorResponse(kStatusError, err)};

    const RunOutcome outcome = service_->run(req);
    switch (outcome.status) {
    case RunStatus::Ok: {
        // Written once, the payload escaped straight into the frame.
        // The reserve covers the fixed text and a few escapes.
        Reply ok;
        std::string &frame = ok.frame;
        frame.reserve(outcome.payload.size() + outcome.key.size() + 96);
        frame += "{\"status\":\"ok\",\"cached\":";
        frame += outcome.cached ? "true" : "false";
        frame += ",\"deduped\":";
        frame += outcome.deduped ? "true" : "false";
        frame += ",\"key\":\"";
        frame += outcome.key;
        frame += "\",\"result\":\"";
        appendJsonEscaped(frame, outcome.payload);
        frame += "\"}";
        return ok;
    }
    case RunStatus::Shed:
        // Structured load-shed: the client backs off and retries
        // (serve/client.cc honors retry_ms).
        return {logFormat(
            "{\"status\":\"overloaded\",\"key\":\"%s\",\"retry_ms\":100}",
            outcome.key.c_str())};
    case RunStatus::Timeout:
        return {logFormat("{\"status\":\"timeout\",\"key\":\"%s\"}",
                          outcome.key.c_str())};
    case RunStatus::Error:
        break;
    }
    return {errorResponse(kStatusError, outcome.error)};
}

std::string
ServiceHandler::oversizedFrame(std::size_t limitBytes)
{
    return errorResponse(
        kStatusError,
        logFormat("request frame exceeds %zu bytes", limitBytes));
}

} // namespace serve
} // namespace laperm
