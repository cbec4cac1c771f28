#include "serve/client.hh"

#include <algorithm>
#include <chrono>
#include <thread>

namespace laperm {
namespace serve {

namespace {

/** The longest sleep between two tries of callWithRetry. */
constexpr std::uint64_t kMaxBackoffMs = 2000;

} // namespace

Client::Client(ClientOptions opts) : opts_(std::move(opts)) {}

Client::~Client()
{
    close();
}

void
Client::close()
{
    conn_.reset();
}

bool
Client::connect(std::string &err)
{
    close();
    conn_ = connectTo(opts_.endpoint, err);
    if (conn_ && opts_.recvTimeoutMs)
        conn_->setRecvTimeout(opts_.recvTimeoutMs);
    return conn_ != nullptr;
}

bool
Client::call(const std::string &request, JsonObject &response,
             std::string &err)
{
    if (!conn_) {
        err = "not connected";
        return false;
    }
    if (!conn_->writeAll(request + "\n")) {
        err = "write failed";
        close();
        return false;
    }
    std::string line;
    if (!conn_->readLine(line)) {
        err = conn_->frameTooLong()
                  ? "response frame exceeds " +
                        std::to_string(kMaxFrameBytes) + " bytes"
                  : "connection closed before response";
        close();
        return false;
    }
    response.clear();
    return parseJsonObject(line, response, err);
}

bool
Client::callWithRetry(const std::string &request, JsonObject &response,
                      std::string &err)
{
    std::uint64_t backoff = opts_.backoffMs;
    for (unsigned attempt = 0;; ++attempt) {
        bool ok = connected() || connect(err);
        if (ok)
            ok = call(request, response, err);

        if (ok) {
            std::string status;
            getString(response, "status", status);
            if (status != kStatusOverloaded)
                return true;
            // Honor the server's backoff hint on the first retry.
            std::uint64_t hint = 0;
            if (attempt == 0 && getU64(response, "retry_ms", hint) &&
                hint > 0) {
                backoff = std::min(hint, kMaxBackoffMs);
            }
            err = "overloaded";
        }

        if (attempt >= opts_.overloadRetries)
            return ok; // ok==true means a (still overloaded) response
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        backoff = std::min(backoff * 2, kMaxBackoffMs);
    }
}

} // namespace serve
} // namespace laperm
