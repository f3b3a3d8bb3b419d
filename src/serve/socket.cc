#include "serve/socket.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/json.h"
#include "obs/obs.h"

namespace owl::serve
{

namespace json = obs::json;

namespace
{

/** Write a full buffer, riding out short writes. */
bool
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

bool
writeLine(int fd, const json::Value &v)
{
    return writeAll(fd, v.dump(0) + "\n");
}

json::Value
errorLine(const std::string &msg)
{
    json::Value v = json::Value::object();
    v.set("status", std::string("bad-request"));
    v.set("error", msg);
    return v;
}

json::Value
statsLine(const Server &server)
{
    CacheStats cs = server.cacheStats();
    SessionPoolStats ps = server.poolStats();
    json::Value v = json::Value::object();
    v.set("status", std::string("ok"));
    json::Value cache = json::Value::object();
    cache.set("hits", cs.hits);
    cache.set("misses", cs.misses);
    cache.set("insertions", cs.insertions);
    cache.set("evictions", cs.evictions);
    cache.set("bytes", cs.bytes);
    cache.set("entries", cs.entries);
    v.set("cache", std::move(cache));
    json::Value pool = json::Value::object();
    pool.set("created", ps.created);
    pool.set("reused", ps.reused);
    pool.set("slots", static_cast<uint64_t>(ps.slots));
    pool.set("parked", static_cast<uint64_t>(ps.parked));
    v.set("pool", std::move(pool));
    return v;
}

/**
 * Answer one request line; returns true when it asked for shutdown.
 */
bool
handleLine(Server &server, int fd, const std::string &line)
{
    json::Value doc;
    std::string perr;
    if (!json::Value::parse(line, doc, &perr)) {
        writeLine(fd, errorLine("parse error: " + perr));
        return false;
    }
    if (const json::Value *cmd = doc.find("cmd")) {
        if (cmd->isString() && cmd->asString() == "shutdown") {
            json::Value ok = json::Value::object();
            ok.set("status", std::string("ok"));
            writeLine(fd, ok);
            return true;
        }
        if (cmd->isString() && cmd->asString() == "stats")
            writeLine(fd, statsLine(server));
        else
            writeLine(fd, errorLine("unknown cmd"));
        return false;
    }
    JobRequest req;
    std::string rerr;
    if (!parseJobRequest(doc, req, rerr)) {
        writeLine(fd, errorLine(rerr));
        return false;
    }
    std::future<JobResult> fut;
    if (!server.trySubmit(std::move(req), &fut)) {
        writeLine(fd, errorLine("queue full"));
        return false;
    }
    writeLine(fd, resultToJson(fut.get()));
    return false;
}

/**
 * Handle one connection; returns true when the client requested
 * shutdown. Lines execute strictly in order — the socket path trades
 * the batch runner's pipelining for a protocol simple enough to
 * drive from `nc -U`. A line past kMaxRequestLineBytes gets one error
 * reply as soon as it overflows, and its bytes are dropped up to the
 * next newline.
 */
bool
handleConnection(Server &server, int fd)
{
    const std::string tooLong = "line longer than " +
                                std::to_string(kMaxRequestLineBytes) +
                                " bytes";
    std::string buf;
    bool skipping = false; // inside an oversized line
    char chunk[4096];
    for (;;) {
        // Consume every complete line, then drop them in one erase.
        size_t start = 0;
        for (size_t nl; (nl = buf.find('\n', start)) != std::string::npos;
             start = nl + 1) {
            size_t len = nl - start;
            if (skipping) {
                skipping = false;
            } else if (len > kMaxRequestLineBytes) {
                writeLine(fd, errorLine(tooLong));
            } else if (len != 0 &&
                       handleLine(server, fd, buf.substr(start, len))) {
                return true;
            }
        }
        buf.erase(0, start);
        if (buf.size() > kMaxRequestLineBytes) {
            if (!skipping)
                writeLine(fd, errorLine(tooLong));
            skipping = true;
            buf.clear();
        }
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false; // client hung up (possibly mid-line)
        buf.append(chunk, static_cast<size_t>(n));
    }
}

} // namespace

bool
serveSocket(Server &server, const std::string &path, std::string *err)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        if (err)
            *err = "socket path too long: " + path;
        return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
        if (err)
            *err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    ::unlink(path.c_str()); // stale socket from a previous run
    if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listener, 8) != 0) {
        if (err)
            *err = std::string("bind/listen ") + path + ": " +
                   std::strerror(errno);
        ::close(listener);
        return false;
    }

    bool down = false;
    while (!down) {
        int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = std::string("accept: ") + std::strerror(errno);
            break;
        }
        OWL_COUNTER_INC("serve.socket.connections");
        down = handleConnection(server, fd);
        ::close(fd);
    }
    ::close(listener);
    ::unlink(path.c_str());
    return down;
}

} // namespace owl::serve
