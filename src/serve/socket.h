/**
 * @file
 * Minimal NDJSON unix-socket front end for the serve loop.
 *
 * One client connection at a time; each line is one request object
 * (the JobRequest wire format from request.h), each response is one
 * result object per line, in request order per connection. Two
 * control lines are recognized: {"cmd": "stats"} answers with a
 * server-stats object, {"cmd": "shutdown"} answers {"status": "ok"}
 * and stops the listener. A line longer than kMaxRequestLineBytes is
 * answered with a bad-request line and skipped up to its newline; the
 * connection keeps serving.
 *
 * This is deliberately small — the batch runner is the primary CI
 * surface; the socket exists so a warm daemon can be driven from
 * shell tooling (`nc -U`). Both go through Server::submit, so they
 * share queue, cache, pool, and budget behavior.
 */

#ifndef OWL_SERVE_SOCKET_H
#define OWL_SERVE_SOCKET_H

#include <cstddef>
#include <string>

#include "serve/server.h"

namespace owl::serve
{

/**
 * Longest request line the socket accepts. A request names a design
 * and a few options, a few hundred bytes; the cap keeps one client from
 * growing the server's line buffer without bound.
 */
constexpr size_t kMaxRequestLineBytes = size_t(1) << 20;

/**
 * Bind a unix-domain stream socket at @p path (unlinking any stale
 * file first) and serve NDJSON requests until a shutdown command or
 * an unrecoverable socket error. Returns false (with *err set) when
 * the socket cannot be created or bound. Blocks the calling thread.
 */
bool serveSocket(Server &server, const std::string &path,
                 std::string *err);

} // namespace owl::serve

#endif // OWL_SERVE_SOCKET_H
