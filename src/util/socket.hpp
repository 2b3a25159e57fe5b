#pragma once

/// Dependency-free loopback TCP plumbing shared by the serving layers:
/// the observability exposition endpoint (obs::MetricsServer) and the
/// multi-tenant request front-end (serve::ServeEndpoint) both accept
/// scrapers / clients on 127.0.0.1 with the same blocking accept / read /
/// write code. Everything here is plain POSIX sockets behind small RAII
/// wrappers; no third-party dependency, loopback only (never a public
/// bind).

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>

namespace nup::util {

/// Listening socket bound to 127.0.0.1:<port>. Construction binds and
/// listens; a failed bind leaves ok() false with an error() that names the
/// requested port (so a server refusing to start says which port was
/// taken instead of dying silently).
class LoopbackListener {
 public:
  /// `port` 0 binds an ephemeral port (read it back from port()).
  explicit LoopbackListener(int port, int backlog = 8);
  ~LoopbackListener();

  LoopbackListener(const LoopbackListener&) = delete;
  LoopbackListener& operator=(const LoopbackListener&) = delete;

  bool ok() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }

  /// The bound port (the requested one, or the ephemeral pick for 0).
  int port() const { return port_; }

  /// Blocks until a client connects; returns the connection fd (caller
  /// closes it) or -1 once the listener was shut down. EINTR is retried.
  int accept_client();

  /// Unblocks accept_client() and closes the listening socket. Safe to
  /// call from another thread while an accept is in flight; idempotent.
  void shutdown();

 private:
  // Atomic: shutdown() races with a blocked accept_client() by design.
  std::atomic<int> fd_{-1};
  int port_ = 0;
  std::string error_;
};

/// Writes the whole buffer, retrying on EINTR and short writes. False on
/// any other error (the peer hung up).
bool write_all(int fd, const char* data, std::size_t n);
bool write_all(int fd, std::string_view data);

/// Incremental line reader over a connection fd: buffers whatever read()
/// returns and hands out one '\n'-terminated line at a time (terminator
/// stripped, a trailing '\r' too), so a request protocol never depends on
/// TCP segmentation.
class LineReader {
 public:
  /// Longest line accepted, terminator excluded. A peer that sends more
  /// without a '\n' is cut off: next_line returns false from then on.
  static constexpr std::size_t kMaxLine = 64 * 1024;

  explicit LineReader(int fd) : fd_(fd) {}

  /// Blocks until a full line is available. False on EOF / error with no
  /// complete line buffered (a final unterminated fragment is discarded --
  /// a protocol line that never ended was never a request), and once the
  /// pending line has grown past kMaxLine.
  bool next_line(std::string* line);

 private:
  int fd_;
  std::string buffer_;
  std::size_t scanned_ = 0;  ///< buffer_ prefix known to hold no '\n'
  bool eof_ = false;
};

/// Connects to 127.0.0.1:<port>; returns the fd or -1 (errno holds why).
/// Test and tooling helper -- production clients are in-process.
int connect_loopback(int port);

}  // namespace nup::util
