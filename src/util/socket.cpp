#include "util/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

namespace nup::util {

LoopbackListener::LoopbackListener(int port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error_ = "socket: " + std::string(std::strerror(errno));
    return;
  }
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd_, backlog) < 0) {
    error_ = "bind port " + std::to_string(port) + ": " +
             std::string(std::strerror(errno));
    ::close(fd_);
    fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
}

LoopbackListener::~LoopbackListener() { shutdown(); }

int LoopbackListener::accept_client() {
  for (;;) {
    const int fd = fd_.load();
    if (fd < 0) return -1;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client >= 0) return client;
    if (errno == EINTR) continue;
    return -1;  // listener shut down under us
  }
}

void LoopbackListener::shutdown() {
  // exchange() makes shutdown idempotent and publishes the closed state to
  // a concurrently blocked accept_client().
  const int fd = fd_.exchange(-1);
  if (fd < 0) return;
  ::shutdown(fd, SHUT_RDWR);  // unblocks a concurrent accept()
  ::close(fd);
}

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    // MSG_NOSIGNAL: a peer hanging up mid-reply must surface as a failed
    // write, not kill the serving process with SIGPIPE.
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool write_all(int fd, std::string_view data) {
  return write_all(fd, data.data(), data.size());
}

bool LineReader::next_line(std::string* line) {
  for (;;) {
    // Resume where the last search stopped: a long line is scanned once,
    // not once per read.
    const std::size_t nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos && nl <= kMaxLine) {
      line->assign(buffer_, 0, nl);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      buffer_.erase(0, nl + 1);
      scanned_ = 0;
      return true;
    }
    scanned_ = buffer_.size();
    if (scanned_ > kMaxLine) {
      // An over-long line ends the stream: nothing after it can be framed.
      eof_ = true;
      buffer_.clear();
    }
    if (eof_) return false;
    char chunk[2048];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
    } else if (n == 0) {
      eof_ = true;
    } else if (errno != EINTR) {
      eof_ = true;
    }
  }
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace nup::util
