#include "serve/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/socket.hpp"

namespace nup::serve {

namespace {

std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream in(line);
  std::string word;
  while (in >> word) words.push_back(std::move(word));
  return words;
}

/// Tenant names become metric series (serve.tenant.<name>.*) and
/// OpenMetrics labels: [A-Za-z0-9_-]{1,64}.
bool valid_tenant_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Decimal digits only, and false past 2^64 - 1 (no silent wrap).
bool parse_u64(const std::string& word, std::uint64_t* value) {
  if (word.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : word) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *value = v;
  return true;
}

}  // namespace

struct ServeEndpoint::Impl {
  StencilServer* server = nullptr;
  std::unique_ptr<util::LoopbackListener> listener;
  std::string error;

  std::thread acceptor;
  std::atomic<bool> running{false};
  std::mutex conn_mu;
  std::unordered_map<std::uint64_t, std::thread> conn_threads;  ///< by id
  std::uint64_t next_conn = 0;
  /// Connections whose thread has finished; joined on the next accept.
  std::vector<std::uint64_t> finished;
  /// Open connection fds (for stop()). A connection leaves this list
  /// before its fd is closed, so stop() never shuts down a number the OS
  /// has already handed to someone else.
  std::vector<int> conn_fds;

  /// One tenant session: line in, line out, until QUIT or EOF. An EOF
  /// without QUIT counts as the tenant vanishing mid-flight.
  void serve_connection(int fd) {
    util::LineReader reader(fd);
    std::string tenant;
    bool graceful = false;
    std::unordered_map<std::uint64_t, RequestHandle> handles;
    std::string line;
    while (reader.next_line(&line)) {
      const std::vector<std::string> words = split_words(line);
      std::string reply;
      if (words.empty()) {
        reply = "ERR empty command";
      } else if (words[0] == "HELLO") {
        if (words.size() != 2) {
          reply = "ERR usage: HELLO <tenant>";
        } else if (!valid_tenant_name(words[1])) {
          reply = "ERR bad tenant name";
        } else if (!server->join_tenant(words[1])) {
          reply = "ERR too many tenants";
        } else {
          tenant = words[1];
          reply = "OK " + tenant;
        }
      } else if (words[0] == "SUBMIT") {
        std::uint64_t seed = 0;
        if (words.size() != 3 || !parse_u64(words[2], &seed)) {
          reply = "ERR usage: SUBMIT <kernel> <seed>";
        } else if (tenant.empty()) {
          reply = "ERR HELLO first";
        } else {
          try {
            const SubmitResult r = server->submit(tenant, words[1], seed);
            if (r.admitted()) {
              handles.emplace(r.handle.id(), r.handle);
              reply = "OK " + std::to_string(r.handle.id());
            } else {
              reply = std::string("SHED ") + to_string(r.reason);
            }
          } catch (const std::exception& e) {
            reply = std::string("ERR ") + e.what();
          }
        }
      } else if (words[0] == "WAIT") {
        std::uint64_t id = 0;
        if (words.size() != 2 || !parse_u64(words[1], &id)) {
          reply = "ERR usage: WAIT <id>";
        } else {
          const auto it = handles.find(id);
          if (it == handles.end()) {
            reply = "ERR unknown request " + std::to_string(id);
          } else {
            const runtime::FrameResult& fr = it->second.wait();
            const char* status = fr.ok() ? "ok"
                                 : fr.cancelled ? "cancelled"
                                                : "failed";
            reply = "DONE " + std::to_string(id) + " " + status + " " +
                    std::to_string(fr.outputs.size()) + " " +
                    std::to_string(output_checksum(fr.outputs));
            handles.erase(it);
          }
        }
      } else if (words[0] == "KERNELS") {
        reply = "OK";
        for (const std::string& name : server->kernels()) {
          reply += " " + name;
        }
      } else if (words[0] == "STATS") {
        const ServeStats s = server->stats();
        reply = "OK submitted=" + std::to_string(s.submitted) +
                " completed=" + std::to_string(s.completed) +
                " shed=" + std::to_string(s.shed) +
                " queued=" + std::to_string(s.queued) +
                " inflight=" + std::to_string(s.in_flight);
      } else if (words[0] == "QUIT") {
        graceful = true;
        util::write_all(fd, "OK bye\n");
        break;
      } else {
        reply = "ERR unknown command " + words[0];
      }
      if (!util::write_all(fd, reply + "\n")) break;
    }
    if (!graceful && !tenant.empty()) {
      // The connection dropped mid-session: cancel the tenant's work so
      // nothing (frames, pins, queue slots) leaks past the disconnect.
      server->disconnect(tenant);
    }
  }

  /// A connection thread: the session, then the fd leaves conn_fds
  /// before it is closed, and the thread marks itself for joining.
  void run(int fd, std::uint64_t id) {
    serve_connection(fd);
    {
      std::lock_guard<std::mutex> lock(conn_mu);
      std::erase(conn_fds, fd);
      finished.push_back(id);
    }
    ::close(fd);
  }

  void accept_loop() {
    while (running.load(std::memory_order_acquire)) {
      const int fd = listener->accept_client();
      if (fd < 0) break;  // listener shut down
      std::vector<std::thread> done;
      {
        std::lock_guard<std::mutex> lock(conn_mu);
        for (const std::uint64_t id : finished) {
          const auto it = conn_threads.find(id);
          done.push_back(std::move(it->second));
          conn_threads.erase(it);
        }
        finished.clear();
        const std::uint64_t id = next_conn++;
        conn_fds.push_back(fd);
        conn_threads.emplace(id,
                             std::thread([this, fd, id] { run(fd, id); }));
      }
      // Finished threads only have their close() left; joining them keeps
      // conn_threads at the live connections.
      for (std::thread& t : done) t.join();
    }
  }
};

ServeEndpoint::ServeEndpoint(StencilServer& server,
                             ServeEndpointOptions options)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.server = &server;
  im.listener = std::make_unique<util::LoopbackListener>(options.port);
  if (!im.listener->ok()) {
    im.error = im.listener->error();  // names the requested port
    im.listener.reset();
    return;
  }
  im.running.store(true, std::memory_order_release);
  im.acceptor = std::thread([this] { impl_->accept_loop(); });
}

ServeEndpoint::~ServeEndpoint() { stop(); }

bool ServeEndpoint::ok() const { return impl_->listener != nullptr; }

const std::string& ServeEndpoint::error() const { return impl_->error; }

int ServeEndpoint::port() const {
  return impl_->listener ? impl_->listener->port() : 0;
}

void ServeEndpoint::stop() {
  Impl& im = *impl_;
  if (!im.running.exchange(false, std::memory_order_acq_rel)) {
    im.listener.reset();
    return;
  }
  im.listener->shutdown();  // unblocks accept_client()
  if (im.acceptor.joinable()) im.acceptor.join();
  std::unordered_map<std::uint64_t, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(im.conn_mu);
    // Force readers off their sockets; the threads then fall out of
    // their loops (fds are closed by the threads themselves).
    for (const int fd : im.conn_fds) ::shutdown(fd, SHUT_RDWR);
    threads.swap(im.conn_threads);
  }
  for (auto& [id, t] : threads) t.join();
  im.listener.reset();
}

}  // namespace nup::serve
