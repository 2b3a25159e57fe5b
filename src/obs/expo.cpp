#include "obs/expo.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "util/socket.hpp"

namespace nup::obs {

// ---- OpenMetrics rendering ---------------------------------------------

namespace {

/// Metric names allow only [a-zA-Z0-9_:]; every dotted segment separator
/// and anything exotic becomes '_'.
std::string sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, "_");
  return out;
}

/// Label values and HELP text escape backslash, double quote and newline.
std::string escape(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Per-FIFO and per-filter families keep their identity as labels instead
/// of flattening into one metric name per FIFO. Longest prefix first so
/// `high_water_words` is not captured by `high_water`.
struct LabeledFamily {
  const char* prefix;
  const char* family;
  const char* help;
};

constexpr LabeledFamily kLabeledFamilies[] = {
    {"fifo.high_water_words.", "fifo_high_water_words",
     "max observed occupancy of the reuse FIFO in W-element words"},
    {"fifo.high_water.", "fifo_high_water",
     "max observed occupancy of the reuse FIFO in elements"},
    {"fifo.word_depth.", "fifo_word_depth",
     "designed Eq. 2 / W word depth of the reuse FIFO"},
    {"fifo.depth.", "fifo_depth",
     "designed Eq. 2 depth of the reuse FIFO in elements"},
    {"filter.stall_cycles.", "filter_stall_cycles",
     "cycles the data filter could not advance while live"},
};

struct RenderedSample {
  std::string labels;  ///< "{array=\"A\",fifo=\"0\"}" or ""
  const MetricSample* sample = nullptr;
};

struct Family {
  MetricSample::Kind kind = MetricSample::Kind::kCounter;
  std::string help;
  std::vector<RenderedSample> samples;
};

const char* kind_name(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter: return "counter";
    case MetricSample::Kind::kGauge: return "gauge";
    case MetricSample::Kind::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string render_openmetrics(const MetricsSnapshot& snapshot) {
  std::map<std::string, Family> families;

  for (const MetricSample& sample : snapshot.samples) {
    std::string family_name;
    std::string labels;
    std::string help;
    for (const LabeledFamily& lf : kLabeledFamilies) {
      const std::string_view prefix = lf.prefix;
      if (sample.name.size() > prefix.size() &&
          sample.name.compare(0, prefix.size(), prefix) == 0) {
        const std::string rest = sample.name.substr(prefix.size());
        const std::size_t dot = rest.rfind('.');
        if (dot != std::string::npos) {
          family_name = lf.family;
          help = lf.help;
          labels = "{array=\"" + escape(rest.substr(0, dot)) +
                   "\",fifo=\"" + escape(rest.substr(dot + 1)) + "\"}";
        }
        break;
      }
    }
    // Per-tenant serving series (serve.[<inst>.]tenant.<t>.<metric>) keep
    // the tenant as a label instead of one family per tenant, so SLO
    // dashboards aggregate across tenants with a plain sum by (tenant).
    if (family_name.empty() &&
        sample.name.compare(0, 6, "serve.") == 0) {
      const std::size_t tpos = sample.name.find(".tenant.");
      if (tpos != std::string::npos) {
        const std::string rest = sample.name.substr(tpos + 8);
        const std::size_t dot = rest.rfind('.');
        if (dot != std::string::npos) {
          family_name = sanitize_name(sample.name.substr(0, tpos) +
                                      "_tenant_" + rest.substr(dot + 1));
          help = "per-tenant serving metric (see docs/SERVING.md)";
          labels =
              "{tenant=\"" + escape(rest.substr(0, dot)) + "\"}";
        }
      }
    }
    if (family_name.empty()) {
      family_name = sanitize_name(sample.name);
      help = "stencilcc metric " + escape(sample.name);
    }

    auto it = families.find(family_name);
    if (it == families.end()) {
      it = families.emplace(family_name, Family{}).first;
      it->second.kind = sample.kind;
      it->second.help = std::move(help);
    } else if (it->second.kind != sample.kind) {
      // Same family name reached from two kinds (should not happen with
      // the runtime's naming scheme); keep both by splitting on kind.
      const std::string alt = family_name + "_" + kind_name(sample.kind);
      it = families.emplace(alt, Family{}).first;
      it->second.kind = sample.kind;
      it->second.help = std::move(help);
    }
    it->second.samples.push_back(RenderedSample{std::move(labels), &sample});
  }

  std::string out;
  out.reserve(families.size() * 160);
  for (const auto& [name, family] : families) {
    out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " " + kind_name(family.kind) + "\n";
    for (const RenderedSample& rs : family.samples) {
      const MetricSample& s = *rs.sample;
      switch (family.kind) {
        case MetricSample::Kind::kCounter:
          out += name + "_total" + rs.labels + " " +
                 std::to_string(s.value) + "\n";
          break;
        case MetricSample::Kind::kGauge:
          out += name + rs.labels + " " + std::to_string(s.value) + "\n";
          break;
        case MetricSample::Kind::kHistogram: {
          const Histogram::Snapshot& h = s.hist;
          std::int64_t cumulative = 0;
          for (std::size_t b = 0; b < h.bounds.size(); ++b) {
            cumulative += b < h.counts.size() ? h.counts[b] : 0;
            out += name + "_bucket{le=\"" + std::to_string(h.bounds[b]) +
                   "\"} " + std::to_string(cumulative) + "\n";
          }
          out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) +
                 "\n";
          out += name + "_sum " + std::to_string(h.sum) + "\n";
          out += name + "_count " + std::to_string(h.count) + "\n";
          break;
        }
      }
    }
  }
  out += "# EOF\n";
  return out;
}

std::string Registry::snapshot_openmetrics() const {
  return render_openmetrics(snapshot());
}

// ---- MetricsServer ------------------------------------------------------

namespace {

std::string http_response(const std::string& status,
                          const std::string& content_type,
                          const std::string& body) {
  return "HTTP/1.0 " + status + "\r\nContent-Type: " + content_type +
         "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n" + body;
}

}  // namespace

struct MetricsServer::Impl {
  MetricsServerOptions options;
  Registry* registry = nullptr;
  // The loopback accept/read/write plumbing is shared with the serving
  // front-end (serve::ServeEndpoint) through util::LoopbackListener.
  std::unique_ptr<util::LoopbackListener> listener;
  std::string error;

  std::thread acceptor;
  std::thread sampler;
  std::atomic<bool> running{false};
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stopping = false;

  void serve_connection(int fd) {
    char buf[2048];
    const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
    if (n <= 0) return;
    buf[n] = '\0';
    // "GET /path HTTP/1.x" — everything else is a 404/400.
    std::string path;
    if (std::strncmp(buf, "GET ", 4) == 0) {
      const char* start = buf + 4;
      const char* end = std::strchr(start, ' ');
      if (end != nullptr) path.assign(start, end);
    }
    std::string response;
    if (path == "/metrics" || path == "/") {
      response = http_response(
          "200 OK",
          "application/openmetrics-text; version=1.0.0; charset=utf-8",
          registry->snapshot_openmetrics());
    } else if (path == "/metrics.json") {
      response = http_response("200 OK", "application/json",
                               registry->snapshot().to_json() + "\n");
    } else if (path.empty()) {
      response = http_response("400 Bad Request", "text/plain",
                               "bad request\n");
    } else {
      response = http_response("404 Not Found", "text/plain", "not found\n");
    }
    util::write_all(fd, response);
  }

  void accept_loop() {
    while (running.load(std::memory_order_acquire)) {
      const int fd = listener->accept_client();
      if (fd < 0) break;  // listener shut down
      serve_connection(fd);
      ::close(fd);
    }
  }

  void sample_loop() {
    std::unique_lock<std::mutex> lock(stop_mu);
    while (!stopping) {
      stop_cv.wait_for(
          lock, std::chrono::milliseconds(options.sample_period_ms));
      if (stopping) break;
      lock.unlock();
      const MetricsSnapshot snap = registry->snapshot();
      for (const MetricSample& s : snap.samples) {
        if (s.kind != MetricSample::Kind::kGauge) continue;
        for (const std::string& suffix : options.sampled_suffixes) {
          if (s.name.ends_with(suffix)) {
            registry->histogram(s.name + ".sampled").observe(s.value);
            break;
          }
        }
      }
      lock.lock();
    }
  }
};

MetricsServer::MetricsServer(MetricsServerOptions options)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.options = std::move(options);
  im.registry = im.options.registry != nullptr ? im.options.registry
                                               : &Registry::global();

  im.listener = std::make_unique<util::LoopbackListener>(im.options.port);
  if (!im.listener->ok()) {
    im.error = im.listener->error();  // names the requested port
    im.listener.reset();
    return;
  }

  im.running.store(true, std::memory_order_release);
  im.acceptor = std::thread([this] { impl_->accept_loop(); });
  if (im.options.sample_period_ms > 0) {
    im.sampler = std::thread([this] { impl_->sample_loop(); });
  }
}

MetricsServer::~MetricsServer() { stop(); }

bool MetricsServer::ok() const { return impl_->listener != nullptr; }

const std::string& MetricsServer::error() const { return impl_->error; }

int MetricsServer::port() const {
  return impl_->listener ? impl_->listener->port() : 0;
}

void MetricsServer::stop() {
  Impl& im = *impl_;
  if (!im.running.exchange(false, std::memory_order_acq_rel)) {
    // Never started (bind failure) or already stopped.
    im.listener.reset();
    return;
  }
  im.listener->shutdown();  // unblocks accept_client()
  {
    std::lock_guard<std::mutex> lock(im.stop_mu);
    im.stopping = true;
  }
  im.stop_cv.notify_all();
  if (im.acceptor.joinable()) im.acceptor.join();
  if (im.sampler.joinable()) im.sampler.join();
  im.listener.reset();
}

}  // namespace nup::obs
