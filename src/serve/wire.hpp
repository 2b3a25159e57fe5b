#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace nup::serve {

struct ServeEndpointOptions {
  /// Loopback port to listen on; 0 binds an ephemeral port (read it back
  /// from port()).
  int port = 0;
};

/// Line-protocol front-end of a StencilServer on a loopback socket (the
/// same dependency-free plumbing as obs::MetricsServer, shared through
/// util::LoopbackListener). One thread per connection; one connection is
/// one tenant session.
///
/// Protocol (one '\n'-terminated command per line, one reply line each):
///
///   HELLO <tenant>      -> OK <tenant>          (registers the tenant)
///   SUBMIT <kernel> <seed> -> OK <id> | SHED <reason>
///   WAIT <id>           -> DONE <id> <ok|cancelled|failed> <outputs>
///                          <checksum>           (blocks until resolved)
///   KERNELS             -> OK <name>...
///   STATS               -> OK submitted=<n> completed=<n> shed=<n>
///                          queued=<n> inflight=<n>
///   QUIT                -> OK bye               (graceful close)
///
/// A tenant name is [A-Za-z0-9_-]{1,64} (it becomes the serve.tenant.*
/// metric namespace); any other answers `ERR bad tenant name` and
/// registers nothing. HELLO gives a new tenant ServeOptions::default_quota
/// and leaves a registered tenant's quota alone; past
/// StencilServer::kMaxJoinedTenants registered tenants a new name answers
/// `ERR too many tenants` and registers nothing. A seed or id is a decimal
/// below 2^64; a larger one answers `ERR usage: ...`. Anything malformed
/// answers `ERR <reason>` and keeps the connection.
/// `checksum` is the FNV-1a hash of the frame's output bit patterns
/// (serve::output_checksum), so a remote client can verify bit-identity
/// against a local golden run without shipping the frame.
///
/// A connection that drops without QUIT is a tenant disconnect: its
/// queued requests resolve as cancelled and its running frames are
/// cancelled (StencilServer::disconnect). QUIT leaves outstanding work
/// running.
class ServeEndpoint {
 public:
  explicit ServeEndpoint(StencilServer& server,
                         ServeEndpointOptions options = {});
  ~ServeEndpoint();  // stop() if still running

  ServeEndpoint(const ServeEndpoint&) = delete;
  ServeEndpoint& operator=(const ServeEndpoint&) = delete;

  /// False when the bind failed; error() names the port that was taken.
  bool ok() const;
  const std::string& error() const;

  /// The bound port (the requested one, or the ephemeral pick for 0).
  int port() const;

  /// Closes the listener and every open connection, then joins the
  /// connection threads. A thread blocked in WAIT returns once the
  /// server resolves the request (server shutdown resolves everything),
  /// so stop after -- or concurrently with -- StencilServer::shutdown.
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// FNV-1a 64-bit hash over the output doubles' bit patterns: the frame
/// identity the wire protocol ships instead of the frame. Runs the exact
/// AVX-512 path where the CPU has it (see checksum.cpp), else the
/// byte-serial definition; both give the same bits.
std::uint64_t output_checksum(const std::vector<double>& outputs);

namespace detail {

/// The byte-serial definition of output_checksum: fallback and oracle.
std::uint64_t output_checksum_serial(const double* values, std::size_t count);

/// True when this build and CPU run output_checksum_vector's AVX-512 path
/// (AVX-512F/BW/DQ/VBMI/VNNI, GFNI and VPCLMULQDQ; never under
/// NUP_DISABLE_AVX2).
bool output_checksum_vector_supported();

/// The AVX-512 path (the byte-serial loop when it is compiled out). Call it
/// only where output_checksum_vector_supported() holds.
std::uint64_t output_checksum_vector(const double* values, std::size_t count);

}  // namespace detail

}  // namespace nup::serve
