// The line-protocol front-end: a remote tenant session over a loopback
// socket must behave exactly like the in-process client -- same verdicts,
// same results (verified through the shipped checksum against a local
// golden run) -- and a connection that drops without QUIT must cancel the
// tenant's work without leaking pins or hanging the server.

#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "stencil/gallery.hpp"
#include "stencil/golden.hpp"
#include "util/socket.hpp"

namespace nup::serve {
namespace {

using std::chrono::milliseconds;

stencil::StencilProgram slow_program(std::int64_t rows, std::int64_t cols,
                                     milliseconds per_fire) {
  stencil::StencilProgram p("SLOW",
                            poly::Domain::box({1, 1}, {rows - 2, cols - 2}));
  p.add_input("A", {{-1, 0}, {0, -1}, {0, 0}, {0, 1}, {1, 0}});
  p.set_kernel([per_fire](const std::vector<double>& v) {
    std::this_thread::sleep_for(per_fire);
    return std::accumulate(v.begin(), v.end(), 0.0) / 5.0;
  });
  return p;
}

/// One protocol session: send a command line, read the one reply line.
class WireClient {
 public:
  explicit WireClient(int port)
      : fd_(util::connect_loopback(port)), reader_(fd_) {}
  ~WireClient() { close(); }

  bool connected() const { return fd_ >= 0; }

  std::string command(const std::string& line) {
    EXPECT_TRUE(util::write_all(fd_, line + "\n")) << line;
    std::string reply;
    EXPECT_TRUE(reader_.next_line(&reply)) << "no reply to " << line;
    return reply;
  }

  /// Hard drop: closes the socket without QUIT (a vanished tenant).
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
  util::LineReader reader_;
};

std::vector<std::string> words_of(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream in(line);
  std::string word;
  while (in >> word) words.push_back(std::move(word));
  return words;
}

// Every WAIT reply publishes this checksum; clients compare it against
// their own golden runs, so its definition is part of the wire protocol.
TEST(OutputChecksum, ExactValuesArePinned) {
  EXPECT_EQ(output_checksum({}), 1469598103934665603ull);
  EXPECT_EQ(output_checksum({0.0, 1.0, -2.5, 0.125, 3.141592653589793, -0.0,
                             1e-300}),
            16313862803349971016ull);
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// `count` doubles of one bit pattern the checksum must not care about.
std::vector<double> checksum_pattern(int pattern, std::size_t count,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const double specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      from_bits(0x7ff0000000000001ull),  // signalling NaN payload
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  const double constant = from_bits(rng());
  std::vector<double> values(count);
  for (double& v : values) {
    const std::uint64_t r = rng();
    switch (pattern) {
      case 0:  // random bits
        v = from_bits(r);
        break;
      case 1:  // +0 and -0
        v = (r & 1u) != 0 ? -0.0 : 0.0;
        break;
      case 2:  // NaN and Inf
        v = specials[r % 5];
        break;
      case 3:  // subnormals of either sign
        v = from_bits(r & 0x800fffffffffffffull);
        break;
      default:
        v = constant;
        break;
    }
  }
  return values;
}

constexpr int kChecksumPatterns = 5;

/// The dispatched checksum and, where the CPU has it, the AVX-512 path
/// directly must both give the byte-serial oracle's bits.
void expect_oracle_bits(const double* values, std::size_t count,
                        const std::string& label) {
  const std::uint64_t oracle = detail::output_checksum_serial(values, count);
  if (detail::output_checksum_vector_supported()) {
    ASSERT_EQ(detail::output_checksum_vector(values, count), oracle) << label;
  }
  const std::vector<double> copy(values, values + count);
  ASSERT_EQ(output_checksum(copy), oracle) << label;
}

// Every size from 0 to 300 doubles walks the vector path's chunk tail
// through every length; the frame-sized cases run many whole chunks. Each
// vector is allocated at its exact size, so a sanitizer build catches any
// read past the end.
TEST(OutputChecksum, DispatchedEqualsByteSerial) {
  if (!detail::output_checksum_vector_supported()) {
    std::cout << "[          ] AVX-512 checksum path not available here; "
                 "checking the dispatch only\n";
  }
  for (int pattern = 0; pattern < kChecksumPatterns; ++pattern) {
    for (std::size_t count = 0; count <= 300; ++count) {
      const std::vector<double> v = checksum_pattern(pattern, count, count);
      ASSERT_NO_FATAL_FAILURE(expect_oracle_bits(
          v.data(), v.size(),
          "pattern " + std::to_string(pattern) + " size " +
              std::to_string(count)));
    }
    const std::vector<double> frame =
        checksum_pattern(pattern, 768 * 1024, 7 + pattern);
    ASSERT_NO_FATAL_FAILURE(expect_oracle_bits(
        frame.data(), frame.size(),
        "pattern " + std::to_string(pattern) + " 768x1024"));
    ASSERT_NO_FATAL_FAILURE(expect_oracle_bits(
        frame.data(), frame.size() - 3,
        "pattern " + std::to_string(pattern) + " 768x1024-3"));
  }
  // Start 1..7 doubles into a buffer: unaligned loads, each range still
  // ending at the allocation's end.
  const std::vector<double> buffer = checksum_pattern(0, 768 * 1024 + 7, 99);
  bool misaligned = false;
  for (std::size_t offset = 1; offset < 8; ++offset) {
    const double* start = buffer.data() + offset;
    misaligned |= reinterpret_cast<std::uintptr_t>(start) % 64 != 0;
    ASSERT_NO_FATAL_FAILURE(expect_oracle_bits(
        start, buffer.size() - offset, "offset " + std::to_string(offset)));
  }
  EXPECT_TRUE(misaligned);
}

TEST(ServeEndpoint, HelloSubmitWaitShipsGoldenChecksum) {
  const stencil::StencilProgram p = stencil::jacobi_2d(20, 24);
  ServeOptions options;
  options.engine.threads = 2;
  StencilServer server(options);
  server.add_kernel(p);
  ServeEndpoint endpoint(server);
  ASSERT_TRUE(endpoint.ok()) << endpoint.error();
  ASSERT_GT(endpoint.port(), 0);  // ephemeral bind reports the pick

  WireClient client(endpoint.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.command("HELLO remote"), "OK remote");

  const std::string submitted = client.command("SUBMIT JACOBI_2D 5");
  const std::vector<std::string> ok = words_of(submitted);
  ASSERT_EQ(ok.size(), 2u) << submitted;
  ASSERT_EQ(ok[0], "OK");

  const std::string done = client.command("WAIT " + ok[1]);
  const std::vector<std::string> reply = words_of(done);
  ASSERT_EQ(reply.size(), 5u) << done;
  EXPECT_EQ(reply[0], "DONE");
  EXPECT_EQ(reply[1], ok[1]);
  EXPECT_EQ(reply[2], "ok");

  // The shipped checksum is the remote client's bit-identity proof: it
  // must equal the FNV-1a hash of a local frame-serial golden run.
  const stencil::GoldenRun golden = stencil::run_golden(p, 5);
  EXPECT_EQ(reply[3], std::to_string(golden.outputs.size()));
  EXPECT_EQ(reply[4], std::to_string(output_checksum(golden.outputs)));

  EXPECT_EQ(client.command("QUIT"), "OK bye");
}

TEST(ServeEndpoint, KernelsStatsAndErrReplies) {
  ServeOptions options;
  options.engine.threads = 1;
  StencilServer server(options);
  server.add_kernel(stencil::jacobi_2d(16, 20));
  server.add_kernel(stencil::blur_2d(16, 20));
  ServeEndpoint endpoint(server);
  ASSERT_TRUE(endpoint.ok()) << endpoint.error();

  WireClient client(endpoint.port());
  ASSERT_TRUE(client.connected());

  // A session must introduce itself before submitting.
  EXPECT_EQ(client.command("SUBMIT JACOBI_2D 1"), "ERR HELLO first");
  EXPECT_EQ(client.command("HELLO t"), "OK t");

  // Malformed input answers ERR and keeps the connection usable.
  EXPECT_EQ(client.command("FROB"), "ERR unknown command FROB");
  EXPECT_EQ(client.command("SUBMIT JACOBI_2D not_a_seed"),
            "ERR usage: SUBMIT <kernel> <seed>");
  const std::string unknown = client.command("SUBMIT NO_SUCH 1");
  EXPECT_EQ(unknown.rfind("ERR ", 0), 0u) << unknown;
  EXPECT_EQ(client.command("WAIT 424242"), "ERR unknown request 424242");

  const std::string kernels = client.command("KERNELS");
  EXPECT_NE(kernels.find("JACOBI_2D"), std::string::npos) << kernels;
  EXPECT_NE(kernels.find("BLUR_3x3"), std::string::npos) << kernels;

  const std::string submitted = client.command("SUBMIT BLUR_3x3 3");
  ASSERT_EQ(words_of(submitted)[0], "OK") << submitted;
  client.command("WAIT " + words_of(submitted)[1]);

  const std::string stats = client.command("STATS");
  EXPECT_NE(stats.find("submitted=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("completed=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("shed=0"), std::string::npos) << stats;
  EXPECT_EQ(client.command("QUIT"), "OK bye");
}

TEST(ServeEndpoint, ShedVerdictCrossesTheWire) {
  ServeOptions options;
  options.engine.threads = 1;
  options.engine.tile_shape = {0, 0};
  options.max_frames_in_flight = 1;
  options.global_queue_limit = 1;
  StencilServer server(options);
  server.add_kernel(slow_program(10, 12, milliseconds(1)));
  ServeEndpoint endpoint(server);
  ASSERT_TRUE(endpoint.ok()) << endpoint.error();

  WireClient client(endpoint.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.command("HELLO greedy"), "OK greedy");

  const std::string first = client.command("SUBMIT SLOW 1");
  ASSERT_EQ(words_of(first)[0], "OK") << first;
  // Wait until the first request is on the engine (inflight=1 queued=0),
  // so the next two submits deterministically fill and overflow the
  // global queue bound.
  for (int i = 0; i < 2000; ++i) {
    const ServeStats s = server.stats();
    if (s.in_flight == 1 && s.queued == 0) break;
    std::this_thread::sleep_for(milliseconds(1));
  }
  const std::string second = client.command("SUBMIT SLOW 2");
  ASSERT_EQ(words_of(second)[0], "OK") << second;
  EXPECT_EQ(client.command("SUBMIT SLOW 3"), "SHED global_queue_full");

  client.command("WAIT " + words_of(first)[1]);
  client.command("WAIT " + words_of(second)[1]);
  EXPECT_EQ(client.command("QUIT"), "OK bye");
  EXPECT_EQ(server.stats().shed, 1);
}

/// With a 1-frame window busy on the tenant's first request, its second
/// submit queues and its third meets the tenant's queue cap.
void expect_second_queued_submit_sheds(StencilServer& server,
                                       const std::string& tenant) {
  ServeEndpoint endpoint(server);
  ASSERT_TRUE(endpoint.ok()) << endpoint.error();
  WireClient client(endpoint.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.command("HELLO " + tenant), "OK " + tenant);

  const std::string first = client.command("SUBMIT SLOW 1");
  ASSERT_EQ(words_of(first)[0], "OK") << first;
  for (int i = 0; i < 2000; ++i) {
    const ServeStats s = server.stats();
    if (s.in_flight == 1 && s.queued == 0) break;
    std::this_thread::sleep_for(milliseconds(1));
  }
  const std::string second = client.command("SUBMIT SLOW 2");
  ASSERT_EQ(words_of(second)[0], "OK") << second;
  EXPECT_EQ(client.command("SUBMIT SLOW 3"), "SHED tenant_queue_full");

  client.command("WAIT " + words_of(first)[1]);
  client.command("WAIT " + words_of(second)[1]);
  EXPECT_EQ(client.command("QUIT"), "OK bye");
}

ServeOptions one_frame_window() {
  ServeOptions options;
  options.engine.threads = 1;
  options.engine.tile_shape = {0, 0};
  options.max_frames_in_flight = 1;
  return options;
}

TEST(ServeEndpoint, HelloKeepsARegisteredTenantsQuota) {
  // The operator's quota (one queued request) must survive the tenant's
  // own HELLO; re-registering it at a default quota would admit the third
  // submit.
  StencilServer server(one_frame_window());
  server.add_kernel(slow_program(10, 12, milliseconds(1)));
  TenantQuota quota;
  quota.max_queued = 1;
  server.register_tenant("t", quota);
  expect_second_queued_submit_sheds(server, "t");
}

TEST(ServeEndpoint, HelloGivesANewTenantTheDefaultQuota) {
  ServeOptions options = one_frame_window();
  options.default_quota.max_queued = 1;
  StencilServer server(options);
  server.add_kernel(slow_program(10, 12, milliseconds(1)));
  expect_second_queued_submit_sheds(server, "newcomer");
}

TEST(ServeEndpoint, NumbersPast64BitsAreUsageErrors) {
  const stencil::StencilProgram p = stencil::jacobi_2d(16, 20);
  ServeOptions options;
  options.engine.threads = 1;
  StencilServer server(options);
  server.add_kernel(p);
  ServeEndpoint endpoint(server);
  ASSERT_TRUE(endpoint.ok()) << endpoint.error();
  WireClient client(endpoint.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.command("HELLO t"), "OK t");

  // 2^64 and a 30-digit number used to wrap silently (2^64 ran seed 0).
  for (const std::string big :
       {"18446744073709551616", "123456789012345678901234567890"}) {
    EXPECT_EQ(client.command("SUBMIT JACOBI_2D " + big),
              "ERR usage: SUBMIT <kernel> <seed>");
    EXPECT_EQ(client.command("WAIT " + big), "ERR usage: WAIT <id>");
  }
  EXPECT_EQ(client.command("WAIT 18446744073709551615"),
            "ERR unknown request 18446744073709551615");

  // 2^64 - 1 is still a seed, and the frame is the golden one for it.
  const std::string submitted =
      client.command("SUBMIT JACOBI_2D 18446744073709551615");
  ASSERT_EQ(words_of(submitted)[0], "OK") << submitted;
  const std::vector<std::string> done =
      words_of(client.command("WAIT " + words_of(submitted)[1]));
  ASSERT_EQ(done.size(), 5u);
  EXPECT_EQ(done[2], "ok");
  const stencil::GoldenRun golden =
      stencil::run_golden(p, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(done[4], std::to_string(output_checksum(golden.outputs)));
  EXPECT_EQ(server.stats().submitted, 1);
  EXPECT_EQ(client.command("QUIT"), "OK bye");
}

TEST(ServeEndpoint, DroppedConnectionCancelsTheTenant) {
  ServeOptions options;
  options.engine.threads = 1;
  options.engine.tile_shape = {1, 0};  // many tiles: cancel lands mid-frame
  options.max_frames_in_flight = 1;
  StencilServer server(options);
  server.add_kernel(slow_program(16, 10, milliseconds(1)));
  ServeEndpoint endpoint(server);
  ASSERT_TRUE(endpoint.ok()) << endpoint.error();

  {
    WireClient client(endpoint.port());
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.command("HELLO doomed"), "OK doomed");
    for (int i = 1; i <= 3; ++i) {
      const std::string r =
          client.command("SUBMIT SLOW " + std::to_string(i));
      ASSERT_EQ(words_of(r)[0], "OK") << r;
    }
    client.close();  // EOF without QUIT: the tenant vanished
  }

  // The endpoint notices the EOF and disconnects the tenant: every
  // admitted request resolves (cancelled, or completed if it won the
  // race), and nothing stays queued or in flight.
  for (int i = 0; i < 5000; ++i) {
    const ServeStats s = server.stats();
    if (s.completed + s.cancelled + s.failed == 3 && s.in_flight == 0 &&
        s.queued == 0) {
      break;
    }
    std::this_thread::sleep_for(milliseconds(1));
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.completed + stats.cancelled + stats.failed, 3);
  EXPECT_GE(stats.cancelled, 1);  // the queued tail could never all finish
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.in_flight, 0u);

  endpoint.stop();
  server.shutdown();
  const runtime::DesignCacheStats cache = server.engine().stats().cache;
  EXPECT_EQ(cache.pinned, 0u) << "dropped connection leaked design pins";
  EXPECT_EQ(cache.pins, cache.unpins);
}

TEST(ServeEndpoint, OverlongLineClosesOnlyThatConnection) {
  const stencil::StencilProgram p = stencil::jacobi_2d(20, 24);
  ServeOptions options;
  options.engine.threads = 1;
  StencilServer server(options);
  server.add_kernel(p);
  ServeEndpoint endpoint(server);
  ASSERT_TRUE(endpoint.ok()) << endpoint.error();

  WireClient bystander(endpoint.port());
  ASSERT_TRUE(bystander.connected());
  EXPECT_EQ(bystander.command("HELLO bystander"), "OK bystander");

  const int flood = util::connect_loopback(endpoint.port());
  ASSERT_GE(flood, 0);
  // A server that kept buffering would leave the read below blocked; the
  // timeout turns that into a failure instead of a hang.
  const timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(flood, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  ASSERT_TRUE(util::write_all(flood, "HELLO flooder\n"));
  util::LineReader reader(flood);
  std::string reply;
  ASSERT_TRUE(reader.next_line(&reply));
  EXPECT_EQ(reply, "OK flooder");

  // 1 MiB with no newline: the endpoint stops at its line cap and hangs
  // up, whether or not the whole payload fit into the socket buffers.
  (void)util::write_all(flood, std::string(std::size_t{1} << 20, 'x'));
  char byte = 0;
  const ssize_t got = ::recv(flood, &byte, 1, 0);
  const int err = errno;
  EXPECT_TRUE(got == 0 || (got < 0 && err == ECONNRESET))
      << "recv returned " << got << ", errno " << err;
  ::close(flood);

  // The other connection is unaffected.
  const std::vector<std::string> ok =
      words_of(bystander.command("SUBMIT JACOBI_2D 5"));
  ASSERT_EQ(ok.size(), 2u);
  ASSERT_EQ(ok[0], "OK");
  const std::vector<std::string> done =
      words_of(bystander.command("WAIT " + ok[1]));
  ASSERT_EQ(done.size(), 5u);
  EXPECT_EQ(done[2], "ok");
  EXPECT_EQ(done[4],
            std::to_string(output_checksum(stencil::run_golden(p, 5).outputs)));
  EXPECT_EQ(bystander.command("QUIT"), "OK bye");
}

TEST(ServeEndpoint, HelloRejectsTenantNamesOutsideTheGrammar) {
  obs::Registry registry;
  ServeOptions options;
  options.engine.threads = 1;
  options.metrics = &registry;
  StencilServer server(options);
  server.add_kernel(stencil::jacobi_2d(16, 20));
  ServeEndpoint endpoint(server);
  ASSERT_TRUE(endpoint.ok()) << endpoint.error();

  WireClient client(endpoint.port());
  ASSERT_TRUE(client.connected());
  // Quotes and braces would break an OpenMetrics label; an empty or
  // 65-character name is outside [A-Za-z0-9_-]{1,64}.
  for (const std::string& bad :
       {std::string("\"quoted\""), std::string("{brace}"),
        std::string("a.b"), std::string(65, 'n')}) {
    EXPECT_EQ(client.command("HELLO " + bad), "ERR bad tenant name") << bad;
  }
  EXPECT_EQ(client.command("HELLO"), "ERR usage: HELLO <tenant>");
  EXPECT_EQ(client.command("SUBMIT JACOBI_2D 1"), "ERR HELLO first");
  for (const obs::MetricSample& sample : registry.snapshot().samples) {
    EXPECT_EQ(sample.name.find("serve.tenant."), std::string::npos)
        << sample.name;
  }

  // The longest valid name and the names clients use stay accepted.
  const std::string longest(64, 'n');
  EXPECT_EQ(client.command("HELLO " + longest), "OK " + longest);
  for (const std::string good : {"t0", "t1", "remote", "Tenant_A-9"}) {
    EXPECT_EQ(client.command("HELLO " + good), "OK " + good);
  }
  EXPECT_EQ(client.command("QUIT"), "OK bye");
}

TEST(ServeEndpoint, HelloPastTheTenantCapRegistersNothing) {
  obs::Registry registry;
  ServeOptions options;
  options.engine.threads = 1;
  options.metrics = &registry;
  StencilServer server(options);
  server.add_kernel(stencil::jacobi_2d(16, 20));
  ServeEndpoint endpoint(server);
  ASSERT_TRUE(endpoint.ok()) << endpoint.error();

  WireClient client(endpoint.port());
  ASSERT_TRUE(client.connected());
  const std::size_t cap = StencilServer::kMaxJoinedTenants;
  for (std::size_t i = 0; i < cap; ++i) {
    const std::string name = "t" + std::to_string(i);
    ASSERT_EQ(client.command("HELLO " + name), "OK " + name);
  }
  const auto tenant_series = [&registry] {
    std::size_t n = 0;
    for (const obs::MetricSample& sample : registry.snapshot().samples) {
      if (sample.name.rfind("serve.tenant.", 0) == 0) ++n;
    }
    return n;
  };
  const std::size_t series = tenant_series();
  EXPECT_EQ(client.command("HELLO newcomer"), "ERR too many tenants");
  EXPECT_EQ(tenant_series(), series);
  EXPECT_EQ(server.tenant_stats("newcomer").submitted, 0);
  // Registered tenants still join, and the session keeps the last tenant
  // that was accepted.
  EXPECT_EQ(client.command("HELLO t0"), "OK t0");
  EXPECT_EQ(words_of(client.command("SUBMIT JACOBI_2D 1"))[0], "OK");
  EXPECT_EQ(server.tenant_stats("t0").submitted, 1);
  EXPECT_EQ(client.command("QUIT"), "OK bye");
}

TEST(ServeEndpoint, StopLeavesAReusedFdNumberAlone) {
  ServeOptions options;
  options.engine.threads = 1;
  StencilServer server(options);
  ServeEndpoint endpoint(server);
  ASSERT_TRUE(endpoint.ok()) << endpoint.error();

  // The server's end of a connection is one more fd in this process: find
  // its number by listing the fds before and after the session opens.
  const auto open_fds = [] {
    std::set<int> fds;
    for (int fd = 0; fd < 1024; ++fd) {
      if (::fcntl(fd, F_GETFD) != -1) fds.insert(fd);
    }
    return fds;
  };
  const std::set<int> before = open_fds();
  WireClient client(endpoint.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.command("HELLO gone"), "OK gone");
  std::set<int> added = open_fds();
  for (const int fd : before) added.erase(fd);
  ASSERT_EQ(added.size(), 2u);  // the client's socket and the server's
  client.close();
  // The connection thread sees EOF and closes its end: wait until both
  // numbers are free, then let a socketpair take one of them.
  for (int i = 0; i < 5000; ++i) {
    bool all_closed = true;
    for (const int fd : added) all_closed &= ::fcntl(fd, F_GETFD) == -1;
    if (all_closed) break;
    std::this_thread::sleep_for(milliseconds(1));
  }
  std::vector<std::array<int, 2>> pairs;
  std::array<int, 2> reused{-1, -1};
  for (int i = 0; i < 8 && reused[0] < 0; ++i) {
    std::array<int, 2> pair{};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair.data()), 0);
    pairs.push_back(pair);
    if (added.count(pair[0]) != 0 || added.count(pair[1]) != 0) {
      reused = pair;
    }
  }
  ASSERT_GE(reused[0], 0) << "no socketpair took a freed fd number";

  endpoint.stop();
  // stop() must not have shut down the pair that now owns the number.
  EXPECT_TRUE(util::write_all(reused[0], "ping\n"));
  util::LineReader reader(reused[1]);
  std::string line;
  EXPECT_TRUE(reader.next_line(&line));
  EXPECT_EQ(line, "ping");
  for (const std::array<int, 2>& pair : pairs) {
    ::close(pair[0]);
    ::close(pair[1]);
  }
}

TEST(ServeEndpoint, QuitLeavesOutstandingWorkRunning) {
  ServeOptions options;
  options.engine.threads = 1;
  StencilServer server(options);
  server.add_kernel(stencil::jacobi_2d(16, 20));
  ServeEndpoint endpoint(server);
  ASSERT_TRUE(endpoint.ok()) << endpoint.error();

  {
    WireClient client(endpoint.port());
    ASSERT_TRUE(client.connected());
    client.command("HELLO polite");
    ASSERT_EQ(words_of(client.command("SUBMIT JACOBI_2D 1"))[0], "OK");
    EXPECT_EQ(client.command("QUIT"), "OK bye");
  }

  // QUIT is not a disconnect: the submitted frame completes.
  for (int i = 0; i < 5000 && server.stats().completed < 1; ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(server.stats().completed, 1);
  EXPECT_EQ(server.stats().cancelled, 0);
}

TEST(ServeEndpoint, BindFailureNamesThePort) {
  // Occupy a port, then ask the endpoint for the same one.
  util::LoopbackListener taken(0);
  ASSERT_TRUE(taken.ok());

  StencilServer server;
  ServeEndpointOptions options;
  options.port = taken.port();
  ServeEndpoint endpoint(server, options);
  EXPECT_FALSE(endpoint.ok());
  EXPECT_NE(endpoint.error().find(std::to_string(taken.port())),
            std::string::npos)
      << endpoint.error();
}

}  // namespace
}  // namespace nup::serve
