// The shared loopback plumbing under obs::MetricsServer and
// serve::ServeEndpoint: ephemeral binds report their port, a failed bind
// names the port that was taken, shutdown unblocks a pending accept, and
// the line reader reassembles protocol lines regardless of how TCP
// segments them and cuts off a line longer than its cap.

#include "util/socket.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

namespace nup::util {
namespace {

TEST(LoopbackListener, EphemeralBindReportsPortAndAcceptsClients) {
  LoopbackListener listener(0);
  ASSERT_TRUE(listener.ok()) << listener.error();
  EXPECT_GT(listener.port(), 0);

  std::thread client([port = listener.port()] {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(write_all(fd, "ping\n"));
    ::close(fd);
  });
  const int conn = listener.accept_client();
  ASSERT_GE(conn, 0);
  LineReader reader(conn);
  std::string line;
  ASSERT_TRUE(reader.next_line(&line));
  EXPECT_EQ(line, "ping");
  ::close(conn);
  client.join();
}

TEST(LoopbackListener, SecondBindOnTakenPortNamesThePort) {
  LoopbackListener first(0);
  ASSERT_TRUE(first.ok()) << first.error();

  LoopbackListener second(first.port());
  EXPECT_FALSE(second.ok());
  // The error message must say which port was refused, so a server that
  // cannot start says why instead of dying silently.
  EXPECT_NE(second.error().find(std::to_string(first.port())),
            std::string::npos)
      << second.error();
  EXPECT_LT(second.accept_client(), 0);  // never blocks on a dead listener
}

TEST(LoopbackListener, ShutdownUnblocksPendingAccept) {
  LoopbackListener listener(0);
  ASSERT_TRUE(listener.ok()) << listener.error();

  std::thread acceptor([&listener] {
    EXPECT_LT(listener.accept_client(), 0);  // -1 once shut down
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  listener.shutdown();
  acceptor.join();
  listener.shutdown();  // idempotent
}

TEST(LineReader, ReassemblesLinesAcrossArbitrarySegmentation) {
  LoopbackListener listener(0);
  ASSERT_TRUE(listener.ok()) << listener.error();

  std::thread client([port = listener.port()] {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    // Three protocol lines (one with CRLF) delivered in fragments that
    // never align with line boundaries, plus a trailing unterminated
    // fragment that must be discarded at EOF.
    for (const char* chunk :
         {"HEL", "LO tenant\nSUB", "MIT k 1\r\nST", "ATS\n", "dangl"}) {
      ASSERT_TRUE(write_all(fd, chunk));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::close(fd);
  });

  const int conn = listener.accept_client();
  ASSERT_GE(conn, 0);
  LineReader reader(conn);
  std::vector<std::string> lines;
  std::string line;
  while (reader.next_line(&line)) lines.push_back(line);
  const std::vector<std::string> expected = {"HELLO tenant", "SUBMIT k 1",
                                             "STATS"};
  EXPECT_EQ(lines, expected);
  // EOF reached: further reads keep failing instead of blocking.
  EXPECT_FALSE(reader.next_line(&line));
  ::close(conn);
  client.join();
}

TEST(LineReader, AcceptsALineAtTheCapAndCutsOffALongerOne) {
  LoopbackListener listener(0);
  ASSERT_TRUE(listener.ok()) << listener.error();

  const std::string at_cap(LineReader::kMaxLine, 'a');
  const std::string past_cap(LineReader::kMaxLine + 1, 'b');
  std::thread client([port = listener.port(), &at_cap, &past_cap] {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    // The reader stops reading at the over-long line and the server side
    // then closes, so these writes may fail; only the reads are checked.
    (void)write_all(fd, at_cap + "\nok\n" + past_cap + "\nafter\n");
    ::close(fd);
  });

  const int conn = listener.accept_client();
  ASSERT_GE(conn, 0);
  LineReader reader(conn);
  std::string line;
  ASSERT_TRUE(reader.next_line(&line));
  EXPECT_EQ(line, at_cap);
  ASSERT_TRUE(reader.next_line(&line));
  EXPECT_EQ(line, "ok");
  // Nothing after an over-long line can be framed: the stream ends there.
  EXPECT_FALSE(reader.next_line(&line));
  EXPECT_FALSE(reader.next_line(&line));
  ::close(conn);
  client.join();
}

TEST(WriteAll, HandlesLargePayloadsAndDeadPeers) {
  LoopbackListener listener(0);
  ASSERT_TRUE(listener.ok()) << listener.error();

  // 1 MiB of lines: far beyond one send buffer, so write_all must loop
  // over short writes while the peer drains.
  std::string payload;
  payload.reserve(1 << 20);
  while (payload.size() < (1 << 20)) {
    payload += "0123456789abcdef0123456789abcdef\n";
  }

  std::thread client([port = listener.port(), &payload] {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(write_all(fd, payload));
    ::close(fd);
  });
  const int conn = listener.accept_client();
  ASSERT_GE(conn, 0);
  LineReader reader(conn);
  std::size_t received = 0;
  std::string line;
  while (reader.next_line(&line)) received += line.size() + 1;
  EXPECT_EQ(received, payload.size());
  ::close(conn);
  client.join();

  // Writing into a closed connection reports failure, not a crash (the
  // process must not die of SIGPIPE).
  const int dead = connect_loopback(listener.port());
  ASSERT_GE(dead, 0);
  const int victim = listener.accept_client();
  ASSERT_GE(victim, 0);
  ::close(victim);
  bool ok = true;
  for (int i = 0; i < 64 && ok; ++i) ok = write_all(dead, payload);
  EXPECT_FALSE(ok);
  ::close(dead);
}

}  // namespace
}  // namespace nup::util
