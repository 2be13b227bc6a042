// The frame layer of the serve protocol, driven over a socketpair: frames
// collected in a FrameBuffer leave as the exact bytes of per-frame writes,
// a response larger than the socket buffer arrives whole while a second
// thread flushes it (through an interrupted, partial send()), and an
// over-limit payload is refused before any byte is written. Runs under
// TSan in CI (the writer thread).

#include <gtest/gtest.h>

#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "server/wire.h"

namespace rdfsum::server {
namespace {

class SocketPair {
 public:
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    writer_ = fds[0];
    reader_ = fds[1];
  }
  ~SocketPair() {
    ::close(writer_);
    ::close(reader_);
  }
  int writer() const { return writer_; }
  int reader() const { return reader_; }

  /// True when the reader end has bytes waiting.
  bool ReaderHasBytes() const {
    pollfd pfd{reader_, POLLIN, 0};
    return ::poll(&pfd, 1, 0) > 0;
  }

 private:
  int writer_ = -1;
  int reader_ = -1;
};

/// The raw bytes of one frame, laid out by hand from the spec.
std::string FrameBytes(uint8_t type, const std::string& payload) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  AppendU8(&out, type);
  out.append(3, '\0');
  return out + payload;
}

std::string ReadAll(int fd, size_t n) {
  std::string out(n, '\0');
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::read(fd, out.data() + done, n - done);
    if (r <= 0) break;
    done += static_cast<size_t>(r);
  }
  out.resize(done);
  return out;
}

TEST(FrameBufferTest, FramesLeaveAsTheSpecifiedBytesInOneFlush) {
  SocketPair sp;
  FrameBuffer out;
  ASSERT_TRUE(out.Append(kFrameText, "stats").ok());
  std::string* row = out.OpenFrame(kFrameRow);
  AppendU32(row, 2);
  size_t at = StartLenBytes(row);
  row->append("<http://a>");
  FinishLenBytes(row, at);
  at = StartLenBytes(row);
  FinishLenBytes(row, at);  // an empty column
  ASSERT_TRUE(out.CloseFrame().ok());
  ASSERT_TRUE(out.Append(kFrameDone, EncodeDone(Status::OK(), 1)).ok());

  std::string row_payload;
  AppendU32(&row_payload, 2);
  AppendLenBytes(&row_payload, "<http://a>");
  AppendLenBytes(&row_payload, "");
  const std::string expected = FrameBytes(kFrameText, "stats") +
                               FrameBytes(kFrameRow, row_payload) +
                               FrameBytes(kFrameDone,
                                          EncodeDone(Status::OK(), 1));
  EXPECT_EQ(out.size(), expected.size());
  ASSERT_TRUE(out.Flush(sp.writer()).ok());
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(ReadAll(sp.reader(), expected.size()), expected);
  EXPECT_FALSE(sp.ReaderHasBytes());

  // WriteFrame is the same bytes, one frame at a time.
  ASSERT_TRUE(WriteFrame(sp.writer(), kFrameRow, row_payload).ok());
  EXPECT_EQ(ReadAll(sp.reader(), 8 + row_payload.size()),
            FrameBytes(kFrameRow, row_payload));
}

TEST(FrameBufferTest, ResponseLargerThanTheSocketBufferArrivesWhole) {
  SocketPair sp;
  int small = 16 << 10;
  ::setsockopt(sp.writer(), SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
  ::setsockopt(sp.reader(), SOL_SOCKET, SO_RCVBUF, &small, sizeof small);

  // ~4 MiB of ROW frames with varying payload sizes, then DONE: far more
  // than the socket holds, so the one Flush blocks in send() until the
  // reader drains it.
  constexpr uint64_t kRows = 20000;
  std::vector<std::string> payloads;
  FrameBuffer out;
  for (uint64_t i = 0; i < kRows; ++i) {
    std::string p;
    AppendU32(&p, 1);
    AppendLenBytes(&p, std::string(1 + (i * 37) % 400,
                                   static_cast<char>('a' + i % 26)));
    ASSERT_TRUE(out.Append(kFrameRow, p).ok());
    payloads.push_back(std::move(p));
  }
  ASSERT_TRUE(out.Append(kFrameDone, EncodeDone(Status::OK(), kRows)).ok());
  ASSERT_GT(out.size(), 64u * static_cast<size_t>(small));

  // A signal that interrupts a send() blocked after queueing some bytes
  // makes it return that partial count (no SA_RESTART), so Flush must
  // resume from where the kernel stopped. The writer shuts its end down
  // after the Flush: a Flush that gave up early ends the stream short.
  struct sigaction on_signal {}, old_action {};
  on_signal.sa_handler = [](int) {};
  sigemptyset(&on_signal.sa_mask);
  ASSERT_EQ(::sigaction(SIGUSR1, &on_signal, &old_action), 0);
  Status sent;
  std::thread writer([&] {
    sent = out.Flush(sp.writer());
    ::shutdown(sp.writer(), SHUT_WR);
  });
  // Wait until the writer is blocked: bytes queued and no longer growing.
  int queued = 0;
  for (int last = -1, i = 0; (queued == 0 || queued != last) && i < 400;
       ++i) {
    last = queued;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ::ioctl(sp.reader(), FIONREAD, &queued);
  }
  EXPECT_GT(queued, 0);
  ::pthread_kill(writer.native_handle(), SIGUSR1);

  uint64_t rows = 0;
  bool rows_match = true;
  DoneReply done;
  Status read_status;
  for (;;) {
    Frame frame;
    read_status = ReadFrame(sp.reader(), &frame);
    if (!read_status.ok()) break;
    if (frame.type != kFrameRow) {
      if (frame.type != kFrameDone || !DecodeDone(frame.payload, &done)) {
        read_status = Status::Corruption("unexpected frame");
      }
      break;
    }
    if (rows >= kRows || frame.payload != payloads[rows]) rows_match = false;
    ++rows;
  }
  writer.join();
  ::sigaction(SIGUSR1, &old_action, nullptr);
  ASSERT_TRUE(sent.ok()) << sent.ToString();
  ASSERT_TRUE(read_status.ok()) << read_status.ToString();
  EXPECT_TRUE(rows_match);
  EXPECT_EQ(rows, kRows);
  EXPECT_EQ(done.rows, kRows);
  EXPECT_EQ(ReadAll(sp.reader(), 1), "");  // EOF right after DONE
}

TEST(FrameBufferTest, OverLimitPayloadIsRefusedWithoutWritingAnyByte) {
  SocketPair sp;
  const std::string huge(kMaxFramePayload + 1, 'x');

  Status st = WriteFrame(sp.writer(), kFrameRow, huge);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_FALSE(sp.ReaderHasBytes());

  // Appended or built in place, the refused frame leaves the buffer as it
  // was: the frames before it still go out, and nothing of it.
  FrameBuffer out;
  ASSERT_TRUE(out.Append(kFrameText, "kept").ok());
  const size_t before = out.size();
  EXPECT_TRUE(out.Append(kFrameRow, huge).IsInvalidArgument());
  EXPECT_EQ(out.size(), before);
  out.OpenFrame(kFrameRow)->append(huge);
  EXPECT_TRUE(out.CloseFrame().IsInvalidArgument());
  EXPECT_EQ(out.size(), before);
  ASSERT_TRUE(out.Flush(sp.writer()).ok());
  EXPECT_EQ(ReadAll(sp.reader(), before), FrameBytes(kFrameText, "kept"));
  EXPECT_FALSE(sp.ReaderHasBytes());

  // Exactly at the limit is a valid frame.
  std::string* at_limit = out.OpenFrame(kFrameRow);
  at_limit->append(kMaxFramePayload, 'y');
  EXPECT_TRUE(out.CloseFrame().ok());
  EXPECT_EQ(out.size(), 8u + kMaxFramePayload);
}

TEST(FrameBufferTest, FlushToAClosedPeerIsAnIOErrorAndEmptiesTheBuffer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  FrameBuffer out;
  ASSERT_TRUE(out.Append(kFrameDone, EncodeDone(Status::OK(), 0)).ok());
  EXPECT_TRUE(out.Flush(fds[0]).IsIOError());
  EXPECT_EQ(out.size(), 0u);
  ::close(fds[0]);
}

}  // namespace
}  // namespace rdfsum::server
