#ifndef RDFSUM_SERVER_WIRE_H_
#define RDFSUM_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace rdfsum::server {

/// The rdfsum serve wire protocol (normative spec: docs/PROTOCOL.md): a
/// stream of length-prefixed binary frames over a byte-stream socket. Every
/// frame is an 8-byte header — u32 payload length, u8 frame type, 3 zero
/// bytes — followed by the payload. All integers are little-endian. This
/// header is shared by the server's connection handler and the client
/// library so the two ends can never disagree on the framing.

/// Protocol version. Major must match between client and server (the client
/// rejects a mismatched HELLO); minor is additive-only.
inline constexpr uint16_t kProtocolMajor = 1;
inline constexpr uint16_t kProtocolMinor = 1;  // 1.1 adds QueryRequest.parallelism

/// Magic leading the HELLO payload.
inline constexpr char kHelloMagic[4] = {'R', 'S', 'R', 'V'};

/// Upper bound on a frame payload; a longer length prefix is corruption
/// (the peer is broken or hostile), never an allocation.
inline constexpr uint32_t kMaxFramePayload = 16u << 20;

/// Frame types. Server -> client: kHello (once, on connect), kRow/kText,
/// and kDone (terminates every request). Client -> server: kQuery, kStats,
/// kReload, kShutdown, kCancel. Values are wire-stable; add, never renumber.
inline constexpr uint8_t kFrameHello = 0x01;
inline constexpr uint8_t kFrameQuery = 0x10;
inline constexpr uint8_t kFrameStats = 0x11;
inline constexpr uint8_t kFrameReload = 0x12;
inline constexpr uint8_t kFrameShutdown = 0x13;
inline constexpr uint8_t kFrameCancel = 0x14;
inline constexpr uint8_t kFrameRow = 0x20;
inline constexpr uint8_t kFrameDone = 0x21;
inline constexpr uint8_t kFrameText = 0x22;

struct Frame {
  uint8_t type = 0;
  std::string payload;
};

/// Blocking exact-read of one frame. kIOError on EOF/reset mid-frame,
/// kCorruption on an over-limit length prefix or nonzero header padding.
Status ReadFrame(int fd, Frame* out);

/// Outgoing frames collected back to back in one buffer, so that many
/// frames leave in one send(). The bytes on the wire are exactly the
/// frames' bytes; only the number of writes depends on when the owner
/// flushes.
class FrameBuffer {
 public:
  /// Appends one frame (header + payload). kInvalidArgument, with nothing
  /// appended, when the payload exceeds kMaxFramePayload.
  Status Append(uint8_t type, std::string_view payload);

  /// Opens a frame of `type`: the caller appends its payload straight to
  /// the returned string, then calls CloseFrame, which patches the length
  /// into the header. One frame is open at a time.
  std::string* OpenFrame(uint8_t type);

  /// Closes the open frame. kInvalidArgument when its payload exceeds
  /// kMaxFramePayload; the frame is then dropped, leaving the buffer as it
  /// was before OpenFrame.
  Status CloseFrame();

  /// Sends every buffered byte and empties the buffer (also on failure,
  /// when the connection is unusable anyway). kIOError when the peer is
  /// gone.
  Status Flush(int fd);

  /// Buffered bytes, the open frame included.
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
  size_t open_at_ = 0;  // header offset of the open frame
};

/// Blocking write of one frame (header + payload) in one send().
/// kInvalidArgument, with no byte written, when the payload exceeds
/// kMaxFramePayload; kIOError when the peer is gone.
Status WriteFrame(int fd, uint8_t type, std::string_view payload);

// ---- payload building / parsing ---------------------------------------

void AppendU8(std::string* out, uint8_t v);
void AppendU16(std::string* out, uint16_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
/// u32 length followed by the bytes.
void AppendLenBytes(std::string* out, std::string_view bytes);
/// Len-bytes written in place: StartLenBytes appends a u32 placeholder and
/// returns its offset; FinishLenBytes patches it with the number of bytes
/// appended after it.
size_t StartLenBytes(std::string* out);
void FinishLenBytes(std::string* out, size_t at);

/// Bounds-checked forward reader over a frame payload. Every Read* returns
/// false on underrun instead of reading past the end — a malformed payload
/// is a protocol error the caller reports, never UB.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  bool ReadU8(uint8_t* v);
  bool ReadU16(uint16_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  /// Reads a u32 length prefix then that many bytes.
  bool ReadLenBytes(std::string* v);

  /// True when the whole payload was consumed — trailing junk is malformed.
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// ---- request / response payloads ---------------------------------------

/// kFrameQuery payload. Zero means "server default" for every limit field.
struct QueryRequest {
  uint8_t planner = 1;  // 0 naive, 1 greedy, 2 summary
  uint64_t limit = 0;   // distinct rows after dedup; 0 = unlimited
  uint64_t offset = 0;  // distinct rows skipped before the first emitted
  uint32_t timeout_ms = 0;
  uint64_t max_rows = 0;
  std::string query;  // SPARQL text
  /// Requested intra-query fan-out (protocol 1.1, optional trailing field):
  /// 0 = server default, 1 = sequential, k = k morsel workers (the server
  /// clamps to its max and admission-controls the extra slots). A 1.0
  /// client simply omits it; the server reads 0.
  uint32_t parallelism = 0;
};

std::string EncodeQueryRequest(const QueryRequest& req);
bool DecodeQueryRequest(std::string_view payload, QueryRequest* out);

/// kFrameDone payload: the request's final Status plus the number of row
/// frames that preceded it.
struct DoneReply {
  uint8_t code = 0;  // static_cast<uint8_t>(Status::Code); wire-stable
  uint64_t rows = 0;
  std::string message;
};

std::string EncodeDone(const Status& status, uint64_t rows);
bool DecodeDone(std::string_view payload, DoneReply* out);

/// Reconstructs a Status from a DONE frame. Unknown codes map to kInternal
/// (a newer server may speak codes this client predates).
Status StatusFromWire(uint8_t code, std::string_view message);

}  // namespace rdfsum::server

#endif  // RDFSUM_SERVER_WIRE_H_
