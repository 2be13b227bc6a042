#include "server/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace rdfsum::server {
namespace {

/// read() until `n` bytes or EOF/error. False on short read.
bool ReadExact(int fd, char* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::read(fd, buf + done, n - done);
    if (r > 0) {
      done += static_cast<size_t>(r);
    } else if (r == 0) {
      return false;  // EOF
    } else if (errno != EINTR) {
      return false;
    }
  }
  return true;
}

/// send() everything. MSG_NOSIGNAL: a peer that hung up must surface as
/// EPIPE -> Status, not kill the process with SIGPIPE.
bool WriteExact(int fd, const char* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t w = ::send(fd, buf + done, n - done, MSG_NOSIGNAL);
    if (w > 0) {
      done += static_cast<size_t>(w);
    } else if (w < 0 && errno != EINTR) {
      return false;
    }
  }
  return true;
}

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, sizeof v); }

constexpr size_t kHeaderSize = 8;

/// The frame header: u32 length, u8 type, three zero bytes.
void AppendHeader(std::string* out, uint8_t type, uint32_t len) {
  AppendU32(out, len);
  AppendU8(out, type);
  out->append(3, '\0');
}

}  // namespace

Status ReadFrame(int fd, Frame* out) {
  char header[8];
  if (!ReadExact(fd, header, sizeof header)) {
    return Status::IOError("connection closed while reading frame header");
  }
  uint32_t len = LoadU32(header);
  out->type = static_cast<uint8_t>(header[4]);
  if (header[5] != 0 || header[6] != 0 || header[7] != 0) {
    return Status::Corruption("nonzero frame header padding");
  }
  if (len > kMaxFramePayload) {
    return Status::Corruption("frame payload length " + std::to_string(len) +
                              " exceeds limit");
  }
  out->payload.resize(len);
  if (len > 0 && !ReadExact(fd, out->payload.data(), len)) {
    return Status::IOError("connection closed mid-frame");
  }
  return Status::OK();
}

Status FrameBuffer::Append(uint8_t type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload too large");
  }
  AppendHeader(&buf_, type, static_cast<uint32_t>(payload.size()));
  buf_.append(payload);
  return Status::OK();
}

std::string* FrameBuffer::OpenFrame(uint8_t type) {
  open_at_ = buf_.size();
  AppendHeader(&buf_, type, 0);
  return &buf_;
}

Status FrameBuffer::CloseFrame() {
  const size_t len = buf_.size() - open_at_ - kHeaderSize;
  if (len > kMaxFramePayload) {
    buf_.resize(open_at_);
    return Status::InvalidArgument("frame payload too large");
  }
  StoreU32(buf_.data() + open_at_, static_cast<uint32_t>(len));
  return Status::OK();
}

Status FrameBuffer::Flush(int fd) {
  const bool sent = WriteExact(fd, buf_.data(), buf_.size());
  buf_.clear();
  if (!sent) return Status::IOError("peer closed connection");
  return Status::OK();
}

Status WriteFrame(int fd, uint8_t type, std::string_view payload) {
  FrameBuffer frame;
  RDFSUM_RETURN_IF_ERROR(frame.Append(type, payload));
  return frame.Flush(fd);
}

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU16(std::string* out, uint16_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

void AppendLenBytes(std::string* out, std::string_view bytes) {
  AppendU32(out, static_cast<uint32_t>(bytes.size()));
  out->append(bytes);
}

size_t StartLenBytes(std::string* out) {
  const size_t at = out->size();
  AppendU32(out, 0);
  return at;
}

void FinishLenBytes(std::string* out, size_t at) {
  StoreU32(out->data() + at,
           static_cast<uint32_t>(out->size() - at - sizeof(uint32_t)));
}

bool PayloadReader::ReadU8(uint8_t* v) {
  if (data_.size() - pos_ < 1) return false;
  *v = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool PayloadReader::ReadU16(uint16_t* v) {
  if (data_.size() - pos_ < sizeof *v) return false;
  std::memcpy(v, data_.data() + pos_, sizeof *v);
  pos_ += sizeof *v;
  return true;
}

bool PayloadReader::ReadU32(uint32_t* v) {
  if (data_.size() - pos_ < sizeof *v) return false;
  std::memcpy(v, data_.data() + pos_, sizeof *v);
  pos_ += sizeof *v;
  return true;
}

bool PayloadReader::ReadU64(uint64_t* v) {
  if (data_.size() - pos_ < sizeof *v) return false;
  std::memcpy(v, data_.data() + pos_, sizeof *v);
  pos_ += sizeof *v;
  return true;
}

bool PayloadReader::ReadLenBytes(std::string* v) {
  uint32_t len = 0;
  if (!ReadU32(&len)) return false;
  if (data_.size() - pos_ < len) return false;
  v->assign(data_.data() + pos_, len);
  pos_ += len;
  return true;
}

std::string EncodeQueryRequest(const QueryRequest& req) {
  std::string p;
  AppendU8(&p, req.planner);
  AppendU8(&p, 0);
  AppendU8(&p, 0);
  AppendU8(&p, 0);
  AppendU64(&p, req.limit);
  AppendU64(&p, req.offset);
  AppendU32(&p, req.timeout_ms);
  AppendU64(&p, req.max_rows);
  AppendLenBytes(&p, req.query);
  AppendU32(&p, req.parallelism);  // protocol 1.1 trailing field
  return p;
}

bool DecodeQueryRequest(std::string_view payload, QueryRequest* out) {
  PayloadReader r(payload);
  uint8_t pad;
  if (!(r.ReadU8(&out->planner) && r.ReadU8(&pad) && r.ReadU8(&pad) &&
        r.ReadU8(&pad) && r.ReadU64(&out->limit) &&
        r.ReadU64(&out->offset) && r.ReadU32(&out->timeout_ms) &&
        r.ReadU64(&out->max_rows) && r.ReadLenBytes(&out->query))) {
    return false;
  }
  // Protocol 1.1 optional trailing field: a 1.0 request ends here.
  out->parallelism = 0;
  if (r.AtEnd()) return true;
  return r.ReadU32(&out->parallelism) && r.AtEnd();
}

std::string EncodeDone(const Status& status, uint64_t rows) {
  std::string p;
  AppendU8(&p, static_cast<uint8_t>(status.code()));
  AppendU8(&p, 0);
  AppendU8(&p, 0);
  AppendU8(&p, 0);
  AppendU64(&p, rows);
  AppendLenBytes(&p, status.message());
  return p;
}

bool DecodeDone(std::string_view payload, DoneReply* out) {
  PayloadReader r(payload);
  uint8_t pad;
  return r.ReadU8(&out->code) && r.ReadU8(&pad) && r.ReadU8(&pad) &&
         r.ReadU8(&pad) && r.ReadU64(&out->rows) &&
         r.ReadLenBytes(&out->message) && r.AtEnd();
}

Status StatusFromWire(uint8_t code, std::string_view message) {
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(message);
    case Status::Code::kNotFound:
      return Status::NotFound(message);
    case Status::Code::kCorruption:
      return Status::Corruption(message);
    case Status::Code::kIOError:
      return Status::IOError(message);
    case Status::Code::kNotSupported:
      return Status::NotSupported(message);
    case Status::Code::kInternal:
      return Status::Internal(message);
    case Status::Code::kAlreadyExists:
      return Status::AlreadyExists(message);
    case Status::Code::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case Status::Code::kCancelled:
      return Status::Cancelled(message);
    case Status::Code::kResourceExhausted:
      return Status::ResourceExhausted(message);
  }
  return Status::Internal("unknown wire status code " + std::to_string(code) +
                          ": " + std::string(message));
}

}  // namespace rdfsum::server
