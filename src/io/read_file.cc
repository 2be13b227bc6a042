#include "io/read_file.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace rdfsum::io::internal {

Status ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Status::IOError(path + " is not a regular file");
  }
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return Status::IOError("cannot stat " + path);
  out->assign(static_cast<size_t>(size), '\0');
  if (size > 0 && !in.read(out->data(), static_cast<std::streamsize>(size))) {
    return Status::IOError("cannot read " + path);
  }
  return Status::OK();
}

}  // namespace rdfsum::io::internal
