#ifndef RDFSUM_IO_READ_FILE_H_
#define RDFSUM_IO_READ_FILE_H_

#include <string>

#include "util/status.h"

namespace rdfsum::io::internal {

/// Reads the whole regular file at `path` into `*out`, the buffer both
/// parsers' ParseFile hands to ParseString. A path that cannot be opened,
/// is not a regular file (a directory opens as a stream on Linux and
/// reports a bogus size) or cannot be sized or read is an IOError.
Status ReadFile(const std::string& path, std::string* out);

}  // namespace rdfsum::io::internal

#endif  // RDFSUM_IO_READ_FILE_H_
