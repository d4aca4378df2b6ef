#include "util/wire.h"

namespace s2::util {

void ThrowTruncated(size_t need, size_t pos, size_t size) {
  throw WireFormatError("truncated: " + std::to_string(need) +
                        " bytes wanted at offset " + std::to_string(pos) +
                        " of " + std::to_string(size));
}

void ThrowCountExceeds(uint64_t count, size_t min_entry_bytes,
                       size_t remaining) {
  throw WireFormatError("count " + std::to_string(count) + " of " +
                        std::to_string(min_entry_bytes) +
                        "-byte entries exceeds the " +
                        std::to_string(remaining) + " remaining bytes");
}

void ThrowOutOfRange(uint8_t value, size_t pos) {
  throw WireFormatError("enum byte " + std::to_string(value) +
                        " out of range at offset " + std::to_string(pos));
}

void ThrowTrailing(const char* what, size_t extra) {
  throw WireFormatError(std::to_string(extra) + " trailing bytes after " +
                        what);
}

void ThrowFrameTooLong(uint32_t len, size_t cap) {
  throw WireFormatError("frame length " + std::to_string(len) +
                        " exceeds the cap of " + std::to_string(cap));
}

}  // namespace s2::util
