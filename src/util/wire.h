// The one wire codec: every byte that crosses a worker boundary, a process
// boundary or the spill store is written by WireWriter and read back by
// WireReader, and every length-framed stream is reassembled by
// FrameReader (DESIGN.md §2, "Wire codec").
//
// All integers are little-endian. A blob or string is [u32 length |
// bytes]; a section is the same shape around an encoded body whose length
// is patched in after the body is written. A stream frame is [u32 LE
// length | payload]: writers append one with Blob() or a section, and
// FrameReader cuts a byte stream back into payloads.
//
// Bounds rule: a reader never trusts a length or a count beyond the bytes
// it holds. Every fixed-width read, blob and section checks the remaining
// bytes first; Count(min_entry_bytes) checks that the claimed entries can
// fit before the caller reserves for them. Any violation — and any
// out-of-range enum or trailing byte the format forbids — throws
// util::WireFormatError, so corrupt or hostile bytes fail with a catchable
// error, never an abort or an absurd allocation.
//
// Everything on the hot paths (route batches, BDD blobs, messages) is
// header-inline; only the throw paths live in wire.cc.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace s2::util {

// Cold throw paths (wire.cc).
[[noreturn]] void ThrowTruncated(size_t need, size_t pos, size_t size);
[[noreturn]] void ThrowCountExceeds(uint64_t count, size_t min_entry_bytes,
                                    size_t remaining);
[[noreturn]] void ThrowOutOfRange(uint8_t value, size_t pos);
[[noreturn]] void ThrowTrailing(const char* what, size_t extra);
[[noreturn]] void ThrowFrameTooLong(uint32_t len, size_t cap);

// Appends to a byte vector it does not own.
class WireWriter {
 public:
  explicit WireWriter(std::vector<uint8_t>& out) : out_(&out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U32(uint32_t v) {
    const uint8_t b[4] = {
        static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8),
        static_cast<uint8_t>(v >> 16), static_cast<uint8_t>(v >> 24)};
    out_->insert(out_->end(), b, b + 4);
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }
  void F64(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bool(bool v) { U8(v ? 1 : 0); }

  // [u32 length | bytes]: a blob, or one stream frame.
  void Blob(std::span<const uint8_t> bytes) {
    U32(static_cast<uint32_t>(bytes.size()));
    out_->insert(out_->end(), bytes.begin(), bytes.end());
  }
  void String(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }
  // Count-prefixed u32 values.
  void U32List(const std::vector<uint32_t>& values) {
    U32(static_cast<uint32_t>(values.size()));
    for (uint32_t v : values) U32(v);
  }
  // Count-prefixed u32 -> blob map, in key order.
  void BlobMap(const std::map<uint32_t, std::vector<uint8_t>>& blobs) {
    U32(static_cast<uint32_t>(blobs.size()));
    for (const auto& [key, blob] : blobs) {
      U32(key);
      Blob(blob);
    }
  }

  // A length-prefixed section encoded in place: BeginSection reserves the
  // u32 slot, EndSection patches it with the bytes written since. Same
  // bytes as Blob() of the body, without a scratch copy.
  size_t BeginSection() {
    size_t slot = out_->size();
    U32(0);
    return slot;
  }
  void EndSection(size_t slot) {
    const size_t len = out_->size() - slot - 4;
    uint8_t* p = out_->data() + slot;
    p[0] = static_cast<uint8_t>(len);
    p[1] = static_cast<uint8_t>(len >> 8);
    p[2] = static_cast<uint8_t>(len >> 16);
    p[3] = static_cast<uint8_t>(len >> 24);
  }

 private:
  std::vector<uint8_t>* out_;
};

// Reads a byte span it does not own; every read throws WireFormatError
// instead of running past the end.
class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> bytes, size_t pos = 0)
      : bytes_(bytes), pos_(pos) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  uint8_t U8() {
    Need(1);
    return bytes_[pos_++];
  }
  uint32_t U32() {
    Need(4);
    const uint8_t* p = bytes_.data() + pos_;
    pos_ += 4;
    return uint32_t{p[0]} | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16) |
           (uint32_t{p[3]} << 24);
  }
  uint64_t U64() {
    uint64_t lo = U32();
    return lo | (uint64_t{U32()} << 32);
  }
  double F64() {
    uint64_t bits = U64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  // A 0/1 byte; anything else is malformed.
  bool Bool() { return Enum<uint8_t>(1) != 0; }
  // A one-byte enum in [min, max].
  template <typename T>
  T Enum(T max, T min = T{}) {
    static_assert(sizeof(T) == 1);
    const uint8_t raw = U8();
    if (raw < static_cast<uint8_t>(min) || raw > static_cast<uint8_t>(max)) {
      ThrowOutOfRange(raw, pos_ - 1);
    }
    return static_cast<T>(raw);
  }

  // The next `n` raw bytes, as a view into the input.
  std::span<const uint8_t> Bytes(size_t n) {
    Need(n);
    std::span<const uint8_t> view = bytes_.subspan(pos_, n);
    pos_ += n;
    return view;
  }
  // A [u32 length | bytes] blob, viewed or copied.
  std::span<const uint8_t> BlobView() { return Bytes(U32()); }
  std::vector<uint8_t> Blob() {
    std::span<const uint8_t> view = BlobView();
    return std::vector<uint8_t>(view.begin(), view.end());
  }
  std::string String() {
    std::span<const uint8_t> view = BlobView();
    return std::string(view.begin(), view.end());
  }
  std::vector<uint32_t> U32List() {
    std::vector<uint32_t> values(Count(4));
    for (uint32_t& v : values) v = U32();
    return values;
  }
  std::map<uint32_t, std::vector<uint8_t>> BlobMap() {
    std::map<uint32_t, std::vector<uint8_t>> blobs;
    const size_t count = Count(8);  // key + blob length
    for (size_t i = 0; i < count; ++i) {
      const uint32_t key = U32();
      blobs[key] = Blob();
    }
    return blobs;
  }

  // A u32 entry count, checked against the remaining bytes (each entry
  // takes at least `min_entry_bytes`) before anyone reserves for it.
  size_t Count(size_t min_entry_bytes) {
    const uint32_t count = U32();
    if (count > remaining() / min_entry_bytes) {
      ThrowCountExceeds(count, min_entry_bytes, remaining());
    }
    return count;
  }

  // A length-prefixed section as a sub-reader over the same bytes.
  WireReader Section() { return WireReader(BlobView()); }

  // Throws unless every byte was consumed.
  void ExpectEnd(const char* what) const {
    if (pos_ != bytes_.size()) ThrowTrailing(what, bytes_.size() - pos_);
  }

 private:
  void Need(size_t n) const {
    if (n > bytes_.size() - pos_) ThrowTruncated(n, pos_, bytes_.size());
  }

  std::span<const uint8_t> bytes_;
  size_t pos_;
};

// Cuts a byte stream into [u32 LE length | payload] frames as the bytes
// arrive, in whatever pieces the transport delivers them. A length above
// the cap throws before any byte of that frame is buffered for it.
// Consumed frames are dropped once per Feed, not once per frame.
class FrameReader {
 public:
  explicit FrameReader(size_t max_payload) : max_payload_(max_payload) {}

  void Feed(const uint8_t* data, size_t n) {
    if (pos_ > 0) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
      pos_ = 0;
    }
    buf_.insert(buf_.end(), data, data + n);
  }

  // The next complete payload, viewed in the buffer until the next Feed.
  bool Next(std::span<const uint8_t>* payload) {
    if (buffered() < 4) return false;
    const uint32_t len = WireReader(buf_, pos_).U32();
    if (len > max_payload_) ThrowFrameTooLong(len, max_payload_);
    if (buffered() - 4 < len) return false;
    *payload = std::span<const uint8_t>(buf_).subspan(pos_ + 4, len);
    pos_ += 4 + static_cast<size_t>(len);
    return true;
  }

  // The next `n` unframed bytes (a connection preamble), if buffered.
  bool Take(size_t n, std::span<const uint8_t>* bytes) {
    if (buffered() < n) return false;
    *bytes = std::span<const uint8_t>(buf_).subspan(pos_, n);
    pos_ += n;
    return true;
  }

  // Bytes received but not yet handed out: a partial frame at EOF.
  size_t buffered() const { return buf_.size() - pos_; }
  void Clear() {
    buf_.clear();
    pos_ = 0;
  }

 private:
  size_t max_payload_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
};

}  // namespace s2::util
