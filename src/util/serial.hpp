// Binary serialization used by the RAVE wire protocol. Everything is
// little-endian and explicitly sized, so a scene serialized on one host
// deserializes identically on any other — the paper's heterogeneous-
// endianness requirement (SGI IRIX big-endian talking to x86) is met by
// fixing the wire byte order instead of sending XML for bulk data.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/result.hpp"
#include "util/vec.hpp"

namespace rave::util {

class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(uint8_t v) { buf_.push_back(v); }
  void u16(uint16_t v) { append_le(v); }
  void u32(uint32_t v) { append_le(v); }
  void u64(uint64_t v) { append_le(v); }
  void i32(int32_t v) { append_le(static_cast<uint32_t>(v)); }
  void i64(int64_t v) { append_le(static_cast<uint64_t>(v)); }

  void f32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    append_le(bits);
  }
  void f64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    append_le(bits);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void bytes(std::span<const uint8_t> data) {
    u32(static_cast<uint32_t>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  // Raw append without a length prefix (caller frames it).
  void raw(std::span<const uint8_t> data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

  void vec3(const Vec3& v) {
    f32(v.x);
    f32(v.y);
    f32(v.z);
  }

  void mat4(const Mat4& m) {
    for (float f : m.m) f32(f);
  }

  void f32_span(std::span<const float> data) {
    u32(static_cast<uint32_t>(data.size()));
    const size_t off = buf_.size();
    buf_.resize(off + data.size() * 4);
    for (size_t i = 0; i < data.size(); ++i) {
      uint32_t bits;
      std::memcpy(&bits, &data[i], 4);
      put_le(off + i * 4, bits);
    }
  }

  void u32_span(std::span<const uint32_t> data) {
    u32(static_cast<uint32_t>(data.size()));
    const size_t off = buf_.size();
    buf_.resize(off + data.size() * 4);
    for (size_t i = 0; i < data.size(); ++i) put_le(off + i * 4, data[i]);
  }

  [[nodiscard]] const std::vector<uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    const size_t off = buf_.size();
    buf_.resize(off + sizeof(T));
    put_le(off, v);
  }

  template <typename T>
  void put_le(size_t off, T v) {
    for (size_t i = 0; i < sizeof(T); ++i) buf_[off + i] = static_cast<uint8_t>(v >> (8 * i));
  }

  std::vector<uint8_t> buf_;
};

// Reader over a borrowed byte span. Over-reads set an error flag instead of
// invoking UB; callers check ok() once after a batch of reads.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t u8() { return read_le<uint8_t>(); }
  uint16_t u16() { return read_le<uint16_t>(); }
  uint32_t u32() { return read_le<uint32_t>(); }
  uint64_t u64() { return read_le<uint64_t>(); }
  int32_t i32() { return static_cast<int32_t>(read_le<uint32_t>()); }
  int64_t i64() { return static_cast<int64_t>(read_le<uint64_t>()); }

  float f32() {
    const uint32_t bits = read_le<uint32_t>();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  double f64() {
    const uint64_t bits = read_le<uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool boolean() { return u8() != 0; }

  std::string str() {
    const uint32_t n = u32();
    if (!check(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<uint8_t> bytes() {
    const std::span<const uint8_t> v = view();
    return {v.begin(), v.end()};
  }

  // The length-prefixed run bytes() copies, as a view into the reader's
  // input (empty, and ok() false, when truncated).
  std::span<const uint8_t> view() {
    const uint32_t n = u32();
    if (!check(n)) return {};
    const std::span<const uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  Vec3 vec3() {
    Vec3 v;
    v.x = f32();
    v.y = f32();
    v.z = f32();
    return v;
  }

  Mat4 mat4() {
    Mat4 m;
    for (float& f : m.m) f = f32();
    return m;
  }

  std::vector<float> f32_span() {
    const uint32_t n = u32();
    std::vector<float> out;
    if (!check(static_cast<size_t>(n) * 4)) return out;
    out.resize(n);
    for (uint32_t i = 0; i < n; ++i) out[i] = f32();
    return out;
  }

  std::vector<uint32_t> u32_span() {
    const uint32_t n = u32();
    std::vector<uint32_t> out;
    if (!check(static_cast<size_t>(n) * 4)) return out;
    out.resize(n);
    for (uint32_t i = 0; i < n; ++i) out[i] = u32();
    return out;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] size_t position() const { return pos_; }

 private:
  bool check(size_t n) {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <typename T>
  T read_le() {
    if (!check(sizeof(T))) return T{};
    T v{};
    for (size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | (static_cast<uint64_t>(data_[pos_ + i]) << (8 * i)));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Base64 codec — SOAP payloads carry binary data (framebuffers in fallback
// paths, WSDL attachments) base64-encoded, matching the paper's plain-text
// transport constraint.
std::string base64_encode(std::span<const uint8_t> data);
Result<std::vector<uint8_t>> base64_decode(const std::string& text);

}  // namespace rave::util
