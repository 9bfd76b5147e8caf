#include "common/coding.h"

#include <algorithm>

namespace encompass {

namespace {

/// First capacity of an empty buffer: one allocation covers a typical
/// message payload or checkpoint delta.
constexpr size_t kFirstReserve = 64;

/// Makes room for `n` more bytes in one growth step: an empty buffer gets at
/// least kFirstReserve, a full one at least doubles. std::vector's own growth
/// would size an empty buffer to its first field and reallocate on nearly
/// every field after it.
void Grow(Bytes* dst, size_t n) {
  const size_t need = dst->size() + n;
  if (need > dst->capacity()) {
    dst->reserve(std::max({need, 2 * dst->capacity(), kFirstReserve}));
  }
}

/// The one append path of every Put*: each field is written in one step.
void Append(Bytes* dst, const uint8_t* p, size_t n) {
  Grow(dst, n);
  dst->insert(dst->end(), p, p + n);
}

template <typename T>
void PutFixed(Bytes* dst, T v) {
  uint8_t buf[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    buf[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  Append(dst, buf, sizeof(T));
}

/// LEB128 into buf (at least 10 bytes); returns the encoded length.
size_t EncodeVarint64(uint8_t* buf, uint64_t v) {
  size_t n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  buf[n++] = static_cast<uint8_t>(v);
  return n;
}

}  // namespace

void PutFixed8(Bytes* dst, uint8_t v) { Append(dst, &v, 1); }
void PutFixed16(Bytes* dst, uint16_t v) { PutFixed(dst, v); }
void PutFixed32(Bytes* dst, uint32_t v) { PutFixed(dst, v); }
void PutFixed64(Bytes* dst, uint64_t v) { PutFixed(dst, v); }

void PutVarint32(Bytes* dst, uint32_t v) { PutVarint64(dst, v); }

void PutVarint64(Bytes* dst, uint64_t v) {
  uint8_t buf[10];
  Append(dst, buf, EncodeVarint64(buf, v));
}

size_t VarintLength(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void PutLengthPrefixed(Bytes* dst, const Slice& value) {
  uint8_t buf[10];
  const size_t len = EncodeVarint64(buf, value.size());
  Grow(dst, len + value.size());  // prefix and value: one growth step
  Append(dst, buf, len);
  Append(dst, value.data(), value.size());
}

bool GetFixed8(Slice* input, uint8_t* v) {
  if (input->size() < 1) return false;
  *v = (*input)[0];
  input->RemovePrefix(1);
  return true;
}

bool GetFixed16(Slice* input, uint16_t* v) {
  if (input->size() < 2) return false;
  *v = static_cast<uint16_t>((*input)[0]) |
       (static_cast<uint16_t>((*input)[1]) << 8);
  input->RemovePrefix(2);
  return true;
}

bool GetFixed32(Slice* input, uint32_t* v) {
  if (input->size() < 4) return false;
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) r |= static_cast<uint32_t>((*input)[i]) << (8 * i);
  *v = r;
  input->RemovePrefix(4);
  return true;
}

bool GetFixed64(Slice* input, uint64_t* v) {
  if (input->size() < 8) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) r |= static_cast<uint64_t>((*input)[i]) << (8 * i);
  *v = r;
  input->RemovePrefix(8);
  return true;
}

bool GetVarint32(Slice* input, uint32_t* v) {
  uint64_t v64;
  if (!GetVarint64(input, &v64) || v64 > UINT32_MAX) return false;
  *v = static_cast<uint32_t>(v64);
  return true;
}

bool GetVarint64(Slice* input, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    uint8_t byte = (*input)[0];
    input->RemovePrefix(1);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;
}

bool GetLengthPrefixed(Slice* input, Slice* value) {
  uint64_t len;
  if (!GetVarint64(input, &len) || input->size() < len) return false;
  *value = Slice(input->data(), static_cast<size_t>(len));
  input->RemovePrefix(static_cast<size_t>(len));
  return true;
}

// The copying forms assign in place, so a reused destination keeps its
// buffer when the value fits.
bool GetLengthPrefixedBytes(Slice* input, Bytes* value) {
  Slice s;
  if (!GetLengthPrefixed(input, &s)) return false;
  value->assign(s.data(), s.data() + s.size());
  return true;
}

bool GetLengthPrefixedString(Slice* input, std::string* value) {
  Slice s;
  if (!GetLengthPrefixed(input, &s)) return false;
  value->assign(reinterpret_cast<const char*>(s.data()), s.size());
  return true;
}

}  // namespace encompass
