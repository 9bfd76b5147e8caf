// Binary serialization primitives: little-endian fixed ints, LEB128 varints,
// and length-prefixed strings. Used for audit records, checkpoint deltas,
// message payloads, and on-disc block layouts.

#ifndef ENCOMPASS_COMMON_CODING_H_
#define ENCOMPASS_COMMON_CODING_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace encompass {

// ---------------------------------------------------------------------------
// Encoders: append to a Bytes buffer.
// ---------------------------------------------------------------------------

void PutFixed8(Bytes* dst, uint8_t v);
void PutFixed16(Bytes* dst, uint16_t v);
void PutFixed32(Bytes* dst, uint32_t v);
void PutFixed64(Bytes* dst, uint64_t v);
void PutVarint32(Bytes* dst, uint32_t v);
void PutVarint64(Bytes* dst, uint64_t v);
/// varint length followed by raw bytes.
void PutLengthPrefixed(Bytes* dst, const Slice& value);

/// Encoded size of a varint, and of a length-prefixed value — for encoders
/// that size their buffer exactly before writing.
size_t VarintLength(uint64_t v);
inline size_t LengthPrefixedSize(const Slice& value) {
  return VarintLength(value.size()) + value.size();
}

// ---------------------------------------------------------------------------
// Decoders: consume from the front of a Slice; return false on underflow or
// malformed input (the Slice is left in an unspecified position on failure).
// ---------------------------------------------------------------------------

bool GetFixed8(Slice* input, uint8_t* v);
bool GetFixed16(Slice* input, uint16_t* v);
bool GetFixed32(Slice* input, uint32_t* v);
bool GetFixed64(Slice* input, uint64_t* v);
bool GetVarint32(Slice* input, uint32_t* v);
bool GetVarint64(Slice* input, uint64_t* v);
bool GetLengthPrefixed(Slice* input, Slice* value);
/// Copying form of GetLengthPrefixed.
bool GetLengthPrefixedBytes(Slice* input, Bytes* value);
bool GetLengthPrefixedString(Slice* input, std::string* value);

/// Convenience: Corruption status when a decode fails.
inline Status DecodeError(const char* what) {
  return Status::Corruption(std::string("decode failed: ") + what);
}

}  // namespace encompass

#endif  // ENCOMPASS_COMMON_CODING_H_
