#pragma once
// Byte-string utilities shared by every layer of the system.
//
// All wire formats in this repository (transactions, blocks, ciphertexts,
// attestations) are defined over `Bytes`, a plain contiguous byte vector.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace zl {

using Bytes = std::vector<std::uint8_t>;

/// Hex-encode `data` (lowercase, no 0x prefix).
std::string to_hex(const Bytes& data);

/// Hex-encode an arbitrary buffer.
std::string to_hex(const std::uint8_t* data, std::size_t len);

/// Decode a hex string (with or without 0x prefix). Throws std::invalid_argument
/// on odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Interpret a UTF-8/ASCII string as bytes.
Bytes to_bytes(std::string_view s);

/// Concatenate any number of byte strings.
Bytes concat(std::initializer_list<Bytes> parts);

/// Append big-endian fixed-width integers (used by canonical serialization).
void append_u32_be(Bytes& out, std::uint32_t v);
void append_u64_be(Bytes& out, std::uint64_t v);

/// Append a length-prefixed (u32) byte string. This is the canonical
/// TLV-free framing used by all serialized structures in the repo;
/// ByteReader::frame(cap) below reads it back.
void append_frame(Bytes& out, const Bytes& part);

/// Every malformed encoding — truncation, a length prefix over its declared
/// cap, trailing bytes, a bad discriminant — surfaces as DecodeError. It
/// derives from std::invalid_argument so the existing catch sites around
/// gossip decode, contract-state restore, and WAL replay all keep working.
class DecodeError : public std::invalid_argument {
 public:
  explicit DecodeError(const std::string& what)
      : std::invalid_argument("decode: " + what) {}
};

/// Bounds-checked forward cursor over an untrusted byte string — the one
/// sanctioned way to parse wire bytes (transactions, blocks, proofs, WAL
/// records, snapshots). Every read is range-checked with overflow-safe
/// arithmetic (the invariant offset <= size means `n > size - offset` can
/// never wrap, unlike the `offset + n > size` shape zl-lint's
/// unchecked-length rule now forbids), and every variable-length read takes
/// an explicit caller-declared cap, so a 4-byte length prefix can never
/// drive an unbounded allocation. Decoders finish with expect_end() to
/// reject non-canonical (trailing-garbage) encodings.
///
/// The reader borrows the input; it must not outlive the Bytes it reads.
class ByteReader {
 public:
  /// `what` names the structure being decoded and prefixes every error.
  explicit ByteReader(const Bytes& in, const char* what = "bytes")
      : data_(in.data()), size_(in.size()), what_(what) {}

  ByteReader(const std::uint8_t* data, std::size_t size, const char* what = "bytes")
      : data_(data), size_(size), what_(what) {}

  std::uint8_t u8();
  std::uint32_t u32();  // big-endian
  std::uint64_t u64();  // big-endian

  /// Copy exactly `n` bytes out (fixed-size fields: hashes, points, tags).
  Bytes take(std::size_t n);

  /// Read a u32 length prefix, reject it if over `cap` *before* touching the
  /// payload or allocating, then copy the payload. `cap` is mandatory: each
  /// call site declares how big that field is allowed to be.
  Bytes frame(std::size_t cap);

  /// Read a u32 element count, rejecting it if over `cap`. The bound makes a
  /// follow-up resize/reserve safe (zl-lint's unbounded-resize rule flags
  /// sizing containers from the uncapped u32()/u64() reads instead).
  std::uint32_t count(std::uint32_t cap);

  void skip(std::size_t n);

  std::size_t offset() const { return off_; }
  std::size_t remaining() const { return size_ - off_; }
  bool at_end() const { return off_ == size_; }

  /// Canonical-length check: throws DecodeError unless every byte was
  /// consumed. Trailing garbage must not survive — two encodings that decode
  /// to the same value but hash differently would split consensus.
  void expect_end() const;

 private:
  [[noreturn]] void fail(const char* detail) const;
  /// Throws unless `n <= remaining()`; never computes off_ + n.
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
  const char* what_;
};

/// Constant-time equality (for MAC/tag comparison).
bool ct_equal(const Bytes& a, const Bytes& b);

/// Wipe a buffer through a compiler barrier so the store cannot be elided as
/// a dead write. Every secret-key destructor routes through this (zl-lint's
/// secret-zeroize rule enforces that).
void secure_zero(void* p, std::size_t n);
void secure_zero(Bytes& b);

}  // namespace zl
