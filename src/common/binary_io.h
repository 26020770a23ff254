// Little-endian binary (de)serialization for checkpoint blobs.
//
// BinaryWriter appends fixed-width primitives to a std::string;
// BinaryReader consumes them with bounds checking, turning truncated or
// corrupt input into InvalidArgument instead of undefined behaviour. Both
// sides fix the byte order, so blobs written on one host parse on any
// other. Used by SimStream checkpoints and the checkpointable policies.
//
// Vectors of fixed-width scalars go through one codec, PutVector/Vector
// (u64 count prefix) and PutArray/Array (count known to the reader), so
// every state blob bounds its counts the same way.

#ifndef SPES_COMMON_BINARY_IO_H_
#define SPES_COMMON_BINARY_IO_H_

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace spes {

/// \brief An element type of the fixed-width vector codec: a non-bool
/// integer or a double, encoded in sizeof(T) little-endian bytes (a
/// double as its IEEE-754 bit pattern).
template <typename T>
concept FixedWidthElement =
    (std::is_integral_v<T> && !std::is_same_v<T, bool>) ||
    std::is_same_v<T, double>;

/// The unsigned integer of an element's width that carries its bits.
template <FixedWidthElement T>
using FixedBits =
    typename std::conditional_t<std::is_same_v<T, double>,
                                std::type_identity<uint64_t>,
                                std::make_unsigned<T>>::type;

/// \brief Append-only little-endian encoder.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI32(int32_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(v); }
  /// \brief Exact bit pattern of the double (IEEE-754, little-endian), so
  /// a round trip is bitwise lossless.
  void PutDouble(double v) { PutFixed(v); }

  /// \brief Length-prefixed byte string.
  void PutBytes(const std::string& bytes) {
    PutU64(bytes.size());
    out_.append(bytes);
  }

  /// \brief A u64 element count, then the elements (see PutArray).
  template <FixedWidthElement T>
  void PutVector(const std::vector<T>& values) {
    PutU64(values.size());
    PutArray(values);
  }

  /// \brief The elements alone, sizeof(T) bytes each: for arrays whose
  /// count the reader already knows. Inverse of BinaryReader::Array.
  template <FixedWidthElement T>
  void PutArray(const std::vector<T>& values) {
    for (const T v : values) PutFixed(v);
  }

  /// \name LEB128 varints (canonical form)
  ///
  /// Seven payload bits per byte, least-significant group first, high bit
  /// as the continuation flag. The encoder always emits the minimal form,
  /// which is what the readers below accept — so varint fields are
  /// byte-for-byte canonical and a re-encode of parsed data reproduces the
  /// input exactly. A uint64_t takes at most 10 bytes.
  /// @{
  void PutVarU64(uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    out_.push_back(static_cast<char>(v));
  }
  void PutVarU32(uint32_t v) { PutVarU64(v); }

  /// \brief Varint-length-prefixed byte string (compact alternative to
  /// PutBytes for high-multiplicity records such as trace-file tables).
  void PutVarBytes(const std::string& bytes) {
    PutVarU64(bytes.size());
    out_.append(bytes);
  }
  /// @}

  [[nodiscard]] const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  template <FixedWidthElement T>
  void PutFixed(T value) {
    const auto v = std::bit_cast<FixedBits<T>>(value);
    for (size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string out_;
};

/// \brief Bounds-checked little-endian decoder over a borrowed buffer.
/// The buffer must outlive the reader.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& in) : in_(in) {}
  /// A temporary would dangle the moment the constructor returns (the
  /// reader borrows the buffer); make that a compile error.
  explicit BinaryReader(const std::string&& in) = delete;

  Result<uint8_t> U8() {
    SPES_RETURN_NOT_OK(Need(1));
    return static_cast<uint8_t>(in_[pos_++]);
  }
  /// \brief A PutBool byte: 0 or 1. Any other byte is rejected, so every
  /// accepted blob re-encodes to itself.
  Result<bool> Bool() {
    SPES_ASSIGN_OR_RETURN(const uint8_t v, U8());
    if (v > 1) {
      return Status::InvalidArgument(
          "corrupt blob: bool byte (=" + std::to_string(v) +
          ") at offset " + std::to_string(pos_ - 1) + " is neither 0 nor 1");
    }
    return v == 1;
  }
  Result<uint32_t> U32() { return Fixed<uint32_t>(); }
  Result<uint64_t> U64() { return Fixed<uint64_t>(); }
  Result<int32_t> I32() { return Fixed<int32_t>(); }
  Result<int64_t> I64() { return Fixed<int64_t>(); }
  Result<double> Double() { return Fixed<double>(); }
  Result<std::string> Bytes() {
    SPES_ASSIGN_OR_RETURN(const uint64_t size, U64());
    // Need() compares the announced size against the bytes remaining in
    // 64-bit arithmetic, so a hostile length field near UINT64_MAX is
    // rejected here — it can neither wrap the cursor nor reach substr
    // (where size_t narrowing on a 32-bit host could otherwise truncate).
    SPES_RETURN_NOT_OK(Need(size));
    std::string bytes = in_.substr(pos_, static_cast<size_t>(size));
    pos_ += static_cast<size_t>(size);
    return bytes;
  }

  /// \brief Inverse of BinaryWriter::PutVector. The count is bounded
  /// with Length(sizeof(T)) before anything is allocated.
  template <FixedWidthElement T>
  Result<std::vector<T>> Vector() {
    SPES_ASSIGN_OR_RETURN(const uint64_t count, Length(sizeof(T)));
    return Array<T>(count);
  }

  /// \brief Inverse of BinaryWriter::PutArray: `count` elements whose
  /// count the caller already read or knows. A count the remaining bytes
  /// cannot hold is rejected before anything is allocated.
  template <FixedWidthElement T>
  Result<std::vector<T>> Array(uint64_t count) {
    SPES_RETURN_NOT_OK(Bounded(count, sizeof(T)).status());
    std::vector<T> values(static_cast<size_t>(count));
    for (T& v : values) v = RawFixed<T>();
    return values;
  }

  /// \name Hardened LEB128 varint decoding
  ///
  /// Rejects three classes of hostile input with InvalidArgument: values
  /// that overflow the target width, encodings longer than the maximal
  /// 10-byte form (a continuation chain that never terminates in range),
  /// and non-minimal encodings (a redundant trailing 0x00 group, e.g.
  /// `80 00` for zero) — so every accepted varint has exactly one byte
  /// representation and re-encoding reproduces the input.
  /// @{
  Result<uint64_t> VarU64() {
    uint64_t value = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
      SPES_ASSIGN_OR_RETURN(const uint8_t byte, U8());
      const uint64_t group = byte & 0x7f;
      if (shift == 63 && group > 1) {
        return Status::InvalidArgument(
            "corrupt varint: value overflows uint64 at offset " +
            std::to_string(pos_ - 1));
      }
      value |= group << shift;
      if ((byte & 0x80) == 0) {
        if (shift > 0 && byte == 0) {
          return Status::InvalidArgument(
              "corrupt varint: non-minimal encoding at offset " +
              std::to_string(pos_ - 1));
        }
        return value;
      }
    }
    return Status::InvalidArgument(
        "corrupt varint: continuation past the 10-byte maximum at offset " +
        std::to_string(pos_));
  }
  Result<uint32_t> VarU32() {
    SPES_ASSIGN_OR_RETURN(const uint64_t v, VarU64());
    if (v > UINT32_MAX) {
      return Status::InvalidArgument(
          "corrupt varint: value " + std::to_string(v) +
          " overflows uint32 before offset " + std::to_string(pos_));
    }
    return static_cast<uint32_t>(v);
  }

  /// \brief Varint-length-prefixed byte string (inverse of PutVarBytes),
  /// with the announced size validated against the bytes remaining before
  /// any allocation happens.
  Result<std::string> VarBytes() {
    SPES_ASSIGN_OR_RETURN(const uint64_t size, VarU64());
    SPES_RETURN_NOT_OK(Need(size));
    std::string bytes = in_.substr(pos_, static_cast<size_t>(size));
    pos_ += static_cast<size_t>(size);
    return bytes;
  }

  /// \brief Varint element count, validated like Length().
  Result<uint64_t> VarLength(uint64_t min_element_bytes) {
    SPES_ASSIGN_OR_RETURN(const uint64_t count, VarU64());
    return Bounded(count, min_element_bytes);
  }
  /// @}

  /// \brief A length announced in the blob, validated against the bytes
  /// actually remaining so a corrupt count cannot drive a huge allocation:
  /// `count` elements need at least count * min_element_bytes bytes.
  /// `min_element_bytes` is the smallest encoding of one element and must
  /// be positive (a zero would disable the bound — programming error).
  Result<uint64_t> Length(uint64_t min_element_bytes) {
    SPES_ASSIGN_OR_RETURN(const uint64_t count, U64());
    return Bounded(count, min_element_bytes);
  }

  [[nodiscard]] bool AtEnd() const { return pos_ == in_.size(); }
  [[nodiscard]] size_t remaining() const { return in_.size() - pos_; }

 private:
  /// `count` elements of at least `min_element_bytes` each, checked
  /// against the remaining input. The comparison is phrased as a division
  /// so it cannot overflow.
  Result<uint64_t> Bounded(uint64_t count, uint64_t min_element_bytes) const {
    if (min_element_bytes == 0) {
      return Status::Internal("a blob length needs a positive element size");
    }
    if (count > (in_.size() - pos_) / min_element_bytes) {
      return Status::InvalidArgument(
          "corrupt blob: element count (=" + std::to_string(count) +
          ") exceeds the remaining " + std::to_string(in_.size() - pos_) +
          " bytes");
    }
    return count;
  }

  /// All comparisons run on uint64_t with pos_ <= in_.size() as the loop
  /// invariant, so `in_.size() - pos_` never underflows and an
  /// attacker-controlled `bytes` cannot wrap the check.
  [[nodiscard]] Status Need(uint64_t bytes) const {
    if (bytes > in_.size() - pos_) {
      return Status::InvalidArgument(
          "truncated blob: need " + std::to_string(bytes) +
          " more bytes at offset " + std::to_string(pos_) + ", have " +
          std::to_string(in_.size() - pos_));
    }
    return Status::OK();
  }

  template <FixedWidthElement T>
  Result<T> Fixed() {
    SPES_RETURN_NOT_OK(Need(sizeof(T)));
    return RawFixed<T>();
  }

  /// Decodes one T at the cursor; the caller has checked the bounds.
  template <FixedWidthElement T>
  T RawFixed() {
    FixedBits<T> v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<FixedBits<T>>(static_cast<uint8_t>(in_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return std::bit_cast<T>(v);
  }

  const std::string& in_;
  size_t pos_ = 0;
};

}  // namespace spes

#endif  // SPES_COMMON_BINARY_IO_H_
