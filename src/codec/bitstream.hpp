/// \file bitstream.hpp
/// \brief Bit-granular writer/reader used by the Huffman coder and the
/// ZFP bit-plane embedded coder.
///
/// Bits are packed LSB-first into 64-bit words, matching the reference ZFP
/// stream convention so block payload sizes are directly comparable.
///
/// The reader keeps a 64-bit refill buffer so the hot paths (`get`,
/// `get_bit`, `peek`, `skip`) touch memory one word at a time instead of
/// one byte per bit, and bounds checks happen once per refill rather than
/// once per bit. `peek`/`skip` are the primitives behind the table-driven
/// Huffman decoder and the batched ZFP group-test scans (see
/// docs/architecture.md, "Single-core decode fast paths"). Exact-bits
/// semantics are unchanged from the byte-at-a-time implementation: the
/// writer emits the same bytes for the same put() sequence, and the reader
/// returns the same values and throws FormatError at the same positions.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/error.hpp"

namespace cosmo {

/// Append-only bit writer.
///
/// Encode-side fast paths (see docs/architecture.md, "Encode fast paths"):
/// `put_pair` fuses the two-field token writes the LZSS and Huffman
/// encoders do (flag + payload, code + code) into a single masked append,
/// and `reserve_bits` pre-sizes the word storage so a hot encode loop
/// never reallocates mid-stream. Both are pure conveniences over `put`:
/// LSB-first packing is associative, so the emitted bytes are identical
/// to the equivalent sequence of single `put` calls.
class BitWriter {
 public:
  /// Appends the low \p nbits bits of \p value (0 <= nbits <= 64).
  void put(std::uint64_t value, unsigned nbits) {
    require(nbits <= 64, "BitWriter::put: nbits > 64");
    if (nbits == 0) return;
    if (nbits < 64) value &= (1ull << nbits) - 1;
    cur_ |= value << cur_bits_;
    const unsigned room = 64 - cur_bits_;
    if (nbits >= room) {
      words_.push_back(cur_);
      // Remaining high bits of value (safe: room >= 1, so shift < 64 unless
      // nbits == room == 64 where value >> 64 would be UB).
      cur_ = room < 64 ? (value >> room) : 0;
      cur_bits_ = nbits - room;
    } else {
      cur_bits_ += nbits;
    }
    bit_count_ += nbits;
  }

  /// Appends two fields in order — the low \p nbits_a bits of \p value_a,
  /// then the low \p nbits_b bits of \p value_b. When the pair fits a word
  /// (the token-shaped writes: LZSS flag+token, Huffman code+code) the two
  /// appends collapse into one masked put; the wide case falls back to two.
  void put_pair(std::uint64_t value_a, unsigned nbits_a, std::uint64_t value_b,
                unsigned nbits_b) {
    if (nbits_a + nbits_b <= 64 && nbits_a < 64) {
      value_a &= (~0ull >> 1) >> (63 - nbits_a);  // nbits_a-wide mask, 0..63 safe
      put(value_a | (value_b << nbits_a), nbits_a + nbits_b);
    } else {
      put(value_a, nbits_a);
      put(value_b, nbits_b);
    }
  }

  /// Reserves word storage for \p nbits more bits so subsequent puts in a
  /// hot loop never grow the vector. Content and bit count are unchanged.
  void reserve_bits(std::uint64_t nbits) {
    words_.reserve(words_.size() + static_cast<std::size_t>(nbits / 64) + 2);
  }

  /// Appends a single bit (branch-light specialization of put(bit, 1)).
  void put_bit(bool bit) {
    cur_ |= static_cast<std::uint64_t>(bit) << cur_bits_;
    if (++cur_bits_ == 64) {
      words_.push_back(cur_);
      cur_ = 0;
      cur_bits_ = 0;
    }
    ++bit_count_;
  }

  class Appender;

  /// Total bits written so far.
  [[nodiscard]] std::uint64_t bit_count() const { return bit_count_; }

  /// Writes \p nbytes bytes of the stream starting at bit \p first_bit to
  /// \p dst: byte j holds bits [first_bit + 8j, first_bit + 8j + 8), LSB
  /// first, and bits past bit_count() read as zero. A range encoded into
  /// its own writer is placed at any bit offset of a shared buffer this way
  /// — the mechanism behind the thread-count-independent parallel ZFP
  /// payload (see docs/architecture.md, "ZFP block kernel").
  void copy_bytes(std::uint64_t first_bit, std::size_t nbytes, std::uint8_t* dst) const;

  /// Pads to a whole byte with zero bits and returns the byte buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish() const;

  /// Clears all state.
  void clear();

 private:
  std::vector<std::uint64_t> words_;
  std::uint64_t cur_ = 0;
  unsigned cur_bits_ = 0;
  std::uint64_t bit_count_ = 0;
};

/// Register-resident append cursor over a BitWriter — the fast lane for
/// encode loops that emit millions of small tokens (the LZSS encoder).
///
/// put() keeps the accumulator word and fill count in locals, so between
/// word flushes the loop never round-trips writer state through memory;
/// the packing itself is LSB-first into 64-bit words, identical bit for
/// bit to the equivalent BitWriter::put calls. While an Appender is live
/// the borrowed writer must not be used directly; flush() (or the
/// destructor) writes the tail state back, after which the writer resumes
/// as if it had performed every put itself.
///
/// Caller contract (unchecked, unlike BitWriter::put): 0 < nbits <= 64 and
/// all bits of \p value at position >= nbits are zero.
class BitWriter::Appender {
 public:
  explicit Appender(BitWriter& bw)
      : bw_(bw), cur_(bw.cur_), cur_bits_(bw.cur_bits_) {}
  Appender(const Appender&) = delete;
  Appender& operator=(const Appender&) = delete;
  ~Appender() { flush(); }

  /// Appends the \p nbits-bit value (pre-masked; see class contract).
  void put(std::uint64_t value, unsigned nbits) {
    cur_ |= value << cur_bits_;
    cur_bits_ += nbits;
    if (cur_bits_ >= 64) {
      bw_.words_.push_back(cur_);
      cur_bits_ -= 64;
      // Remaining high bits of value; cur_bits_ == 0 means the value ended
      // exactly on the word boundary (shift by 64 - old fill would be UB).
      cur_ = cur_bits_ != 0 ? value >> (nbits - cur_bits_) : 0;
    }
  }

  /// Writes the local accumulator state back into the BitWriter. Safe to
  /// call more than once; put() may continue after a flush.
  void flush() {
    bw_.cur_ = cur_;
    bw_.cur_bits_ = cur_bits_;
    bw_.bit_count_ = bw_.words_.size() * 64 + cur_bits_;
  }

 private:
  BitWriter& bw_;
  std::uint64_t cur_;
  unsigned cur_bits_;
};

/// Sequential bit reader over a byte buffer produced by BitWriter.
///
/// Invariant: `buf_` holds the next `buf_bits_` unread bits LSB-first, and
/// every bit of `buf_` at position >= `buf_bits_` is zero — so `peek`
/// naturally zero-pads past the end of the stream without ever reading out
/// of bounds, and a table lookup on the peeked window is always memory-safe.
class BitReader {
 public:
  /// Widest window `peek`/`skip` support. 56 (not 64) so a refill can
  /// always merge whole bytes into the buffer.
  static constexpr unsigned kMaxPeekBits = 56;

  BitReader(const std::uint8_t* data, std::size_t size_bytes)
      : data_(data),
        size_bytes_(size_bytes),
        size_bits_(static_cast<std::uint64_t>(size_bytes) * 8) {}
  explicit BitReader(const std::vector<std::uint8_t>& bytes)
      : BitReader(bytes.data(), bytes.size()) {}
  /// Deleted: a temporary's storage would dangle after construction.
  explicit BitReader(std::vector<std::uint8_t>&&) = delete;

  /// Reads \p nbits bits (0 <= nbits <= 64); throws FormatError past the end.
  std::uint64_t get(unsigned nbits) {
    if (nbits - 1 < kMaxPeekBits) {  // 1..56; 0 wraps around and goes slow
      refill();
      require_format(nbits <= buf_bits_, "BitReader: read past end of stream");
      const std::uint64_t out = buf_ & (~0ull >> (64 - nbits));
      buf_ >>= nbits;
      buf_bits_ -= nbits;
      return out;
    }
    return get_slow(nbits);
  }

  /// Reads one bit.
  bool get_bit() {
    if (buf_bits_ == 0) {
      refill();
      require_format(buf_bits_ != 0, "BitReader: read past end of stream");
    }
    const bool bit = (buf_ & 1u) != 0;
    buf_ >>= 1;
    --buf_bits_;
    return bit;
  }

  /// Returns the next \p nbits bits (1 <= nbits <= kMaxPeekBits) without
  /// consuming them. Past the end of the stream the missing bits read as
  /// zero; no out-of-bounds memory access occurs. Pair with skip(), which
  /// does enforce the stream bound.
  std::uint64_t peek(unsigned nbits) {
    require(nbits - 1 < kMaxPeekBits, "BitReader::peek: nbits must be 1..56");
    refill();
    return buf_ & (~0ull >> (64 - nbits));
  }

  /// Consumes \p nbits bits (<= kMaxPeekBits); throws FormatError past the
  /// end of the stream.
  void skip(unsigned nbits) {
    require(nbits <= kMaxPeekBits, "BitReader::skip: nbits > 56");
    refill();
    require_format(nbits <= buf_bits_, "BitReader: read past end of stream");
    buf_ >>= nbits;
    buf_bits_ -= nbits;
  }

  /// Bits consumed so far.
  [[nodiscard]] std::uint64_t position() const {
    return next_byte_ * 8 - buf_bits_;
  }

  /// Bits remaining.
  [[nodiscard]] std::uint64_t remaining() const { return size_bits_ - position(); }

  /// Repositions the read cursor (bit offset from the start).
  void seek(std::uint64_t bit_pos);

 private:
  /// Tops the refill buffer up to at least kMaxPeekBits valid bits (fewer
  /// only near the end of the stream). One 8-byte load on the interior; a
  /// byte loop over the (< 8 byte) tail.
  void refill() {
    if (buf_bits_ >= kMaxPeekBits) return;
    if (next_byte_ + 8 <= size_bytes_) {
      std::uint64_t w;
      std::memcpy(&w, data_ + next_byte_, 8);
      const unsigned merged_bytes = (63 - buf_bits_) >> 3;
      const unsigned merged_bits = merged_bytes * 8;  // 8..56
      buf_ |= (w & (~0ull >> (64 - merged_bits))) << buf_bits_;
      next_byte_ += merged_bytes;
      buf_bits_ += merged_bits;  // now 56..63
      return;
    }
    while (buf_bits_ <= 56 && next_byte_ < size_bytes_) {
      buf_ |= static_cast<std::uint64_t>(data_[next_byte_++]) << buf_bits_;
      buf_bits_ += 8;
    }
  }

  std::uint64_t get_slow(unsigned nbits);

  const std::uint8_t* data_;
  std::uint64_t size_bytes_;
  std::uint64_t size_bits_;
  std::uint64_t next_byte_ = 0;  ///< next byte to load into the buffer
  std::uint64_t buf_ = 0;        ///< unread bits, LSB-first
  unsigned buf_bits_ = 0;        ///< valid bit count in buf_
};

}  // namespace cosmo
