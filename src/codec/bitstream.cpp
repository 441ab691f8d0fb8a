#include "codec/bitstream.hpp"

#include <algorithm>

namespace cosmo {

void BitWriter::copy_bytes(std::uint64_t first_bit, std::size_t nbytes,
                           std::uint8_t* dst) const {
  const std::size_t w0 = static_cast<std::size_t>(first_bit / 64);
  const unsigned shift = static_cast<unsigned>(first_bit % 64);
  // Whole words serialize LSB-first, i.e. little-endian byte order.
  const auto store = [](std::uint8_t* at, std::uint64_t v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) at[i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  // Interior: output words built from full words only.
  const std::size_t n_words = nbytes / 8;
  const std::size_t reach = w0 + (shift != 0);  // last source word an output word needs
  const std::size_t full = words_.size() > reach ? words_.size() - reach : 0;
  const std::size_t fast = std::min(n_words, full);
  const std::uint64_t* src = words_.data() + w0;
  for (std::size_t j = 0; j < fast; ++j, dst += 8) {
    store(dst, shift == 0 ? src[j] : (src[j] >> shift) | (src[j + 1] << (64 - shift)), 8);
  }
  // Edge: word i of the stream is a full word, the partial tail word, then
  // zeros (the tail's bits past cur_bits_ are zero by construction).
  const auto word = [this](std::size_t i) -> std::uint64_t {
    return i < words_.size() ? words_[i] : i == words_.size() ? cur_ : 0;
  };
  nbytes -= fast * 8;
  for (std::size_t w = w0 + fast; nbytes != 0; ++w) {
    const std::uint64_t v =
        shift == 0 ? word(w) : (word(w) >> shift) | (word(w + 1) << (64 - shift));
    const std::size_t n = std::min<std::size_t>(nbytes, 8);
    store(dst, v, n);
    dst += n;
    nbytes -= n;
  }
}

std::vector<std::uint8_t> BitWriter::finish() const {
  std::vector<std::uint8_t> out((bit_count_ + 7) / 8);
  copy_bytes(0, out.size(), out.data());
  return out;
}

void BitWriter::clear() {
  words_.clear();
  cur_ = 0;
  cur_bits_ = 0;
  bit_count_ = 0;
}

std::uint64_t BitReader::get_slow(unsigned nbits) {
  if (nbits == 0) return 0;
  require(nbits <= 64, "BitReader::get: nbits > 64");
  // 57..64 bits: check the full width up front (so a failed read does not
  // move the cursor), then split into two in-bounds fast reads.
  require_format(nbits <= remaining(), "BitReader: read past end of stream");
  const std::uint64_t lo = get(32);
  const std::uint64_t hi = get(nbits - 32);
  return lo | (hi << 32);
}

void BitReader::seek(std::uint64_t bit_pos) {
  require_format(bit_pos <= size_bits_, "BitReader::seek: position past end");
  const std::uint64_t byte = bit_pos >> 3;
  const unsigned frac = static_cast<unsigned>(bit_pos & 7);
  buf_ = 0;
  buf_bits_ = 0;
  next_byte_ = byte;
  if (frac != 0) {
    // Load the straddled byte and drop its already-consumed low bits.
    buf_ = static_cast<std::uint64_t>(data_[byte]) >> frac;
    buf_bits_ = 8 - frac;
    next_byte_ = byte + 1;
  }
}

}  // namespace cosmo
