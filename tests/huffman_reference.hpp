/// \file huffman_reference.hpp
/// \brief Test oracles for the Huffman stream formats: a binary-heap tree
/// builder, a std::map histogram with per-symbol MSB-first bit-at-a-time
/// emission, and a canonical bit-at-a-time decoder with no lookup table and
/// no chunk parallelism.
///
/// The header of both formats stores the canonical codebook as (symbol,
/// 6-bit length) pairs sorted by (length, symbol); codes are assigned in
/// that order. `HUFF` is one bit stream: magic, u64 symbol count, u32
/// alphabet size, the pairs, then the codes. `HUFC` adds a u32 chunk size
/// and u32 chunk count after the symbol count, pads the header to a byte,
/// then lays the chunks out as a table of u32 byte sizes followed by each
/// chunk's codes, padded to a byte. The library encoder must reproduce
/// huffman_encode_chunked_reference() byte for byte, and its decoder must
/// agree with huffman_decode_reference().
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "codec/bitstream.hpp"
#include "codec/huffman.hpp"
#include "common/error.hpp"

namespace cosmo::test {

struct HuffmanCode {
  std::uint32_t symbol;
  unsigned length;
  std::uint64_t code;  // MSB-first canonical code
};

/// Per-symbol Huffman code lengths of \p freqs (zero-frequency symbols get
/// 0, a lone symbol gets 1), built with a min-heap of (freq, node index):
/// leaves are nodes 0.. in symbol order, each merge pops the two lowest
/// and appends their parent as the next node. huffman_code_lengths() must
/// return exactly these lengths.
inline std::vector<unsigned> huffman_reference_code_lengths(
    const std::vector<std::uint64_t>& freqs) {
  struct Node {
    std::uint64_t freq;
    int left = -1;  // -1 for a leaf
    int right = -1;
    std::uint32_t symbol = 0;
  };
  std::vector<unsigned> lengths(freqs.size(), 0);
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    if (freqs[i] != 0) nodes.push_back({freqs[i], -1, -1, static_cast<std::uint32_t>(i)});
  }
  if (nodes.empty()) return lengths;
  if (nodes.size() == 1) {
    lengths[nodes.front().symbol] = 1;
    return lengths;
  }
  using Item = std::pair<std::uint64_t, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (std::size_t i = 0; i < nodes.size(); ++i) heap.push({nodes[i].freq, static_cast<int>(i)});
  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    nodes.push_back({fa + fb, a, b, 0});
    heap.push({fa + fb, static_cast<int>(nodes.size() - 1)});
  }
  const std::function<void(int, unsigned)> assign = [&](int idx, unsigned depth) {
    const Node& node = nodes[static_cast<std::size_t>(idx)];
    if (node.left < 0) {
      lengths[node.symbol] = depth;
      return;
    }
    assign(node.left, depth + 1);
    assign(node.right, depth + 1);
  };
  assign(heap.top().second, 0);
  return lengths;
}

/// Canonical codebook of \p symbols, in (length, symbol) order.
inline std::vector<HuffmanCode> huffman_reference_codebook(
    const std::vector<std::uint32_t>& symbols) {
  std::map<std::uint32_t, std::uint64_t> freq_map;
  for (const auto s : symbols) ++freq_map[s];
  std::vector<std::uint64_t> freqs;
  for (const auto& [sym, f] : freq_map) freqs.push_back(f);
  const std::vector<unsigned> lengths = huffman_reference_code_lengths(freqs);
  std::vector<HuffmanCode> book;
  std::size_t i = 0;
  for (const auto& [sym, f] : freq_map) book.push_back({sym, lengths[i++], 0});
  std::sort(book.begin(), book.end(), [](const auto& a, const auto& b) {
    return a.length != b.length ? a.length < b.length : a.symbol < b.symbol;
  });
  std::uint64_t code = 0;
  for (std::size_t k = 0; k < book.size(); ++k) {
    if (k > 0) code = (code + 1) << (book[k].length - book[k - 1].length);
    book[k].code = code;
  }
  return book;
}

inline void huffman_reference_put_book(BitWriter& bw, const std::vector<HuffmanCode>& book) {
  bw.put(book.size(), 32);
  for (const auto& e : book) {
    bw.put(e.symbol, 32);
    bw.put(e.length, 6);
  }
}

inline void huffman_reference_put_codes(BitWriter& bw, const std::vector<HuffmanCode>& book,
                                        const std::uint32_t* symbols, std::size_t n) {
  std::map<std::uint32_t, HuffmanCode> by_symbol;
  for (const auto& e : book) by_symbol[e.symbol] = e;
  for (std::size_t i = 0; i < n; ++i) {
    const HuffmanCode& e = by_symbol.at(symbols[i]);
    for (unsigned b = e.length; b-- > 0;) bw.put_bit(((e.code >> b) & 1u) != 0);
  }
}

/// Legacy single-stream `HUFF` buffer of \p symbols. No library encoder
/// writes this format; huffman_decode() still reads it.
inline std::vector<std::uint8_t> huffman_encode_reference(
    const std::vector<std::uint32_t>& symbols) {
  const auto book = huffman_reference_codebook(symbols);
  BitWriter bw;
  bw.put(0x48554646, 32);  // "HUFF"
  bw.put(symbols.size(), 64);
  huffman_reference_put_book(bw, book);
  huffman_reference_put_codes(bw, book, symbols.data(), symbols.size());
  return bw.finish();
}

/// huffman_encode() as the reference encoder would assemble it: the `HUFC`
/// header, the u32 chunk-size table, then one byte-padded code stream per
/// chunk of \p chunk_symbols symbols.
inline std::vector<std::uint8_t> huffman_encode_chunked_reference(
    const std::vector<std::uint32_t>& symbols, std::size_t chunk_symbols) {
  const std::size_t n_chunks =
      symbols.empty() ? 0 : (symbols.size() + chunk_symbols - 1) / chunk_symbols;
  const auto book = huffman_reference_codebook(symbols);
  BitWriter header;
  header.put(0x48554643, 32);  // "HUFC"
  header.put(symbols.size(), 64);
  header.put(chunk_symbols, 32);
  header.put(n_chunks, 32);
  huffman_reference_put_book(header, book);
  std::vector<std::uint8_t> out = header.finish();
  std::vector<std::uint8_t> payloads;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t begin = c * chunk_symbols;
    BitWriter bw;
    huffman_reference_put_codes(bw, book, symbols.data() + begin,
                                std::min(chunk_symbols, symbols.size() - begin));
    const std::vector<std::uint8_t> stream = bw.finish();
    const auto len = static_cast<std::uint32_t>(stream.size());
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    payloads.insert(payloads.end(), stream.begin(), stream.end());
  }
  out.insert(out.end(), payloads.begin(), payloads.end());
  return out;
}

/// Canonical decoder over a stored codebook: rebuilds the codes from the
/// (length, symbol)-sorted pairs and decodes one bit at a time.
class HuffmanReferenceDecoder {
 public:
  explicit HuffmanReferenceDecoder(BitReader& br) {
    const auto alpha_size = static_cast<std::uint32_t>(br.get(32));
    require_format(alpha_size <= br.remaining() / 38, "huffman-reference: alphabet exceeds payload");
    std::uint64_t code = 0;
    unsigned prev_len = 0;
    for (std::uint32_t k = 0; k < alpha_size; ++k) {
      const auto symbol = static_cast<std::uint32_t>(br.get(32));
      const auto length = static_cast<unsigned>(br.get(6));
      require_format(length >= 1 && length <= 58, "huffman-reference: bad code length");
      require_format(length >= prev_len, "huffman-reference: header not canonically sorted");
      if (k > 0) code = (code + 1) << (length - prev_len);
      require_format(code < (std::uint64_t{1} << length),
                     "huffman-reference: header code lengths overfull");
      codes_[{length, code}] = symbol;
      prev_len = length;
    }
  }

  [[nodiscard]] bool empty() const { return codes_.empty(); }

  std::uint32_t decode_one(BitReader& br) const {
    std::uint64_t acc = 0;
    for (unsigned len = 1; len <= 58; ++len) {
      acc = (acc << 1) | (br.get_bit() ? 1u : 0u);
      const auto it = codes_.find({len, acc});
      if (it != codes_.end()) return it->second;
    }
    throw FormatError("huffman-reference: code too long in stream");
  }

 private:
  std::map<std::pair<unsigned, std::uint64_t>, std::uint32_t> codes_;
};

/// Decodes a `HUFF` or `HUFC` buffer serially with the canonical
/// bit-at-a-time decoder. Throws FormatError on malformed input.
inline std::vector<std::uint32_t> huffman_decode_reference(
    const std::vector<std::uint8_t>& bytes) {
  BitReader br(bytes);
  const std::uint64_t magic = br.get(32);
  const std::uint64_t count = br.get(64);
  std::vector<std::uint32_t> out;
  if (magic == 0x48554646) {  // "HUFF"
    const HuffmanReferenceDecoder book(br);
    require_format(count == 0 || !book.empty(), "huffman-reference: empty alphabet");
    for (std::uint64_t i = 0; i < count; ++i) out.push_back(book.decode_one(br));
    return out;
  }
  require_format(magic == 0x48554643, "huffman-reference: bad magic");  // "HUFC"
  const std::uint64_t chunk_symbols = br.get(32);
  const std::uint64_t n_chunks = br.get(32);
  const HuffmanReferenceDecoder book(br);
  require_format(count == 0 || !book.empty(), "huffman-reference: empty alphabet");
  require_format(chunk_symbols > 0 || count == 0, "huffman-reference: zero chunk size");
  require_format(n_chunks == (count == 0 ? 0 : (count - 1) / chunk_symbols + 1),
                 "huffman-reference: chunk count mismatch");
  std::size_t pos = static_cast<std::size_t>((br.position() + 7) / 8);
  std::vector<std::size_t> sizes;
  for (std::uint64_t c = 0; c < n_chunks; ++c) {
    require_format(pos + 4 <= bytes.size(), "huffman-reference: truncated chunk table");
    std::size_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<std::size_t>(bytes[pos++]) << (8 * i);
    sizes.push_back(len);
  }
  for (std::uint64_t c = 0; c < n_chunks; ++c) {
    require_format(sizes[c] <= bytes.size() - pos, "huffman-reference: chunk overruns buffer");
    BitReader chunk(bytes.data() + pos, sizes[c]);
    const std::uint64_t n = std::min<std::uint64_t>(chunk_symbols, count - c * chunk_symbols);
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(book.decode_one(chunk));
    pos += sizes[c];
  }
  require_format(pos == bytes.size(), "huffman-reference: trailing bytes after the last chunk");
  return out;
}

}  // namespace cosmo::test
