#include "codec/huffman.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "codec/chunk_table.hpp"

namespace cosmo {

namespace {

constexpr std::uint32_t kMagic = 0x48554646;         // "HUFF" (decode only)
constexpr std::uint32_t kChunkedMagic = 0x48554643;  // "HUFC"
constexpr unsigned kMaxCodeLen = 58;                 // fits in a u64 alongside length
constexpr std::size_t kDefaultChunkSymbols = 1u << 18;

/// Canonical code assignment: symbols sorted by (length, symbol value).
struct CanonicalEntry {
  std::uint32_t symbol;
  unsigned length;
  std::uint64_t code;  // MSB-first canonical code
};

std::vector<CanonicalEntry> canonicalize(const std::vector<std::uint32_t>& alphabet,
                                         const std::vector<unsigned>& lengths) {
  std::vector<CanonicalEntry> entries;
  entries.reserve(alphabet.size());
  for (std::size_t i = 0; i < alphabet.size(); ++i) {
    entries.push_back({alphabet[i], lengths[i], 0});
  }
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return a.length != b.length ? a.length < b.length : a.symbol < b.symbol;
  });
  std::uint64_t code = 0;
  unsigned prev_len = entries.empty() ? 0 : entries.front().length;
  for (auto& e : entries) {
    code <<= (e.length - prev_len);
    e.code = code;
    ++code;
    prev_len = e.length;
  }
  return entries;
}

/// Histogram of \p symbols as parallel (alphabet, freqs) vectors sorted by
/// symbol — the same (symbol -> count) relation the old std::map frequency
/// pass produced, in the same order, so the codebook built from it is
/// identical.
struct FreqTable {
  std::vector<std::uint32_t> alphabet;
  std::vector<std::uint64_t> freqs;
};

/// Alphabet spans counted with a dense array. Quantization codes cluster
/// in a few-thousand-symbol band around the radius, so the dense path is
/// the production one; wider alphabets fall back to the sparse map.
constexpr std::uint64_t kDenseHistSpan = 1u << 22;

FreqTable count_freqs(const std::uint32_t* syms, std::size_t n) {
  FreqTable ft;
  if (n == 0) return ft;
  std::uint32_t lo = syms[0], hi = syms[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, syms[i]);
    hi = std::max(hi, syms[i]);
  }
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - lo + 1;
  if (span <= kDenseHistSpan) {
    std::vector<std::uint64_t> hist(static_cast<std::size_t>(span), 0);
    for (std::size_t i = 0; i < n; ++i) ++hist[syms[i] - lo];
    for (std::size_t s = 0; s < hist.size(); ++s) {
      if (hist[s] == 0) continue;
      ft.alphabet.push_back(lo + static_cast<std::uint32_t>(s));
      ft.freqs.push_back(hist[s]);
    }
  } else {
    std::map<std::uint32_t, std::uint64_t> freq_map;
    for (std::size_t i = 0; i < n; ++i) ++freq_map[syms[i]];
    for (const auto& [sym, f] : freq_map) {
      ft.alphabet.push_back(sym);
      ft.freqs.push_back(f);
    }
  }
  return ft;
}

/// Canonical entries for a histogram (tree + length-limited check +
/// canonical ordering) — the codebook of the HUFC container.
std::vector<CanonicalEntry> entries_for(const FreqTable& ft) {
  std::vector<unsigned> lengths = huffman_code_lengths(ft.freqs);
  for (const auto len : lengths) {
    require(len <= kMaxCodeLen, "huffman: code length exceeds limit (pathological distribution)");
  }
  return canonicalize(ft.alphabet, lengths);
}

/// Encoder-side lookup: dense array over [min_symbol, max_symbol] when the
/// alphabet span is small (quantization codes cluster around the radius),
/// std::map fallback otherwise. Each dense entry packs the bit-reversed
/// code next to its length (code << 6 | length, kMaxCodeLen = 58 fits), so
/// the emit loop is one table load plus one BitWriter::put per symbol —
/// no per-symbol branching — and still writes the exact MSB-first bit
/// sequence the per-bit loop used to produce.
struct EncodeTable {
  std::uint32_t min_symbol = 0;
  std::vector<std::uint64_t> dense;  // reversed code << 6 | length
  std::map<std::uint32_t, std::pair<std::uint64_t, unsigned>> sparse;

  explicit EncodeTable(const std::vector<CanonicalEntry>& entries) {
    if (entries.empty()) return;
    std::uint32_t lo = entries.front().symbol, hi = entries.front().symbol;
    for (const auto& e : entries) {
      lo = std::min(lo, e.symbol);
      hi = std::max(hi, e.symbol);
    }
    const std::uint64_t span = static_cast<std::uint64_t>(hi) - lo + 1;
    if (span <= kDenseHistSpan) {
      min_symbol = lo;
      dense.assign(static_cast<std::size_t>(span), 0);
    }
    for (const auto& e : entries) {
      std::uint64_t rev = 0;
      for (unsigned i = 0; i < e.length; ++i) {
        rev |= ((e.code >> (e.length - 1 - i)) & 1u) << i;
      }
      if (!dense.empty()) {
        dense[e.symbol - min_symbol] = rev << 6 | e.length;
      } else {
        sparse[e.symbol] = {rev, e.length};
      }
    }
  }

  /// Appends the codes for \p syms[0..n) to \p bw. The dense/sparse
  /// decision is hoisted out of the loop; the dense loop body is a load,
  /// a shift pair, and a put.
  void encode_all(BitWriter& bw, const std::uint32_t* syms, std::size_t n) const {
    if (!dense.empty()) {
      const std::uint64_t* const table = dense.data();
      const std::uint32_t base = min_symbol;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t e = table[syms[i] - base];
        bw.put(e >> 6, static_cast<unsigned>(e & 63));
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const auto& [code, len] = sparse.at(syms[i]);
        bw.put(code, len);
      }
    }
  }

  /// Exact payload bit count for a histogram encoded with this table
  /// (sum of freq * length) — lets encoders reserve the stream up front.
  [[nodiscard]] std::uint64_t payload_bits(const FreqTable& ft) const {
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < ft.alphabet.size(); ++i) {
      const unsigned len =
          !dense.empty() ? static_cast<unsigned>(dense[ft.alphabet[i] - min_symbol] & 63)
                         : sparse.at(ft.alphabet[i]).second;
      bits += ft.freqs[i] * len;
    }
    return bits;
  }
};

/// Bit width of the direct-lookup decode table: 2^12 slots cover every
/// code of length <= 12, which in practice is the whole alphabet for SZ
/// quantization codes (the near-radius cluster). Longer codes fall back to
/// the canonical first_code/first_index scan.
constexpr unsigned kFastBits = 12;

/// Decoder-side canonical tables (first_code / first_index per length) plus
/// a 2^kFastBits direct-lookup table for short codes.
struct DecodeTable {
  /// One slot per kFastBits-wide stream window. `len == 0` marks "no code
  /// of length <= kFastBits starts here" (long code or corrupt prefix).
  struct FastEntry {
    std::uint32_t symbol = 0;
    std::uint8_t len = 0;
  };

  std::vector<CanonicalEntry> entries;
  std::vector<std::uint64_t> first_code = std::vector<std::uint64_t>(kMaxCodeLen + 2, 0);
  std::vector<std::uint32_t> first_index = std::vector<std::uint32_t>(kMaxCodeLen + 2, 0);
  std::vector<std::uint32_t> count_at = std::vector<std::uint32_t>(kMaxCodeLen + 2, 0);
  std::vector<FastEntry> fast = std::vector<FastEntry>(std::size_t{1} << kFastBits);

  /// Rebuilds canonical codes from (symbol, length) pairs that must arrive
  /// sorted by (length, symbol) — the stored header order.
  explicit DecodeTable(std::vector<CanonicalEntry> in) : entries(std::move(in)) {
    std::uint64_t code = 0;
    unsigned prev_len = entries.empty() ? 0 : entries.front().length;
    for (auto& e : entries) {
      require_format(e.length >= prev_len, "huffman: header not canonically sorted");
      code <<= (e.length - prev_len);
      e.code = code;
      // An overfull (Kraft > 1) length set assigns some entry a code that
      // no longer fits in its own length; such a header can never have come
      // from the encoder.
      require_format(e.length >= 64 || e.code < (std::uint64_t{1} << e.length),
                     "huffman: header code lengths overfull");
      ++code;
      prev_len = e.length;
    }
    for (const auto& e : entries) ++count_at[e.length];
    std::uint32_t idx = 0;
    std::uint64_t c = 0;
    const unsigned len = entries.empty() ? 1 : entries.front().length;
    for (unsigned l = len; l <= kMaxCodeLen + 1; ++l) {
      first_code[l] = c;
      first_index[l] = idx;
      idx += count_at[l];
      c = (c + count_at[l]) << 1;
    }
    // Direct-lookup table: the stream stores codes MSB-first, read LSB-first,
    // so a code of length L occupies the low L bits of a peeked window in
    // bit-reversed order. Fill every window whose low bits spell the code.
    for (const auto& e : entries) {
      if (e.length > kFastBits) continue;
      std::uint32_t rev = 0;
      for (unsigned b = 0; b < e.length; ++b) {
        rev |= static_cast<std::uint32_t>((e.code >> (e.length - 1 - b)) & 1u) << b;
      }
      const std::uint32_t step = 1u << e.length;
      for (std::uint32_t k = rev; k < (1u << kFastBits); k += step) {
        fast[k] = {e.symbol, static_cast<std::uint8_t>(e.length)};
      }
    }
  }

  /// Canonical bit-at-a-time decode of one symbol — the fallback for codes
  /// longer than kFastBits.
  std::uint32_t decode_one_canonical(BitReader& br) const {
    std::uint64_t acc = 0;
    unsigned len = 0;
    for (;;) {
      acc = (acc << 1) | (br.get_bit() ? 1u : 0u);
      ++len;
      require_format(len <= kMaxCodeLen, "huffman: code too long in stream");
      if (count_at[len] > 0 && acc >= first_code[len] &&
          acc < first_code[len] + count_at[len]) {
        const std::uint32_t idx =
            first_index[len] + static_cast<std::uint32_t>(acc - first_code[len]);
        return entries[idx].symbol;
      }
    }
  }

  /// Decodes \p count symbols from \p br into \p out (sized by the caller).
  /// Table fast path: one peek + one table load + one skip per symbol.
  /// peek() zero-pads past the end of the stream, so a table hit near the
  /// end is only committed if skip() confirms the code fits in the
  /// remaining bits — a truncated stream throws FormatError exactly like
  /// the canonical path.
  void decode_into(BitReader& br, std::uint32_t* out, std::uint64_t count) const {
    const FastEntry* table = fast.data();
    for (std::uint64_t i = 0; i < count; ++i) {
      const FastEntry fe = table[br.peek(kFastBits)];
      if (fe.len != 0) {
        br.skip(fe.len);
        out[i] = fe.symbol;
      } else {
        out[i] = decode_one_canonical(br);
      }
    }
  }
};

/// Reads the (symbol, length) header section shared by HUFF and HUFC.
std::vector<CanonicalEntry> read_entries(BitReader& br, std::uint32_t alpha_size) {
  // Each table entry occupies 38 stream bits, so an alphabet the remaining
  // payload cannot hold is corrupt; reject it before the allocation (a bad
  // u32 can claim 4G entries).
  require_format(alpha_size <= br.remaining() / 38, "huffman: alphabet exceeds payload");
  std::vector<CanonicalEntry> entries(alpha_size);
  for (auto& e : entries) {
    e.symbol = static_cast<std::uint32_t>(br.get(32));
    e.length = static_cast<unsigned>(br.get(6));
    require_format(e.length >= 1 && e.length <= kMaxCodeLen, "huffman: bad code length");
  }
  return entries;
}

/// Decodes a HUFC container, or a legacy single-stream HUFF buffer, into
/// the symbol buffer \p output(count) returns for the header's symbol
/// count. \p output runs once, after the count passed its payload bound and
/// before any symbol is decoded.
template <typename Output>
void decode_container(std::span<const std::uint8_t> bytes, ThreadPool* pool, Output&& output) {
  BitReader br(bytes.data(), bytes.size());
  const auto magic = static_cast<std::uint32_t>(br.get(32));
  if (magic == kMagic) {
    const std::uint64_t count = br.get(64);
    const auto alpha_size = static_cast<std::uint32_t>(br.get(32));
    require_format(count == 0 || alpha_size > 0, "huffman: empty alphabet with nonzero count");
    const DecodeTable table(read_entries(br, alpha_size));
    require_format(count <= br.remaining(), "huffman: symbol count exceeds payload");
    table.decode_into(br, output(count), count);
    return;
  }
  require_format(magic == kChunkedMagic, "huffman: bad magic");
  const std::uint64_t count = br.get(64);
  const std::size_t chunk_symbols = static_cast<std::size_t>(br.get(32));
  const std::size_t n_chunks = static_cast<std::size_t>(br.get(32));
  const auto alpha_size = static_cast<std::uint32_t>(br.get(32));
  require_format(count == 0 || alpha_size > 0, "huffman: empty alphabet with nonzero count");
  require_format(chunk_symbols > 0 || (n_chunks == 0 && count == 0),
                 "huffman: zero chunk size");
  // Overflow-free chunk-count check (count + chunk_symbols - 1 wraps for a
  // corrupted count near 2^64), plus a payload bound on count before the
  // output allocation: every symbol costs at least one payload bit.
  const std::size_t want_chunks =
      chunk_symbols == 0 ? 0
                         : static_cast<std::size_t>(count / chunk_symbols +
                                                    (count % chunk_symbols != 0 ? 1 : 0));
  require_format(n_chunks == want_chunks, "huffman: chunk count mismatch");
  require_format(count <= 8 * static_cast<std::uint64_t>(bytes.size()),
                 "huffman: symbol count exceeds payload");
  const DecodeTable table(read_entries(br, alpha_size));
  const ChunkTable chunks(bytes, static_cast<std::size_t>((br.position() + 7) / 8), n_chunks);

  std::uint32_t* const out = output(count);
  parallel_for(pool, n_chunks, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      const std::uint64_t begin = static_cast<std::uint64_t>(c) * chunk_symbols;
      const std::uint64_t n = std::min<std::uint64_t>(chunk_symbols, count - begin);
      BitReader chunk_br(chunks[c].data(), chunks[c].size());
      table.decode_into(chunk_br, out + begin, n);
      // A chunk ends in its padding byte, like every chunk-table payload.
      require_format(chunk_br.remaining() < 8, "huffman: trailing bytes in chunk");
    }
  }, /*min_grain=*/1);
}

}  // namespace

std::vector<unsigned> huffman_code_lengths(const std::vector<std::uint64_t>& freqs) {
  std::vector<unsigned> lengths(freqs.size(), 0);
  // Leaves are the nonzero symbols, stable-sorted by frequency: equal
  // frequencies keep symbol order, the (freq, node index) order in which a
  // min-heap over the leaves would pop them.
  std::vector<std::uint32_t> leaves;
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    if (freqs[i] != 0) leaves.push_back(static_cast<std::uint32_t>(i));
  }
  if (leaves.empty()) return lengths;
  if (leaves.size() == 1) {
    lengths[leaves.front()] = 1;
    return lengths;
  }
  std::stable_sort(leaves.begin(), leaves.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return freqs[a] < freqs[b]; });

  // Two-queue merge. Node k < n is leaf leaves[k]; node n + j is the j-th
  // internal node. Internal sums never decrease, so the internal queue is
  // sorted in creation order, and the lower of the two queue heads is the
  // node the heap would pop next. A leaf wins a tie, as its node index is
  // below every internal node's.
  const std::size_t n = leaves.size();
  std::vector<std::uint64_t> sum(n - 1);
  std::vector<std::uint32_t> parent(2 * n - 1);
  const auto weight = [&](std::size_t node) {
    return node < n ? freqs[leaves[node]] : sum[node - n];
  };
  std::size_t next_leaf = 0;
  std::size_t next_internal = 0;
  // Pops the lower queue head while internal nodes [0, created) exist.
  const auto pop = [&](std::size_t created) {
    if (next_leaf < n &&
        (next_internal == created || freqs[leaves[next_leaf]] <= sum[next_internal])) {
      return next_leaf++;
    }
    return n + next_internal++;
  };
  for (std::size_t j = 0; j + 1 < n; ++j) {
    const std::size_t a = pop(j);
    const std::size_t b = pop(j);
    sum[j] = weight(a) + weight(b);
    parent[a] = parent[b] = static_cast<std::uint32_t>(n + j);
  }

  // Depths top-down: a parent is created after its children, so a sweep
  // from the root (the last node) down reaches every parent first.
  std::vector<unsigned> depth(2 * n - 1, 0);
  for (std::size_t k = 2 * n - 2; k-- > 0;) depth[k] = depth[parent[k]] + 1;
  for (std::size_t k = 0; k < n; ++k) lengths[leaves[k]] = depth[k];
  return lengths;
}

double shannon_entropy_bits(const std::vector<std::uint64_t>& freqs) {
  std::uint64_t total = 0;
  for (const auto f : freqs) total += f;
  if (total == 0) return 0.0;
  double h = 0.0;
  for (const auto f : freqs) {
    if (f == 0) continue;
    const double p = static_cast<double>(f) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

std::vector<std::uint8_t> huffman_encode(std::span<const std::uint32_t> symbols,
                                         ThreadPool* pool, std::size_t chunk_symbols) {
  std::vector<std::uint8_t> out;
  huffman_encode_into(symbols, out, pool, chunk_symbols);
  return out;
}

void huffman_encode_into(std::span<const std::uint32_t> symbols, std::vector<std::uint8_t>& out,
                         ThreadPool* pool, std::size_t chunk_symbols) {
  if (chunk_symbols == 0) chunk_symbols = kDefaultChunkSymbols;
  require(chunk_symbols <= std::numeric_limits<std::uint32_t>::max(),
          "huffman: chunk size exceeds the u32 header field");
  const std::size_t n = symbols.size();
  const std::size_t n_chunks = n / chunk_symbols + (n % chunk_symbols != 0 ? 1 : 0);

  // Global histogram in one dense counting pass, so the codebook is the
  // same for any thread count.
  const FreqTable ft = count_freqs(symbols.data(), n);
  const auto entries = entries_for(ft);
  const EncodeTable table(entries);

  BitWriter header;
  header.put(kChunkedMagic, 32);
  header.put(n, 64);
  header.put(chunk_symbols, 32);
  header.put(n_chunks, 32);
  header.put(entries.size(), 32);
  for (const auto& e : entries) {
    header.put(e.symbol, 32);
    header.put(e.length, 6);
  }
  const std::vector<std::uint8_t> head = header.finish();
  out.insert(out.end(), head.begin(), head.end());

  // Each task codes its chunks with the shared codebook into one writer,
  // padding every chunk to a whole byte, and finishes the writer into its
  // staging buffer (indexed by its first chunk). The writer is reserved
  // for the task's share of the exact total payload.
  const std::uint64_t payload_bits = table.payload_bits(ft);
  std::vector<std::vector<std::uint8_t>> staging(n_chunks);
  std::vector<const std::uint8_t*> payloads(n_chunks);
  std::vector<std::size_t> sizes(n_chunks);
  parallel_for(pool, n_chunks, [&](std::size_t lo, std::size_t hi) {
    const std::size_t task_begin = lo * chunk_symbols;
    const std::size_t task_end = std::min(hi * chunk_symbols, n);
    BitWriter bw;
    bw.reserve_bits(static_cast<std::uint64_t>(static_cast<double>(payload_bits) *
                                               static_cast<double>(task_end - task_begin) /
                                               static_cast<double>(n)) +
                    8 * (hi - lo));
    for (std::size_t c = lo; c < hi; ++c) {
      const std::uint64_t start = bw.bit_count();
      const std::size_t begin = c * chunk_symbols;
      table.encode_all(bw, symbols.data() + begin, std::min(chunk_symbols, n - begin));
      bw.put(0, static_cast<unsigned>(-bw.bit_count() & 7));
      sizes[c] = static_cast<std::size_t>((bw.bit_count() - start) / 8);
    }
    staging[lo] = bw.finish();
    const std::uint8_t* p = staging[lo].data();
    for (std::size_t c = lo; c < hi; p += sizes[c++]) payloads[c] = p;
  }, /*min_grain=*/1);
  write_chunk_table(out, out.size(), payloads, sizes, pool);
}

std::vector<std::uint32_t> huffman_decode(std::span<const std::uint8_t> bytes,
                                          ThreadPool* pool) {
  std::vector<std::uint32_t> out;
  decode_container(bytes, pool, [&](std::uint64_t count) {
    out.resize(count);
    return out.data();
  });
  return out;
}

void huffman_decode_into(std::span<const std::uint8_t> bytes, std::span<std::uint32_t> out,
                         ThreadPool* pool) {
  decode_container(bytes, pool, [&](std::uint64_t count) {
    require_format(count == out.size(), "huffman: symbol count mismatch");
    return out.data();
  });
}

}  // namespace cosmo
