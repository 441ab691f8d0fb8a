#include "codec/lzss.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>

#include "codec/bitstream.hpp"
#include "codec/chunk_table.hpp"
#include "common/error.hpp"
#include "common/scratch_arena.hpp"

namespace cosmo {

namespace {

constexpr std::uint32_t kMagic = 0x4C5A5353;         // "LZSS": one chunk stream
constexpr std::uint32_t kChunkedMagic = 0x4C5A5343;  // "LZSC"
constexpr unsigned kWindowBits = 16;                 // 64 KiB window
constexpr unsigned kLengthBits = 8;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = kMinMatch + (1u << kLengthBits) - 1;
constexpr std::size_t kWindow = 1u << kWindowBits;
constexpr std::size_t kHashSize = 1u << 15;
constexpr int kMaxChain = 32;
constexpr std::size_t kDefaultChunkBytes = 1u << 20;
/// Encoder work unit: every phase splits each stream into segments of this
/// many bytes. A constant, so the work geometry never follows the pool.
constexpr std::size_t kSegmentBytes = 1u << 16;
/// Streams are encoded in waves of at most this many input bytes (at least
/// one stream each), bounding the chain table to 4 bytes per wave byte.
constexpr std::size_t kWaveBytes = 1u << 22;

std::uint32_t hash_u32(std::uint32_t x) { return (x * 2654435761u) >> (32 - 15); }

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t x;
  std::memcpy(&x, p, 4);
  return hash_u32(x);
}

/// Match length between input[c..] and input[i..] capped at \p max_len,
/// comparing 8 bytes at a time: memcpy + XOR + countr_zero finds the first
/// differing byte without a per-byte loop. Reads stay in bounds because
/// c < i and the word loop only runs while i + len + 8 <= i + max_len
/// <= size. Returns exactly what the byte-at-a-time compare returned.
inline std::size_t match_length(const std::uint8_t* input, std::size_t c, std::size_t i,
                                std::size_t max_len) {
  std::size_t len = 0;
  while (len + 8 <= max_len) {
    std::uint64_t a, b;
    std::memcpy(&a, input + c + len, 8);
    std::memcpy(&b, input + i + len, 8);
    const std::uint64_t x = a ^ b;
    if (x != 0) return len + (static_cast<unsigned>(std::countr_zero(x)) >> 3);
    len += 8;
  }
  while (len < max_len && input[c + len] == input[i + len]) ++len;
  return len;
}

/// A match (len >= kMinMatch) or, with len == 0, a literal.
struct Token {
  std::size_t len = 0;
  std::size_t dist = 0;
};

/// Best token at position \p i of a single stream of \p size bytes whose
/// full hash chains are \p prev.
///
/// The stream format fixes the chains: every position below size - 3 is
/// inserted, in order, whatever the parse does. So the chain a search
/// walks at i is always prev[i] -> prev[prev[i]] -> ..., and the token at
/// i is a pure function of the input and i — not of the parse that
/// reached i. The three-phase encoder below rests on that.
///
/// The search itself: the token is the earliest candidate (chain order,
/// capped at kMaxChain visited) whose common prefix with the probe is
/// maximal, and a match iff that maximum reaches kMinMatch. So
///  - each candidate is gated on one 32-bit compare of its first four
///    bytes; only gate survivors run the full match_length. Skipped
///    candidates still count against kMaxChain;
///  - once a best of >= kMinMatch exists, a surviving candidate must also
///    match at offset best_len to beat it (in bounds: best_len < max_len
///    <= size - i inside the loop — a best_len == max_len match breaks
///    out);
///  - the walk exits on a single compare: cand < limit covers both the -1
///    sentinel and the out-of-window candidate (limit >= 0 always).
inline Token best_token(const std::uint8_t* input, const std::int32_t* prev, std::size_t size,
                        std::size_t i) {
  if (i + kMinMatch > size) return {};
  std::uint32_t vi = 0;
  std::memcpy(&vi, input + i, 4);
  const std::int32_t limit = i > kWindow ? static_cast<std::int32_t>(i - kWindow) : 0;
  const std::size_t max_len = std::min(kMaxMatch, size - i);
  std::size_t best_len = 0;
  std::size_t best_dist = 0;
  std::int32_t cand = prev[i];
  for (int chain = 0; chain < kMaxChain; ++chain) {
    if (cand < limit) break;
    const std::size_t c = static_cast<std::size_t>(cand);
    std::uint32_t vc = 0;
    std::memcpy(&vc, input + c, 4);
    cand = prev[c];
    if (vc == vi && (best_len < kMinMatch || input[c + best_len] == input[i + best_len])) {
      const std::size_t len = match_length(input, c, i, max_len);
      if (len > best_len) {
        best_len = len;
        best_dist = i - c;
        if (len == max_len) break;
      }
    }
  }
  if (best_len < kMinMatch) return {};
  return {best_len, best_dist};
}

/// Token tables hold matches as (position, code) int32 pairs, where code =
/// (dist - 1) | (len - kMinMatch) << kWindowBits is the match token's
/// payload in stream bit order.
std::int32_t match_code(const Token& t) {
  return static_cast<std::int32_t>((t.dist - 1) | ((t.len - kMinMatch) << kWindowBits));
}

std::size_t code_length(std::int32_t code) {
  return (static_cast<std::size_t>(code) >> kWindowBits) + kMinMatch;
}

/// A kSegmentBytes slice of one stream: the unit of all three phases.
struct Segment {
  const std::uint8_t* input = nullptr;  ///< the stream's first byte
  std::int32_t* prev = nullptr;         ///< the stream's chain table
  std::size_t size = 0;                 ///< stream size
  std::size_t begin = 0, end = 0;       ///< stream-relative slice
  /// Phase 2: the speculative parse from `begin` — its matches, the bytes
  /// they cover, and the first position at or past `end` it reaches.
  ArenaLease<std::int32_t> matches;
  std::size_t spec_covered = 0;
  std::size_t spec_exit = 0;
  /// Phase 3: the true parse covers [entry, exit) of this segment. Its
  /// matches are the fixup pairs [fix_begin, fix_end), then the
  /// speculative pairs from index `sync` on; they take `bits` stream bits
  /// from `bit_offset` on. The stream's out bytes are [out_at, out_at +
  /// out_len).
  std::size_t entry = 0, exit = 0;
  std::size_t fix_begin = 0, fix_end = 0;
  std::size_t sync = 0;
  std::uint64_t bits = 0, bit_offset = 0;
  std::size_t out_at = 0, out_len = 0;
  /// The first and last output words the segment touches, which it may
  /// share with its neighbours: merged serially after phase 3b.
  std::size_t edge_word[2] = {0, 0};
  std::uint64_t edge_bits[2] = {0, 0};
};

/// Phase 1 over a contiguous run of segments: writes prev[j] for every
/// chain position j. The head table carries over between consecutive
/// segments of a stream; a run that starts mid-stream first warms it up
/// over the kWindow bytes before its first segment. A prev entry the
/// warm-up misses — its true value lies below begin - kWindow — reads -1
/// instead. Both stop any walk that reaches them, because that walk is at
/// some i > begin, whose window starts above begin - kWindow. So every
/// split into runs yields the same tokens.
void build_chains(std::span<Segment> run, std::int32_t* head) {
  for (std::size_t k = 0; k < run.size(); ++k) {
    const Segment& s = run[k];
    // Positions below size - 3 enter the chains (a search reads 4 bytes).
    const std::size_t chain_end = s.size >= kMinMatch ? s.size - (kMinMatch - 1) : 0;
    if (k == 0 || s.begin == 0) {
      std::fill_n(head, kHashSize, -1);
      const std::size_t warm_end = std::min(s.begin, chain_end);
      for (std::size_t j = s.begin > kWindow ? s.begin - kWindow : 0; j < warm_end; ++j) {
        head[hash4(s.input + j)] = static_cast<std::int32_t>(j);
      }
    }
    const std::size_t end = std::min(s.end, chain_end);
    for (std::size_t j = s.begin; j < end; ++j) {
      const std::uint32_t h = hash4(s.input + j);
      s.prev[j] = head[h];
      head[h] = static_cast<std::int32_t>(j);
    }
  }
}

/// Phase 2: parses the segment as if a token started at `begin`.
void speculative_parse(Segment& s) {
  std::vector<std::int32_t>& m = *s.matches;
  m.clear();
  s.spec_covered = 0;
  std::size_t i = s.begin;
  while (i < s.end) {
    const Token t = best_token(s.input, s.prev, s.size, i);
    if (t.len == 0) {
      ++i;
      continue;
    }
    m.push_back(static_cast<std::int32_t>(i));
    m.push_back(match_code(t));
    s.spec_covered += t.len;
    i += t.len;
  }
  s.spec_exit = i;
}

/// Phase 3a, serial: walks the true parse of each stream from position 0.
/// Where it enters a segment at a position the speculative parse also
/// visited (a literal or a match start), the two agree from there on —
/// tokens depend only on their position — so the rest of the speculative
/// tokens are reused as they are. Where it enters inside a speculative
/// match, tokens are computed on the spot into \p fixups until the parses
/// meet or the segment ends. Also sizes each segment's bits: 9 per
/// literal, 25 per match, 96 for a stream header.
void stitch(std::span<Segment> segs, std::vector<std::int32_t>& fixups) {
  fixups.clear();
  std::size_t p = 0;
  for (Segment& s : segs) {
    if (s.begin == 0) p = 0;
    s.entry = p;
    s.fix_begin = fixups.size();
    const std::vector<std::int32_t>& m = *s.matches;
    s.sync = m.size();
    std::size_t k = 0;
    std::size_t skipped = 0;  // bytes covered by speculative matches before k
    std::size_t n_matches = 0;
    std::size_t covered = 0;
    while (p < s.end) {
      for (; k < m.size(); k += 2) {
        const std::size_t len = code_length(m[k + 1]);
        if (static_cast<std::size_t>(m[k]) + len > p) break;
        skipped += len;
      }
      if (k == m.size() || static_cast<std::size_t>(m[k]) >= p) {
        s.sync = k;
        n_matches += (m.size() - k) / 2;
        covered += s.spec_covered - skipped;
        p = s.spec_exit;
        break;
      }
      const Token t = best_token(s.input, s.prev, s.size, p);
      if (t.len == 0) {
        ++p;
        continue;
      }
      fixups.push_back(static_cast<std::int32_t>(p));
      fixups.push_back(match_code(t));
      ++n_matches;
      covered += t.len;
      p += t.len;
    }
    s.fix_end = fixups.size();
    s.exit = p;
    s.bits = (s.begin == 0 ? 96 : 0) + 9 * (s.exit - s.entry - covered) +
             (1 + kWindowBits + kLengthBits) * n_matches;
  }
}

void store_word(std::uint8_t* dst, std::uint64_t w) {
  for (unsigned i = 0; i < 8; ++i) dst[i] = static_cast<std::uint8_t>(w >> (8 * i));
}

/// Phase 3b's bit cursor: packs a segment's tokens LSB-first into its
/// stream's output bytes from the segment's bit offset on, one 64-bit
/// word at a time. Words strictly between the first and the last it
/// touches hold its bits alone and are stored directly; the first and
/// last go to the segment's edge words.
class SegmentWriter {
 public:
  SegmentWriter(Segment& s, std::uint8_t* stream)
      : s_(s),
        stream_(stream),
        word_(s.bit_offset / 64),
        fill_(static_cast<unsigned>(s.bit_offset % 64)) {
    s_.edge_word[0] = s_.edge_word[1] = word_;
    s_.edge_bits[0] = s_.edge_bits[1] = 0;
  }

  /// Same contract as BitWriter::Appender::put.
  void put(std::uint64_t value, unsigned nbits) {
    cur_ |= value << fill_;
    fill_ += nbits;
    if (fill_ >= 64) {
      if (word_ == s_.edge_word[0]) {
        s_.edge_bits[0] = cur_;
      } else {
        store_word(stream_ + 8 * word_, cur_);
      }
      ++word_;
      fill_ -= 64;
      cur_ = fill_ != 0 ? value >> (nbits - fill_) : 0;
    }
  }

  void finish() {
    if (word_ == s_.edge_word[0]) {
      s_.edge_bits[0] |= cur_;
    } else {
      s_.edge_word[1] = word_;
      s_.edge_bits[1] = cur_;
    }
  }

 private:
  Segment& s_;
  std::uint8_t* stream_;
  std::size_t word_;
  unsigned fill_;
  std::uint64_t cur_ = 0;
};

/// Phase 3b: writes the segment's share of the true parse, after the
/// stream header in a stream's first segment, into \p out. A token is one
/// fused put: flag + 8-bit literal, or flag + 16-bit dist-1 + 8-bit
/// len-kMinMatch.
void emit(Segment& s, const std::int32_t* fixups, std::uint8_t* out) {
  SegmentWriter w(s, out + s.out_at);
  if (s.begin == 0) {
    w.put(kMagic, 32);
    w.put(s.size, 64);
  }
  std::size_t pos = s.entry;
  const auto put_match = [&](const std::int32_t* pair) {
    const auto at = static_cast<std::size_t>(pair[0]);
    for (; pos < at; ++pos) w.put(static_cast<std::uint64_t>(s.input[pos]) << 1, 9);
    w.put(1ull | (static_cast<std::uint64_t>(pair[1]) << 1), 1 + kWindowBits + kLengthBits);
    pos = at + code_length(pair[1]);
  };
  for (std::size_t k = s.fix_begin; k < s.fix_end; k += 2) put_match(fixups + k);
  const std::vector<std::int32_t>& m = *s.matches;
  for (std::size_t k = s.sync; k < m.size(); k += 2) put_match(m.data() + k);
  for (; pos < s.exit; ++pos) w.put(static_cast<std::uint64_t>(s.input[pos]) << 1, 9);
  w.finish();
}

/// ORs a segment's edge words into its stream's bytes (zero beforehand
/// except where other segments' bits already landed).
void merge_edges(const Segment& s, std::uint8_t* out) {
  for (int e = 0; e < 2; ++e) {
    const std::size_t at = 8 * s.edge_word[e];
    for (std::size_t i = 0; i < 8 && at + i < s.out_len; ++i) {
      out[s.out_at + at + i] |= static_cast<std::uint8_t>(s.edge_bits[e] >> (8 * i));
    }
  }
}

/// Runs \p fn(g) for every g in [0, n) on \p lanes pool tasks that claim
/// indices one at a time, so segments of uneven cost still fill the pool.
template <typename Fn>
void for_each_index(ThreadPool* pool, std::size_t lanes, std::size_t n, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  parallel_for(pool, lanes, [&](std::size_t, std::size_t) {
    for (std::size_t g = next++; g < n; g = next++) fn(g);
  }, /*min_grain=*/1);
}

/// Encodes \p input as \p n_streams consecutive single streams of
/// \p stream_bytes each (the last one ragged), appends them to \p out and
/// reports each stream's byte size to \p on_stream, in order. Streams are
/// encoded in waves of up to kWaveBytes; each phase runs over the segments
/// of all streams in a wave at once, on \p pool. Segment geometry is fixed
/// by the stream sizes and kSegmentBytes and a token depends only on its
/// position, so the bytes are identical for any pool, or none. Returns
/// false as soon as a wave's stitch shows that \p out would reach
/// \p out_limit bytes, before that wave grows \p out or emits. The chain
/// and head tables are allocated uninitialised, as phase 1 writes every
/// entry a walk reads; the other tables are leased from \p arena.
template <typename OnStream>
bool encode_streams(std::span<const std::uint8_t> input, std::size_t stream_bytes,
                    std::size_t n_streams, ThreadPool* pool, ScratchArena& arena,
                    std::vector<std::uint8_t>& out, std::size_t out_limit,
                    OnStream&& on_stream) {
  // Chain entries are int32 stream positions; a >2 GiB stream must fail
  // loudly instead of corrupting chains.
  require(std::min(stream_bytes, input.size()) <=
              static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()),
          "lzss: stream exceeds 2 GiB match-table limit");
  const std::size_t workers = pool ? pool->size() : 1;
  std::unique_ptr<std::int32_t[]> prev;
  std::size_t prev_size = 0;
  std::unique_ptr<std::int32_t[]> heads;
  std::size_t heads_size = 0;
  ArenaLease<std::int32_t> fixups = arena.ints();
  std::vector<Segment> segs;
  for (std::size_t first = 0, last = 0; first < n_streams; first = last) {
    const std::size_t wave_begin = first * stream_bytes;
    for (last = first + 1;
         last < n_streams && (last + 1) * stream_bytes - wave_begin <= kWaveBytes;) {
      ++last;
    }
    const std::size_t wave_bytes = std::min(last * stream_bytes, input.size()) - wave_begin;
    if (prev_size < wave_bytes) {
      prev = std::make_unique_for_overwrite<std::int32_t[]>(wave_bytes);
      prev_size = wave_bytes;
    }

    segs.clear();
    for (std::size_t c = first; c < last; ++c) {
      const std::size_t offset = c * stream_bytes;
      const std::size_t size = std::min(stream_bytes, input.size() - offset);
      std::size_t begin = 0;
      do {  // an empty stream still gets a segment, for its header
        Segment& s = segs.emplace_back();
        s.input = input.data() + offset;
        s.prev = prev.get() + (offset - wave_begin);
        s.size = size;
        s.begin = begin;
        s.end = std::min(begin + kSegmentBytes, size);
        s.matches = arena.ints();
        begin = s.end;
      } while (begin < size);
    }

    // Phase 1: one contiguous run of segments per lane.
    const std::size_t lanes = std::min(workers, segs.size());
    if (heads_size < lanes * kHashSize) {
      heads_size = lanes * kHashSize;
      heads = std::make_unique_for_overwrite<std::int32_t[]>(heads_size);
    }
    parallel_for(pool, lanes, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t lane = lo; lane < hi; ++lane) {
        const std::size_t s0 = lane * segs.size() / lanes;
        const std::size_t s1 = (lane + 1) * segs.size() / lanes;
        build_chains(std::span(segs).subspan(s0, s1 - s0), heads.get() + lane * kHashSize);
      }
    }, /*min_grain=*/1);
    // Phase 2.
    for_each_index(pool, lanes, segs.size(), [&](std::size_t g) { speculative_parse(segs[g]); });
    // Phase 3: stitch, lay the streams out back to back, emit in parallel.
    stitch(segs, *fixups);
    std::size_t out_end = out.size();
    for (std::size_t g = 0; g < segs.size();) {
      const std::size_t stream_first = g;
      std::uint64_t bits = 0;
      do {
        segs[g].bit_offset = bits;
        bits += segs[g].bits;
      } while (++g < segs.size() && segs[g].begin != 0);
      for (std::size_t k = stream_first; k < g; ++k) {
        segs[k].out_at = out_end;
        segs[k].out_len = static_cast<std::size_t>((bits + 7) / 8);
      }
      out_end += segs[stream_first].out_len;
    }
    if (out_end >= out_limit) return false;
    out.resize(out_end);
    for_each_index(pool, lanes, segs.size(),
                   [&](std::size_t g) { emit(segs[g], fixups->data(), out.data()); });
    for (const Segment& s : segs) {
      merge_edges(s, out.data());
      if (s.begin == 0) on_stream(s.out_len);
    }
  }
  return true;
}

/// Single-stream decode into a caller-sized output range.
void decode_range(const std::uint8_t* input, std::size_t size, std::uint8_t* out,
                  std::size_t expected) {
  BitReader br(input, size);
  require_format(br.get(32) == kMagic, "lzss: bad magic");
  const std::uint64_t n = br.get(64);
  require_format(n == expected, "lzss: declared size mismatch");
  std::size_t produced = 0;
  while (produced < n) {
    if (br.get_bit()) {
      const std::size_t dist = static_cast<std::size_t>(br.get(kWindowBits)) + 1;
      const std::size_t len = static_cast<std::size_t>(br.get(kLengthBits)) + kMinMatch;
      require_format(dist <= produced, "lzss: match distance past start");
      require_format(produced + len <= n, "lzss: match overruns declared size");
      const std::size_t start = produced - dist;
      for (std::size_t j = 0; j < len; ++j) out[produced + j] = out[start + j];
      produced += len;
    } else {
      out[produced++] = static_cast<std::uint8_t>(br.get(8));
    }
  }
  // The stream ends in its padding byte.
  require_format(br.remaining() < 8, "lzss: trailing bytes after stream");
}

/// Largest output a payload of \p payload_bytes can legitimately declare:
/// the densest token is a match (25 bits for up to kMaxMatch bytes), so the
/// yield is bounded by kMaxMatch bytes per 25 payload bits. Used to reject
/// corrupted headers before the output allocation.
std::size_t max_declared_output(std::size_t payload_bytes) {
  return (payload_bytes * 8 / 25 + 1) * kMaxMatch;
}

/// Appends the LZSC container of \p input, in \p chunk_bytes chunks, to
/// \p out when it is smaller than \p beat bytes. Otherwise returns false
/// with \p out as it was, without emitting a token.
bool encode_container(std::span<const std::uint8_t> input, std::size_t chunk_bytes,
                      std::size_t beat, ThreadPool* pool, std::vector<std::uint8_t>& out) {
  if (chunk_bytes == 0) chunk_bytes = kDefaultChunkBytes;
  require(chunk_bytes <= std::numeric_limits<std::uint32_t>::max(),
          "lzss: chunk size exceeds the u32 header field");
  const std::size_t n_chunks =
      input.size() / chunk_bytes + (input.size() % chunk_bytes != 0 ? 1 : 0);

  const std::size_t base = out.size();
  BitWriter header;
  header.put(kChunkedMagic, 32);
  header.put(input.size(), 64);
  header.put(chunk_bytes, 32);
  header.put(n_chunks, 32);
  const std::vector<std::uint8_t> head = header.finish();
  out.insert(out.end(), head.begin(), head.end());
  // The chunk streams are emitted straight into `out` after the table;
  // their sizes land in it as each stream completes.
  ChunkTableWriter table(out, n_chunks);
  ScratchArena arena;
  const std::size_t limit = base + std::min(beat, std::numeric_limits<std::size_t>::max() - base);
  if (out.size() >= limit ||
      !encode_streams(input, chunk_bytes, n_chunks, pool, arena, out, limit,
                      [&](std::size_t bytes) { table.push(bytes); })) {
    out.resize(base);
    return false;
  }
  return true;
}

}  // namespace

std::vector<std::uint8_t> lzss_encode(std::span<const std::uint8_t> input, ThreadPool* pool,
                                      std::size_t chunk_bytes) {
  std::vector<std::uint8_t> out;
  encode_container(input, chunk_bytes, std::numeric_limits<std::size_t>::max(), pool, out);
  return out;
}

bool lzss_encode_into(std::span<const std::uint8_t> input, std::vector<std::uint8_t>& out,
                      std::size_t beat, ThreadPool* pool) {
  return encode_container(input, 0, beat, pool, out);
}

std::vector<std::uint8_t> lzss_decode(std::span<const std::uint8_t> bytes, ThreadPool* pool) {
  BitReader br(bytes.data(), bytes.size());
  const auto magic = static_cast<std::uint32_t>(br.get(32));
  const std::uint64_t total = br.get(64);
  // Bound the declared output before allocating it.
  require_format(total <= max_declared_output(bytes.size()), "lzss: declared size exceeds payload");
  if (magic == kMagic) {
    std::vector<std::uint8_t> out(total);
    decode_range(bytes.data(), bytes.size(), out.data(), out.size());
    return out;
  }
  require_format(magic == kChunkedMagic, "lzss: bad magic");
  const std::size_t chunk_bytes = static_cast<std::size_t>(br.get(32));
  const std::size_t n_chunks = static_cast<std::size_t>(br.get(32));
  require_format(chunk_bytes > 0 || n_chunks == 0, "lzss: zero chunk size");
  // Chunk count without forming total + chunk_bytes - 1, which wraps for a
  // corrupted total near 2^64.
  const std::size_t want_chunks =
      chunk_bytes == 0 ? 0 : total / chunk_bytes + (total % chunk_bytes != 0 ? 1 : 0);
  require_format(n_chunks == want_chunks, "lzss: chunk count mismatch");
  const ChunkTable chunks(bytes, static_cast<std::size_t>(br.position() / 8), n_chunks);

  std::vector<std::uint8_t> out(total);
  parallel_for(pool, n_chunks, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      const std::size_t begin = c * chunk_bytes;
      const std::size_t expected = std::min(chunk_bytes, static_cast<std::size_t>(total) - begin);
      decode_range(chunks[c].data(), chunks[c].size(), out.data() + begin, expected);
    }
  }, /*min_grain=*/1);
  return out;
}

}  // namespace cosmo
