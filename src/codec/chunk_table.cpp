#include "codec/chunk_table.hpp"

#include <cstring>
#include <limits>

#include "common/error.hpp"

namespace cosmo {

namespace {

void put_size(std::uint8_t* dst, std::size_t bytes) {
  require(bytes <= std::numeric_limits<std::uint32_t>::max(),
          "chunk table: chunk payload exceeds the u32 size entry");
  for (int i = 0; i < 4; ++i) dst[i] = static_cast<std::uint8_t>(bytes >> (8 * i));
}

}  // namespace

void write_chunk_table(std::vector<std::uint8_t>& out, std::size_t at,
                       std::span<const std::uint8_t* const> payloads,
                       std::span<const std::size_t> sizes, ThreadPool* pool,
                       std::size_t grain) {
  require(payloads.size() == sizes.size(), "chunk table: payload/size count mismatch");
  const std::size_t n = sizes.size();
  std::vector<std::size_t> offsets(n + 1);
  offsets[0] = at + 4 * n;
  for (std::size_t c = 0; c < n; ++c) offsets[c + 1] = offsets[c] + sizes[c];
  out.resize(offsets[n]);
  std::uint8_t* const p = out.data();
  for (std::size_t c = 0; c < n; ++c) put_size(p + at + 4 * c, sizes[c]);
  parallel_for(pool, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      if (sizes[c] != 0) std::memcpy(p + offsets[c], payloads[c], sizes[c]);
    }
  }, grain);
}

ChunkTableWriter::ChunkTableWriter(std::vector<std::uint8_t>& out, std::size_t n_chunks)
    : out_(out), next_(out.size()), end_(out.size() + 4 * n_chunks) {
  out_.resize(end_);
}

void ChunkTableWriter::push(std::size_t bytes) {
  require(next_ < end_, "chunk table: more chunks than table entries");
  put_size(out_.data() + next_, bytes);
  next_ += 4;
}

ChunkTable::ChunkTable(std::span<const std::uint8_t> bytes, std::size_t at,
                       std::size_t n_chunks)
    : bytes_(bytes) {
  // Compare against what remains instead of forming at + 4 * n_chunks,
  // which wraps for a corrupted count.
  require_format(at <= bytes.size(), "chunk table: header overruns buffer");
  require_format(n_chunks <= (bytes.size() - at) / 4, "chunk table: table overruns buffer");
  offsets_.resize(n_chunks + 1);
  std::size_t pos = at + 4 * n_chunks;
  offsets_[0] = pos;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::uint8_t* e = bytes.data() + at + 4 * c;
    std::size_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<std::size_t>(e[i]) << (8 * i);
    require_format(len <= bytes.size() - pos, "chunk table: chunk overruns buffer");
    pos += len;
    offsets_[c + 1] = pos;
  }
  require_format(pos == bytes.size(), "chunk table: trailing bytes after the last chunk");
}

}  // namespace cosmo
