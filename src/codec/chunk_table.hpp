/// \file chunk_table.hpp
/// \brief The byte-aligned chunk table shared by the chunked lossless
/// containers (`HUFC`, `LZSC`, `FZC1`).
///
/// Each of those containers cuts its input into fixed chunks that code
/// independently — the coarse-grained chunked coding of cuSZ+ and FZ-GPU
/// — and lays them out the same way after its own header: one
/// little-endian u32 byte size per chunk, then the chunk payloads back to
/// back in chunk order, ending exactly at the end of the container.
/// Payload offsets are prefix sums of the sizes, so they depend only on
/// the chunks, never on how an encoder split its work across threads.
///
/// This module is the one writer and the one parser of that layout; see
/// docs/FORMATS.md, "Chunk table". ZFP's bit-level block placement is a
/// different mechanism (BitWriter::copy_bytes) and does not use it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"

namespace cosmo {

/// Staging writer: resizes \p out to end exactly after the last payload,
/// writes the table of \p sizes at out[at..], and copies each
/// payloads[c] (sizes[c] bytes, typically in the encoding task's private
/// staging buffer) to its prefix-summed offset after the table. The copies
/// run in parallel on \p pool, \p grain chunks per task. Bytes of \p out
/// before \p at are left as they are. Throws InvalidArgument when a size
/// does not fit the u32 table entry.
void write_chunk_table(std::vector<std::uint8_t>& out, std::size_t at,
                       std::span<const std::uint8_t* const> payloads,
                       std::span<const std::size_t> sizes, ThreadPool* pool,
                       std::size_t grain = 1);

/// Direct writer, for an encoder that appends each payload to the output
/// itself: construction appends a zeroed table of \p n_chunks entries to
/// \p out; push() then records the size of each payload, in chunk order, as
/// the encoder appends it. The container is complete once every chunk has
/// been pushed.
class ChunkTableWriter {
 public:
  ChunkTableWriter(std::vector<std::uint8_t>& out, std::size_t n_chunks);

  /// Records the byte size of the next chunk's payload. Throws
  /// InvalidArgument when it does not fit the u32 table entry.
  void push(std::size_t bytes);

 private:
  std::vector<std::uint8_t>& out_;
  std::size_t next_;
  std::size_t end_;
};

/// Parsed chunk table: chunk c is operator[](c), a view into the buffer it
/// was read from.
class ChunkTable {
 public:
  /// Parses a table of \p n_chunks sizes at bytes[at..]. The payloads must
  /// follow the table back to back and end exactly at the end of \p bytes.
  /// Throws FormatError when the table or a payload runs past the buffer,
  /// or when bytes are left over after the last payload; every check is
  /// overflow-safe, and a count the buffer cannot hold is rejected before
  /// anything is allocated for it.
  ChunkTable(std::span<const std::uint8_t> bytes, std::size_t at, std::size_t n_chunks);

  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }

  [[nodiscard]] std::span<const std::uint8_t> operator[](std::size_t c) const {
    return bytes_.subspan(offsets_[c], offsets_[c + 1] - offsets_[c]);
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::vector<std::size_t> offsets_;  // n_chunks + 1 prefix sums into bytes_
};

}  // namespace cosmo
