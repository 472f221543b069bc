#ifndef FOOFAH_TABLE_CSV_STREAM_H_
#define FOOFAH_TABLE_CSV_STREAM_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "table/csv.h"
#include "util/arena.h"
#include "util/status.h"

namespace foofah {

/// The incremental half of the CSV layer (split from csv.cc): a chunked
/// reader and a streaming writer for inputs that must never be resident
/// in full. ParseCsv/ToCsv stay the whole-file API used by the search
/// engine over 10-row examples; the streaming exec backend (src/exec/)
/// uses these to pass multi-GB files through a fixed-size window.
///
/// Contract with the whole-file reader: for any byte sequence and any
/// (io_buffer_bytes, max_rows) choice, the concatenated chunks equal
/// ParseCsv's rows exactly, and every failure is the SAME typed
/// ParseError with the SAME positional diagnostics (line/column of the
/// offending byte, of the opening quote of an unterminated cell, of the
/// start of an over-long cell). tests/csv_stream_test.cc sweeps buffer
/// and chunk sizes down to one byte to enforce this.

/// One parsed record: a span of cell views. Views point into the
/// reader's I/O buffer (or, for a quoted cell with escapes, its
/// per-chunk arena) and are valid until the next ReadChunk call on the
/// same reader (or its destruction).
struct CsvRowView {
  const std::string_view* cells = nullptr;
  size_t num_cells = 0;

  size_t size() const { return num_cells; }
  std::string_view operator[](size_t i) const { return cells[i]; }
};

/// Reusable storage for one chunk of parsed rows. ReadChunk rewinds and
/// refills it; steady-state reading performs no per-chunk heap growth.
class CsvChunk {
 public:
  size_t num_rows() const { return rows_.size(); }
  CsvRowView row(size_t r) const {
    const RowSpan& span = rows_[r];
    return CsvRowView{cells_.data() + span.first, span.count};
  }

  /// Approximate heap footprint of the container spine (cell bytes are
  /// accounted by the owning reader's I/O buffer and arena).
  size_t buffered_bytes() const {
    return cells_.capacity() * sizeof(std::string_view) +
           rows_.capacity() * sizeof(RowSpan);
  }

 private:
  friend class CsvChunkReader;
  struct RowSpan {
    size_t first;
    size_t count;
  };
  std::vector<std::string_view> cells_;
  std::vector<RowSpan> rows_;
};

/// The byte classes both streaming halves scan with: one 256-entry table
/// built from CsvOptions. The order matters: inside a quoted cell only
/// classes >= kQuote stop the scan; outside one every non-plain byte
/// does; the writer quotes a cell holding a delimiter, CR, quote or LF.
class CsvByteClasses {
 public:
  enum Class : uint8_t { kPlain, kDelimiter, kCr, kQuote, kLf, kNul };

  explicit CsvByteClasses(const CsvOptions& options);

  Class operator[](char c) const { return table_[static_cast<uint8_t>(c)]; }

  /// True when ToCsv would quote `cell`.
  bool NeedsQuoting(std::string_view cell) const;

 private:
  Class table_[256];
};

/// Incremental CSV reader: pulls bytes through an I/O buffer and yields
/// up to N records per ReadChunk call.
///
/// Zero-copy: each cell is a view into the I/O buffer. Only a quoted cell
/// whose value differs from its raw bytes (a doubled quote, or bytes
/// after the closing quote) is unescaped into a per-chunk Arena. A chunk
/// ends at the last complete record in the buffer; the buffer is
/// compacted, refilled or grown only at the start of ReadChunk, before
/// the chunk's first row, so no live view ever moves. It doubles when a
/// single record does not fit; max_cell_bytes is checked while scanning,
/// so an over-long cell fails instead of growing the buffer without
/// bound. Memory is bounded by (io buffer + widest record + escaped
/// cells of one chunk); it never scales with file size.
///
/// Options whose delimiter or quote is NUL, CR or LF, or whose delimiter
/// equals its quote, are rejected with InvalidArgument from ReadChunk.
class CsvChunkReader {
 public:
  static constexpr size_t kDefaultIoBufferBytes = 256u << 10;

  /// Reads from a file. Open failures surface as NotFound from the first
  /// ReadChunk (same message as ReadCsvFile). `intern_cells` is ignored:
  /// cells are views and need no deduplication; the parameter remains
  /// only so existing callers compile.
  explicit CsvChunkReader(const std::string& path, CsvOptions options = {},
                          bool intern_cells = false,
                          size_t io_buffer_bytes = kDefaultIoBufferBytes);

  /// Reads from an in-memory buffer which must outlive the reader
  /// (tests, replaying a materialized intermediate).
  explicit CsvChunkReader(std::string_view text, CsvOptions options = {},
                          bool intern_cells = false,
                          size_t io_buffer_bytes = kDefaultIoBufferBytes);

  ~CsvChunkReader();
  CsvChunkReader(const CsvChunkReader&) = delete;
  CsvChunkReader& operator=(const CsvChunkReader&) = delete;

  /// Parses up to `max_rows` records into `*chunk` (storage reused;
  /// previous contents invalidated). Returns true when at least one row
  /// was produced, false at clean end of input. Errors are terminal and
  /// repeat on subsequent calls.
  Result<bool> ReadChunk(size_t max_rows, CsvChunk* chunk);

  /// Total input bytes consumed so far.
  uint64_t bytes_consumed() const { return base_offset_ + pos_; }

  /// Resident memory held by the reader (the I/O buffer at its grown
  /// capacity, plus the escaped-cell arena) — fed into the exec
  /// backend's memory gauge.
  size_t buffered_bytes() const {
    return buffer_size_ + arena_.bytes_reserved();
  }

 private:
  enum class Scan { kRow, kNeedBytes, kEnd, kError };

  void Init(size_t io_buffer_bytes);
  /// Moves the unconsumed tail to the front (doubling the buffer when
  /// that tail fills it) and tops the buffer up from the source.
  void Refill();
  Scan ScanRecord(CsvChunk* chunk);
  Scan Fail(Status status);
  std::string AtOffset(const char* p, size_t line, uint64_t line_start) const;

  CsvOptions options_;
  CsvByteClasses classes_;

  // Source: exactly one of file_ / text_ is active.
  std::FILE* file_ = nullptr;
  std::string_view text_;
  size_t text_pos_ = 0;

  /// buffer_[0, fill_) holds input bytes base_offset_ onward, followed
  /// by a NUL sentinel that stops every scan loop at the fill mark.
  std::unique_ptr<char[]> buffer_;
  size_t buffer_size_ = 0;
  size_t pos_ = 0;   ///< Start of the first unconsumed record.
  size_t fill_ = 0;  ///< Valid bytes in buffer_.
  uint64_t base_offset_ = 0;  ///< Input offset of buffer_[0].
  bool source_eof_ = false;
  bool finished_ = false;  ///< Final record emitted (or error latched).
  Status error_;  ///< Terminal open/parse error, repeated forever.

  // Position of buffer_[pos_], for diagnostics: its 1-based line and the
  // input offset at which that line starts (columns come from offsets).
  size_t line_ = 1;
  uint64_t line_start_ = 0;

  Arena arena_;  ///< Unescaped quoted cells of the current chunk.
};

/// Buffered CSV writer producing byte-identical output to ToCsv: cells
/// containing the delimiter, the quote character, or newlines are quoted
/// with doubled-quote escapes, rows end in '\n'.
///
/// I/O failures (open, short write, close) are typed kUnavailable with
/// the same code and message as the whole-file WriteCsvFile, latched on
/// first occurrence — a full disk surfaces as an error, never a silent
/// truncation. The csv/stream_write fault point simulates a short write
/// at each file flush.
class CsvChunkWriter {
 public:
  static constexpr size_t kDefaultBufferBytes = 256u << 10;

  /// Writes to a file (created/truncated). Open failures surface from
  /// the first WriteRow/Flush (same message as WriteCsvFile).
  explicit CsvChunkWriter(const std::string& path, CsvOptions options = {},
                          size_t buffer_bytes = kDefaultBufferBytes);

  /// Appends to an in-memory string (tests, small pipes). `out` must
  /// outlive the writer.
  explicit CsvChunkWriter(std::string* out, CsvOptions options = {});

  /// Flushes and closes quietly; call Close() first to observe errors.
  ~CsvChunkWriter();
  CsvChunkWriter(const CsvChunkWriter&) = delete;
  CsvChunkWriter& operator=(const CsvChunkWriter&) = delete;

  Status WriteRow(const std::string_view* cells, size_t num_cells);
  Status WriteRow(const CsvRowView& row) {
    return WriteRow(row.cells, row.num_cells);
  }

  /// Incremental row assembly for producers whose rows are too wide to
  /// hold as a cell array (the spill executor's streamed Transpose):
  /// WriteCell appends one cell to the open row, EndRow terminates it.
  /// Byte-identical to a single WriteRow over the same cells; the
  /// buffer may flush mid-row, so an open row never accumulates.
  Status WriteCell(std::string_view cell);
  Status EndRow();

  Status Flush();
  /// Flushes and closes the file; further writes are an error.
  Status Close();

  uint64_t bytes_written() const { return bytes_written_; }
  size_t buffered_bytes() const { return buffer_.capacity(); }

 private:
  Status FlushLocked();
  void AppendCellLocked(std::string_view cell);

  CsvOptions options_;
  CsvByteClasses classes_;
  std::FILE* file_ = nullptr;
  std::string* out_ = nullptr;
  std::string path_;
  Status status_;
  bool closed_ = false;
  size_t cells_in_row_ = 0;  ///< Cells of the currently open row.
  std::string buffer_;
  size_t buffer_bytes_ = kDefaultBufferBytes;
  uint64_t bytes_written_ = 0;
};

}  // namespace foofah

#endif  // FOOFAH_TABLE_CSV_STREAM_H_
