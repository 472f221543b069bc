#include "table/csv_stream.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <utility>

#include "util/fault_injection.h"

namespace foofah {

namespace {

// Identical formatting to csv.cc's AtPosition — the diagnostics contract
// between the two readers is "same message, byte for byte", enforced by
// tests/csv_stream_test.cc.
std::string AtPosition(size_t line, uint64_t col) {
  return "line " + std::to_string(line) + ", column " + std::to_string(col);
}

bool IsLineByte(char c) { return c == '\0' || c == '\r' || c == '\n'; }

Status ValidateReaderOptions(const CsvOptions& options) {
  if (IsLineByte(options.delimiter) || IsLineByte(options.quote) ||
      options.delimiter == options.quote) {
    return Status::InvalidArgument(
        "CSV delimiter and quote must differ and must not be NUL, CR or LF");
  }
  return Status::OK();
}

}  // namespace

CsvByteClasses::CsvByteClasses(const CsvOptions& options) {
  std::fill(std::begin(table_), std::end(table_), kPlain);
  // Later assignments win, so a byte that is both NUL and the delimiter
  // is a delimiter: the writer quotes it, as ToCsv does. (The reader
  // rejects such options.)
  table_[0] = kNul;
  table_[static_cast<uint8_t>('\n')] = kLf;
  table_[static_cast<uint8_t>('\r')] = kCr;
  table_[static_cast<uint8_t>(options.delimiter)] = kDelimiter;
  table_[static_cast<uint8_t>(options.quote)] = kQuote;
}

bool CsvByteClasses::NeedsQuoting(std::string_view cell) const {
  bool quote = false;
  for (char c : cell) {
    Class k = (*this)[c];
    quote |= k != kPlain && k != kNul;
  }
  return quote;
}

CsvChunkReader::CsvChunkReader(const std::string& path, CsvOptions options,
                               bool /*intern_cells*/, size_t io_buffer_bytes)
    : options_(options), classes_(options) {
  Init(io_buffer_bytes);
  if (!error_.ok()) return;
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) error_ = Status::NotFound("cannot open file: " + path);
}

CsvChunkReader::CsvChunkReader(std::string_view text, CsvOptions options,
                               bool /*intern_cells*/, size_t io_buffer_bytes)
    : options_(options), classes_(options), text_(text) {
  Init(io_buffer_bytes);
}

CsvChunkReader::~CsvChunkReader() {
  if (file_ != nullptr) std::fclose(file_);
}

void CsvChunkReader::Init(size_t io_buffer_bytes) {
  error_ = ValidateReaderOptions(options_);
  buffer_size_ = std::max<size_t>(io_buffer_bytes, 2);
  buffer_ = std::make_unique<char[]>(buffer_size_ + 1);
  buffer_[0] = '\0';
}

void CsvChunkReader::Refill() {
  if (source_eof_) return;
  const size_t leftover = fill_ - pos_;
  if (leftover == buffer_size_) {
    // A single record fills the whole buffer: double it.
    std::unique_ptr<char[]> bigger =
        std::make_unique<char[]>(2 * buffer_size_ + 1);
    std::memcpy(bigger.get(), buffer_.get(), leftover);
    buffer_ = std::move(bigger);
    buffer_size_ *= 2;
  } else if (pos_ > 0 && leftover > 0) {
    std::memmove(buffer_.get(), buffer_.get() + pos_, leftover);
  }
  base_offset_ += pos_;
  pos_ = 0;
  fill_ = leftover;
  while (fill_ < buffer_size_) {
    size_t want = buffer_size_ - fill_;
    size_t got = 0;
    if (file_ != nullptr) {
      got = std::fread(buffer_.get() + fill_, 1, want, file_);
    } else {
      got = std::min(want, text_.size() - text_pos_);
      if (got > 0) {
        std::memcpy(buffer_.get() + fill_, text_.data() + text_pos_, got);
      }
      text_pos_ += got;
    }
    if (got == 0) {
      source_eof_ = true;
      break;
    }
    fill_ += got;
  }
  buffer_[fill_] = '\0';  // The sentinel.
}

std::string CsvChunkReader::AtOffset(const char* p, size_t line,
                                     uint64_t line_start) const {
  uint64_t offset = base_offset_ + static_cast<uint64_t>(p - buffer_.get());
  return AtPosition(line, offset - line_start + 1);
}

CsvChunkReader::Scan CsvChunkReader::Fail(Status status) {
  error_ = std::move(status);
  finished_ = true;
  return Scan::kError;
}

// Parses the record at pos_, appending its cells to `chunk`. Mirrors
// ParseCsv branch for branch, but steps over runs of plain bytes and
// tracks positions as offsets: `line`/`line_start` advance once per
// newline, and a column is only computed when an error is built. On
// kNeedBytes nothing is committed; the caller drops the record's cells
// and rescans it once more bytes are buffered.
CsvChunkReader::Scan CsvChunkReader::ScanRecord(CsvChunk* chunk) {
  using C = CsvByteClasses;
  const char* const buf = buffer_.get();
  const char* const end = buf + fill_;
  const char* p = buf + pos_;
  if (p == end) return source_eof_ ? Scan::kEnd : Scan::kNeedBytes;
  const char quote = options_.quote;
  const size_t cap =
      options_.max_cell_bytes == 0 ? SIZE_MAX : options_.max_cell_bytes;
  size_t line = line_;
  uint64_t line_start = line_start_;
  auto cap_error = [&](const char* at, size_t at_line, uint64_t at_start) {
    return Fail(Status::ParseError(
        "cell starting at " + AtOffset(at, at_line, at_start) +
        " exceeds max_cell_bytes (" + std::to_string(options_.max_cell_bytes) +
        ")"));
  };

  for (;;) {  // One cell per iteration.
    // A quote opens a quoted section only at the start of a cell.
    const char* open = nullptr;
    const char* close = nullptr;
    size_t escapes = 0;  // Doubled quotes inside the quoted section.
    size_t open_line = line;
    uint64_t open_start = line_start;
    if (*p == quote) {
      open = p++;
      for (;;) {
        while (classes_[*p] < C::kQuote) ++p;
        if (static_cast<size_t>(p - open - 1) - escapes > cap) {
          return cap_error(open, open_line, open_start);
        }
        if (p == end) {
          if (!source_eof_) return Scan::kNeedBytes;
          return Fail(Status::ParseError(
              "unterminated quoted cell in CSV input (quote opened at " +
              AtOffset(open, open_line, open_start) + ")"));
        }
        C::Class k = classes_[*p];
        if (k == C::kNul) {
          return Fail(Status::ParseError("embedded NUL byte at " +
                                         AtOffset(p, line, line_start)));
        }
        if (k == C::kLf) {
          ++p;
          ++line;
          line_start = base_offset_ + static_cast<uint64_t>(p - buf);
          continue;
        }
        // A quote: one byte of lookahead tells escaped from closing. At
        // the fill mark p[1] is the sentinel, so the quote reads as
        // closing; before end of input the record then stops at the
        // sentinel and is rescanned, so the guess never sticks.
        if (p[1] == quote) {
          p += 2;
          ++escapes;
          continue;
        }
        close = p++;
        break;
      }
    }

    // The unquoted cell, or the bytes after a closing quote; a quote
    // here is content.
    const char* tail = p;
    for (;;) {
      while (classes_[*p] == C::kPlain) ++p;
      if (classes_[*p] != C::kQuote) break;
      ++p;
    }
    const size_t quoted_len =
        open == nullptr ? 0 : static_cast<size_t>(close - open - 1) - escapes;
    if (quoted_len + static_cast<size_t>(p - tail) > cap) {
      // ParseCsv dates a cell from its opening quote, or from its first
      // unquoted byte when the quoted section was empty.
      if (quoted_len > 0) return cap_error(open, open_line, open_start);
      return cap_error(tail, line, line_start);
    }
    if (p == end && !source_eof_) return Scan::kNeedBytes;
    if (p != end && classes_[*p] == C::kNul) {
      return Fail(Status::ParseError("embedded NUL byte at " +
                                     AtOffset(p, line, line_start)));
    }

    if (open == nullptr) {
      chunk->cells_.emplace_back(tail, static_cast<size_t>(p - tail));
    } else if (escapes == 0 && p == tail) {
      chunk->cells_.emplace_back(open + 1, quoted_len);
    } else {
      // The only copy: unescape the quoted section, append the tail.
      const size_t tail_len = static_cast<size_t>(p - tail);
      char* out = static_cast<char*>(arena_.Alloc(quoted_len + tail_len, 1));
      char* w = out;
      for (const char* r = open + 1; r < close; ++r) {
        *w++ = *r;
        if (*r == quote) ++r;  // Skip the second quote of the pair.
      }
      std::memcpy(w, tail, tail_len);
      chunk->cells_.emplace_back(out, quoted_len + tail_len);
    }

    if (p == end) {  // The final record, terminated by end of input.
      finished_ = true;
    } else {
      C::Class k = classes_[*p];
      if (k == C::kDelimiter) {
        ++p;
        continue;
      }
      if (k == C::kCr) {
        // A lone CR ends the record, as in ParseCsv; CRLF is one ending.
        if (p + 1 == end && !source_eof_) return Scan::kNeedBytes;
        p += p[1] == '\n' ? 2 : 1;
      } else {
        ++p;  // LF.
      }
      ++line;
      line_start = base_offset_ + static_cast<uint64_t>(p - buf);
    }
    pos_ = static_cast<size_t>(p - buf);
    line_ = line;
    line_start_ = line_start;
    return Scan::kRow;
  }
}

Result<bool> CsvChunkReader::ReadChunk(size_t max_rows, CsvChunk* chunk) {
  if (!error_.ok()) return error_;

  chunk->cells_.clear();
  chunk->rows_.clear();
  arena_.Reset();
  if (finished_) return false;

  // No view of this chunk exists yet, so the buffer may move.
  Refill();
  while (chunk->rows_.size() < max_rows && !finished_) {
    const size_t first = chunk->cells_.size();
    Scan scan = ScanRecord(chunk);
    if (scan == Scan::kRow) {
      chunk->rows_.push_back(
          CsvChunk::RowSpan{first, chunk->cells_.size() - first});
      continue;
    }
    if (scan == Scan::kError) return error_;
    chunk->cells_.resize(first);
    if (scan == Scan::kEnd) {
      // Input ending in a record terminator: ParseCsv adds one empty
      // record only when trailing newlines count.
      if (!options_.ignore_trailing_newline && bytes_consumed() > 0) {
        chunk->cells_.emplace_back();
        chunk->rows_.push_back(CsvChunk::RowSpan{first, 1});
      }
      finished_ = true;
      break;
    }
    // kNeedBytes: the record runs past the buffered bytes. End the chunk
    // at the last complete record, or — with no row (and so no view)
    // yet — make room, read on and rescan the record.
    if (!chunk->rows_.empty()) break;
    arena_.Reset();
    Refill();
  }
  return !chunk->rows_.empty();
}

// ---------------------------------------------------------------------------

CsvChunkWriter::CsvChunkWriter(const std::string& path, CsvOptions options,
                               size_t buffer_bytes)
    : options_(options),
      classes_(options),
      path_(path),
      buffer_bytes_(buffer_bytes) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    status_ = Status::Unavailable("cannot open file for writing: " + path);
  }
  buffer_.reserve(buffer_bytes_);
}

CsvChunkWriter::CsvChunkWriter(std::string* out, CsvOptions options)
    : options_(options), classes_(options), out_(out) {}

CsvChunkWriter::~CsvChunkWriter() {
  if (!closed_) Close();
}

void CsvChunkWriter::AppendCellLocked(std::string_view cell) {
  if (cells_in_row_ > 0) buffer_ += options_.delimiter;
  ++cells_in_row_;
  if (classes_.NeedsQuoting(cell)) {
    buffer_ += options_.quote;
    for (char ch : cell) {
      buffer_ += ch;
      if (ch == options_.quote) buffer_ += options_.quote;
    }
    buffer_ += options_.quote;
  } else {
    buffer_.append(cell.data(), cell.size());
  }
}

Status CsvChunkWriter::WriteRow(const std::string_view* cells,
                                size_t num_cells) {
  if (!status_.ok()) return status_;
  if (closed_) return Status::Internal("write after Close: " + path_);
  for (size_t c = 0; c < num_cells; ++c) AppendCellLocked(cells[c]);
  cells_in_row_ = 0;
  buffer_ += '\n';
  if (buffer_.size() >= buffer_bytes_) return FlushLocked();
  return Status::OK();
}

Status CsvChunkWriter::WriteCell(std::string_view cell) {
  if (!status_.ok()) return status_;
  if (closed_) return Status::Internal("write after Close: " + path_);
  AppendCellLocked(cell);
  if (buffer_.size() >= buffer_bytes_) return FlushLocked();
  return Status::OK();
}

Status CsvChunkWriter::EndRow() {
  if (!status_.ok()) return status_;
  if (closed_) return Status::Internal("write after Close: " + path_);
  cells_in_row_ = 0;
  buffer_ += '\n';
  if (buffer_.size() >= buffer_bytes_) return FlushLocked();
  return Status::OK();
}

Status CsvChunkWriter::FlushLocked() {
  if (!status_.ok()) return status_;
  if (buffer_.empty()) return Status::OK();
  if (out_ != nullptr) {
    out_->append(buffer_);
  } else {
    // Injected short write: a full disk accepts part of the buffer and
    // errors — the typed failure must latch exactly as the real one.
    size_t written = FOOFAH_FAULT_FAIL(fault_points::kCsvStreamWrite)
                         ? buffer_.size() / 2
                         : std::fwrite(buffer_.data(), 1, buffer_.size(),
                                       file_);
    if (written != buffer_.size()) {
      status_ = Status::Unavailable("write failed: " + path_);
      return status_;
    }
    // Push the bytes through stdio so disk-full errors surface at this
    // flush, not silently at close.
    if (std::fflush(file_) != 0) {
      status_ = Status::Unavailable("write failed: " + path_);
      return status_;
    }
  }
  bytes_written_ += buffer_.size();
  buffer_.clear();
  return Status::OK();
}

Status CsvChunkWriter::Flush() { return FlushLocked(); }

Status CsvChunkWriter::Close() {
  if (closed_) return status_;
  Status flushed = FlushLocked();
  closed_ = true;
  if (file_ != nullptr) {
    if (std::fclose(file_) != 0 && status_.ok()) {
      status_ = Status::Unavailable("write failed: " + path_);
    }
    file_ = nullptr;
  }
  return status_.ok() ? flushed : status_;
}

}  // namespace foofah
