#include "table/csv_stream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "table/csv.h"
#include "table/table.h"
#include "util/rng.h"

namespace foofah {
namespace {

// Reads `text` through the chunked reader with the given buffer/chunk
// sizes. On success returns the rows; on failure returns the error.
Result<std::vector<std::vector<std::string>>> ReadChunked(
    std::string_view text, size_t io_buffer, size_t max_rows,
    CsvOptions options = {}, bool intern = true) {
  CsvChunkReader reader(text, options, intern, io_buffer);
  CsvChunk chunk;
  std::vector<std::vector<std::string>> rows;
  for (;;) {
    Result<bool> got = reader.ReadChunk(max_rows, &chunk);
    if (!got.ok()) return got.status();
    if (!got.value()) break;
    EXPECT_LE(chunk.num_rows(), max_rows);
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      CsvRowView row = chunk.row(r);
      std::vector<std::string> cells;
      for (size_t c = 0; c < row.size(); ++c) cells.emplace_back(row[c]);
      rows.push_back(std::move(cells));
    }
  }
  return rows;
}

// The contract under test: for ANY byte sequence and ANY buffer/chunk
// size, the chunked reader yields exactly ParseCsv's rows — or fails
// with the exact same typed Status (code AND message, including the
// positional diagnostics).
void ExpectEquivalent(std::string_view text, CsvOptions options = {}) {
  Result<Table> whole = ParseCsv(text, options);
  for (size_t io_buffer : {1u, 2u, 3u, 7u, 64u, 4096u}) {
    for (size_t max_rows : {1u, 2u, 1000u}) {
      for (bool intern : {true, false}) {
        SCOPED_TRACE("io_buffer=" + std::to_string(io_buffer) +
                     " max_rows=" + std::to_string(max_rows) +
                     " intern=" + std::to_string(intern));
        Result<std::vector<std::vector<std::string>>> chunked =
            ReadChunked(text, io_buffer, max_rows, options, intern);
        if (!whole.ok()) {
          ASSERT_FALSE(chunked.ok());
          EXPECT_EQ(chunked.status().code(), whole.status().code());
          EXPECT_EQ(chunked.status().message(), whole.status().message());
          continue;
        }
        ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
        ASSERT_EQ(chunked->size(), whole->num_rows());
        for (size_t r = 0; r < whole->num_rows(); ++r) {
          const Table::Row& expected = whole->row(r);
          ASSERT_EQ((*chunked)[r].size(), expected.size()) << "row " << r;
          for (size_t c = 0; c < expected.size(); ++c) {
            EXPECT_EQ((*chunked)[r][c], expected[c])
                << "row " << r << " col " << c;
          }
        }
      }
    }
  }
}

TEST(CsvStreamEquivalenceTest, SimpleGrid) {
  ExpectEquivalent("a,b,c\nd,e,f\ng,h,i\n");
}

TEST(CsvStreamEquivalenceTest, RaggedRowsAndEmptyCells) {
  ExpectEquivalent("a,,c\nd\n,,\nx,y\n");
}

TEST(CsvStreamEquivalenceTest, QuotedCellsSpanningBufferBoundaries) {
  // Quoted delimiters, embedded newlines, escaped quotes — with a
  // 1-byte I/O buffer every state-machine transition straddles a refill.
  ExpectEquivalent("\"a,b\",\"c\nd\"\n\"say \"\"hi\"\"\",plain\n");
}

TEST(CsvStreamEquivalenceTest, CrLfAndLoneCr) {
  ExpectEquivalent("a,b\r\nc,d\r\n");
  // A lone CR terminates the record, exactly like the whole-file reader.
  ExpectEquivalent("a,b\rc,d\n");
  ExpectEquivalent("a\r");
  ExpectEquivalent("a\r\r\nb");
}

TEST(CsvStreamEquivalenceTest, TrailingNewlineHandling) {
  ExpectEquivalent("a,b\nc,d");
  ExpectEquivalent("a,b\nc,d\n");
  CsvOptions keep;
  keep.ignore_trailing_newline = false;
  ExpectEquivalent("a,b\nc,d\n", keep);
  ExpectEquivalent("\n", keep);
}

TEST(CsvStreamEquivalenceTest, EmptyAndDegenerateInputs) {
  ExpectEquivalent("");
  ExpectEquivalent("\n");
  ExpectEquivalent("\n\n\n");
  ExpectEquivalent(",");
  ExpectEquivalent("\"\"");
  ExpectEquivalent("x");
}

TEST(CsvStreamEquivalenceTest, QuoteOnlyOpensAtCellStart) {
  // A quote mid-cell is literal content, matching ParseCsv.
  ExpectEquivalent("ab\"cd,e\n");
  ExpectEquivalent("a\"\"b\n");
}

// --- Adversarial inputs: identical positional diagnostics ----------------

TEST(CsvStreamAdversarialTest, EmbeddedNulMatchesWholeFileDiagnostics) {
  std::string text = "ok,row\nbad";
  text.push_back('\0');
  text += "cell\n";
  ExpectEquivalent(text);
  // And the message is the positional one, not a generic failure.
  Result<std::vector<std::vector<std::string>>> r =
      ReadChunked(text, 4, 1000);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("embedded NUL byte"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().message();
}

TEST(CsvStreamAdversarialTest, UnterminatedQuoteReportsOpeningPosition) {
  std::string text = "a,b\nc,\"unclosed...\nmore";
  ExpectEquivalent(text);
  Result<std::vector<std::vector<std::string>>> r = ReadChunked(text, 3, 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("unterminated quoted cell"),
            std::string::npos);
  // The opening quote is on line 2, column 3.
  EXPECT_NE(r.status().message().find("line 2, column 3"), std::string::npos)
      << r.status().message();
}

TEST(CsvStreamAdversarialTest, OverlongCellMatchesWholeFileDiagnostics) {
  CsvOptions options;
  options.max_cell_bytes = 8;
  std::string text = "short,this cell is far too long\n";
  ExpectEquivalent(text, options);
  Result<std::vector<std::vector<std::string>>> r =
      ReadChunked(text, 4, 1000, options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("max_cell_bytes"), std::string::npos);
}

TEST(CsvStreamAdversarialTest, ErrorsAreTerminalAndRepeat) {
  std::string text = "a\n\"unclosed";
  CsvChunkReader reader{std::string_view(text)};
  CsvChunk chunk;
  Result<bool> first = reader.ReadChunk(1000, &chunk);
  ASSERT_FALSE(first.ok());
  Result<bool> second = reader.ReadChunk(1000, &chunk);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(first.status().message(), second.status().message());
}

// --- Reader mechanics ----------------------------------------------------

TEST(CsvStreamReaderTest, RowsNeverStraddleChunks) {
  CsvChunkReader reader{std::string_view("a,b\nc,d\ne,f\n")};
  CsvChunk chunk;
  Result<bool> got = reader.ReadChunk(2, &chunk);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  EXPECT_EQ(chunk.num_rows(), 2u);
  EXPECT_EQ(chunk.row(0)[0], "a");
  EXPECT_EQ(chunk.row(1)[1], "d");
  got = reader.ReadChunk(2, &chunk);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(chunk.num_rows(), 1u);
  EXPECT_EQ(chunk.row(0)[0], "e");
  got = reader.ReadChunk(2, &chunk);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
}

TEST(CsvStreamReaderTest, MissingFileIsNotFoundLikeWholeFileReader) {
  CsvChunkReader reader(std::string("/nonexistent/foofah.csv"));
  CsvChunk chunk;
  Result<bool> got = reader.ReadChunk(10, &chunk);
  ASSERT_FALSE(got.ok());
  Result<Table> whole = ReadCsvFile("/nonexistent/foofah.csv");
  ASSERT_FALSE(whole.ok());
  EXPECT_EQ(got.status().code(), whole.status().code());
  EXPECT_EQ(got.status().message(), whole.status().message());
}

TEST(CsvStreamReaderTest, BytesConsumedTracksInput) {
  std::string text = "a,b\nc,d\n";
  CsvChunkReader reader{std::string_view(text)};
  CsvChunk chunk;
  while (true) {
    Result<bool> got = reader.ReadChunk(1, &chunk);
    ASSERT_TRUE(got.ok());
    if (!got.value()) break;
  }
  EXPECT_EQ(reader.bytes_consumed(), text.size());
}

TEST(CsvStreamReaderTest, RejectsAmbiguousOptions) {
  CsvOptions same;
  same.delimiter = '"';
  CsvOptions newline;
  newline.quote = '\n';
  for (const CsvOptions& options : {same, newline}) {
    CsvChunkReader reader(std::string_view("a,b\n"), options);
    CsvChunk chunk;
    Result<bool> got = reader.ReadChunk(10, &chunk);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
}

// --- Differential: random bytes against the whole-file reader ------------

// Seeded random input drawn from the byte classes the reader tells
// apart: plain, delimiter, quote, CR, LF and NUL. Half the draws are
// plain; the rest are frequent enough that quoted cells, escapes, lone
// CRs and every error kind show up. With the seed below about a third
// of the inputs parse.
std::string RandomCsvBytes(Lcg* rng, const CsvOptions& options) {
  const size_t length = rng->Next(48);
  std::string text;
  for (size_t i = 0; i < length; ++i) {
    uint32_t pick = rng->Next(100);
    if (pick < 50) {
      text += "abc,\"'"[rng->Next(6)];  // Plain, or the other dialect's.
    } else if (pick < 65) {
      text += options.delimiter;
    } else if (pick < 80) {
      text += options.quote;
    } else if (pick < 87) {
      text += '\r';
    } else if (pick < 98) {
      text += '\n';
    } else {
      text += '\0';
    }
  }
  return text;
}

TEST(CsvStreamDifferentialTest, RandomBytesMatchParseCsv) {
  CsvOptions semicolon;
  semicolon.delimiter = ';';
  semicolon.quote = '\'';
  CsvOptions keep_trailing;
  keep_trailing.ignore_trailing_newline = false;
  CsvOptions small_cap;
  small_cap.max_cell_bytes = 3;
  const CsvOptions option_sets[] = {CsvOptions{}, semicolon, keep_trailing,
                                    small_cap};
  Lcg rng(12);
  size_t errors = 0;
  for (int i = 0; i < 400; ++i) {
    for (const CsvOptions& options : option_sets) {
      const std::string text = RandomCsvBytes(&rng, options);
      SCOPED_TRACE("input #" + std::to_string(i));
      Result<Table> whole = ParseCsv(text, options);
      if (!whole.ok()) ++errors;
      for (size_t io_buffer : {2u, 3u, 7u, 64u, 4096u}) {
        for (size_t max_rows : {1u, 3u, 4096u}) {
          Result<std::vector<std::vector<std::string>>> chunked =
              ReadChunked(text, io_buffer, max_rows, options);
          if (!whole.ok()) {
            ASSERT_FALSE(chunked.ok()) << "io_buffer=" << io_buffer;
            ASSERT_EQ(chunked.status().code(), whole.status().code());
            ASSERT_EQ(chunked.status().message(), whole.status().message())
                << "io_buffer=" << io_buffer << " max_rows=" << max_rows;
            continue;
          }
          ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
          ASSERT_EQ(chunked->size(), whole->num_rows());
          for (size_t r = 0; r < whole->num_rows(); ++r) {
            ASSERT_EQ((*chunked)[r], whole->row(r))
                << "row " << r << " io_buffer=" << io_buffer
                << " max_rows=" << max_rows;
          }
        }
      }
    }
  }
  // The mix must exercise both outcomes.
  EXPECT_GT(errors, 100u);
  EXPECT_LT(errors, 1200u);
}

TEST(CsvStreamDifferentialTest, WideRecordAfterShortRecordsGrowsBuffer) {
  // Short records fill the first chunk; then one record, with an escaped
  // quoted cell, is far wider than the 16-byte I/O buffer. The reader
  // must end the first chunk before it, then grow the buffer — with
  // every view of the earlier chunk read (under ASan) before that.
  std::string wide = "w";
  for (int i = 0; i < 12; ++i) wide += ",cell" + std::to_string(i);
  wide += ",\"say \"\"hi\"\" twice\"\n";
  const std::string text = "a,b\nc,d\n" + wide + "e,f\n";
  Result<Table> whole = ParseCsv(text);
  ASSERT_TRUE(whole.ok());

  CsvChunkReader reader(std::string_view(text), CsvOptions{}, false, 16);
  CsvChunk chunk;
  std::vector<std::vector<std::string>> rows;
  size_t chunks = 0;
  for (;;) {
    Result<bool> got = reader.ReadChunk(1000, &chunk);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (!got.value()) break;
    ++chunks;
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      CsvRowView row = chunk.row(r);
      rows.emplace_back();
      for (size_t c = 0; c < row.size(); ++c) rows.back().emplace_back(row[c]);
    }
  }
  EXPECT_GE(chunks, 2u);
  EXPECT_GE(reader.buffered_bytes(), wide.size());
  ASSERT_EQ(rows.size(), whole->num_rows());
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(rows[r], whole->row(r)) << "row " << r;
  }
  EXPECT_EQ(rows[2].back(), "say \"hi\" twice");
}

// --- Writer --------------------------------------------------------------

// The writer must be byte-identical to ToCsv on the same rows.
void ExpectWriterMatchesToCsv(const Table& table) {
  std::string written;
  {
    CsvChunkWriter writer(&written);
    std::vector<std::string_view> views;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Table::Row& row = table.row(r);
      views.clear();
      for (const std::string& cell : row) views.push_back(cell);
      ASSERT_TRUE(writer.WriteRow(views.data(), views.size()).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  EXPECT_EQ(written, ToCsv(table));
}

TEST(CsvStreamWriterTest, QuotingMatchesToCsv) {
  Table table({{"plain", "with,comma"},
               {"with\"quote", "with\nnewline"},
               {"", "trailing"}});
  ExpectWriterMatchesToCsv(table);
}

TEST(CsvStreamWriterTest, RaggedRowsWriteStoredCellsOnly) {
  std::vector<Table::Row> rows;
  rows.push_back({"a", "b", "c"});
  rows.push_back({"d"});
  rows.push_back({});
  rows.push_back({"e", "f"});
  Table table(std::move(rows));
  ExpectWriterMatchesToCsv(table);
}

TEST(CsvStreamWriterTest, RoundTripsThroughReader) {
  Table table({{"a,b", "c\nd"}, {"say \"hi\"", "plain"}});
  std::string written;
  {
    CsvChunkWriter writer(&written);
    std::vector<std::string_view> views;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      views.clear();
      for (const std::string& cell : table.row(r)) views.push_back(cell);
      ASSERT_TRUE(writer.WriteRow(views.data(), views.size()).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  Result<Table> back = ParseCsv(written);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(table));
}

TEST(CsvStreamWriterTest, FileVariantWritesAndReports) {
  std::string path = ::testing::TempDir() + "/csv_stream_writer_test.csv";
  {
    CsvChunkWriter writer(path);
    std::vector<std::string_view> cells = {"x", "y"};
    ASSERT_TRUE(writer.WriteRow(cells.data(), cells.size()).ok());
    ASSERT_TRUE(writer.Close().ok());
    EXPECT_EQ(writer.bytes_written(), 4u);  // "x,y\n"
  }
  Result<Table> back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->cell(0, 1), "y");
  std::remove(path.c_str());
}

TEST(CsvStreamWriterTest, UnwritablePathMatchesWholeFileMessage) {
  CsvChunkWriter writer(std::string("/nonexistent/dir/out.csv"));
  std::vector<std::string_view> cells = {"x"};
  Status status = writer.WriteRow(cells.data(), cells.size());
  ASSERT_FALSE(status.ok());
  Status whole = WriteCsvFile(Table({{"x"}}), "/nonexistent/dir/out.csv");
  ASSERT_FALSE(whole.ok());
  EXPECT_EQ(status.code(), whole.code());
  EXPECT_EQ(status.message(), whole.message());
}

}  // namespace
}  // namespace foofah
