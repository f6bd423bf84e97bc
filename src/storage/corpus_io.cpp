#include "storage/corpus_io.h"

#include <bit>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "storage/table_store.h"
#include "util/coding.h"
#include "util/mapped_file.h"
#include "util/parse_cursor.h"

namespace mate {

namespace {

constexpr char kMagic[] = "MATECORP";
constexpr size_t kMagicLen = 8;
// The only format: persisted stats + shape directory (with per-column
// extents) ahead of a size-prefixed cell region — see corpus_io.h.
constexpr uint32_t kVersion = 3;

// Everything ahead of the cells: persisted stats plus the table directory,
// with each shape's cell blob located (absolute offsets) and bounds-checked
// against the size-prefixed cell region.
struct CorpusHeader {
  bool stats_present = false;
  CorpusStats stats;
  std::vector<TableShape> shapes;
};

// Per-byte popcount (the bitmap can run to total-corpus-rows/8 bytes, and
// this runs inside the "header-only" lazy open — a per-bit loop would make
// that open O(total rows)). Padding bits past num_rows are masked off.
size_t CountDeletedRows(std::string_view bitmap, uint64_t num_rows) {
  size_t deleted = 0;
  const size_t full_bytes = static_cast<size_t>(num_rows / 8);
  for (size_t b = 0; b < full_bytes; ++b) {
    deleted += static_cast<size_t>(
        std::popcount(static_cast<unsigned char>(bitmap[b])));
  }
  if (num_rows % 8 != 0) {
    const unsigned char mask =
        static_cast<unsigned char>((1u << (num_rows % 8)) - 1);
    deleted += static_cast<size_t>(std::popcount(
        static_cast<unsigned char>(bitmap[full_bytes] & mask)));
  }
  return deleted;
}

// Magic + version already consumed; leaves the cursor at the first cell
// blob with every shape's extent verified to lie inside the region.
Status ParseHeader(ParseCursor* cursor, CorpusHeader* header) {
  std::string_view* data = &cursor->remaining;

  cursor->section = "stats";
  if (data->empty()) return cursor->Corrupt("truncated stats flag");
  header->stats_present = (*data)[0] != 0;
  data->remove_prefix(1);
  if (!ParseCorpusStats(data, &header->stats)) {
    return cursor->Corrupt("bad corpus stats");
  }

  // Directory entries cost >= 1 byte each, so a corrupt count fails here
  // instead of driving a huge reserve.
  cursor->section = "table directory";
  uint64_t num_tables = 0;
  if (!GetVarint64(data, &num_tables) || num_tables > data->size()) {
    return cursor->Corrupt("bad table count");
  }
  header->shapes.reserve(static_cast<size_t>(num_tables));
  for (uint64_t t = 0; t < num_tables; ++t) {
    TableShape shape;
    std::string_view name;
    if (!GetLengthPrefixed(data, &name)) {
      return cursor->Corrupt("bad name for table " + std::to_string(t));
    }
    shape.name.assign(name);
    uint64_t num_cols = 0;
    if (!GetVarint64(data, &num_cols) || num_cols > data->size()) {
      return cursor->Corrupt("bad column count for table " +
                             std::to_string(t));
    }
    shape.column_names.reserve(static_cast<size_t>(num_cols));
    for (uint64_t c = 0; c < num_cols; ++c) {
      std::string_view col_name;
      if (!GetLengthPrefixed(data, &col_name)) {
        return cursor->Corrupt("bad column name for table " +
                               std::to_string(t));
      }
      shape.column_names.emplace_back(col_name);
    }
    // The bitmap costs num_rows/8 bytes, so this bound rejects absurd row
    // counts before the (num_rows + 7) below can wrap around and let an
    // empty bitmap masquerade as covering 2^64 rows.
    if (!GetVarint64(data, &shape.num_rows) ||
        shape.num_rows / 8 > data->size()) {
      return cursor->Corrupt("bad row count for table " + std::to_string(t));
    }
    std::string_view bitmap;
    if (!GetLengthPrefixed(data, &bitmap) ||
        bitmap.size() != (shape.num_rows + 7) / 8) {
      return cursor->Corrupt("bad deleted bitmap for table " +
                             std::to_string(t));
    }
    shape.deleted_bitmap.assign(bitmap);
    shape.num_deleted_rows = CountDeletedRows(bitmap, shape.num_rows);
    // Bounded by the whole image so the directory sum below cannot be
    // driven past the region check by a pair of wrapping extents.
    if (!GetVarint64(data, &shape.cell_bytes) ||
        shape.cell_bytes > cursor->image_size) {
      return cursor->Corrupt("bad cell size for table " + std::to_string(t));
    }
    // Every cell costs >= 1 byte (its length varint), so a shape whose
    // row x column count exceeds its extent is corrupt — rejecting it here
    // also caps what a failed parse's shape stub can allocate to roughly
    // the blob's own size (no small-file -> huge-table amplification).
    if (num_cols > 0 && shape.num_rows > shape.cell_bytes / num_cols) {
      return cursor->Corrupt(
          "cell region too small for the declared shape of table " +
          std::to_string(t) + " (" + std::to_string(shape.num_rows) +
          " rows x " + std::to_string(num_cols) + " columns in " +
          std::to_string(shape.cell_bytes) + " bytes)");
    }
    // Per-column extents must tile the table's blob exactly: each is
    // bounded by cell_bytes (so the running sum cannot wrap), and a sum
    // skew is rejected here — a corrupt split must fail at open with the
    // section + offset, never as a wild sub-blob parse later.
    shape.column_bytes.reserve(static_cast<size_t>(num_cols));
    uint64_t column_total = 0;
    for (uint64_t c = 0; c < num_cols; ++c) {
      uint64_t col_bytes = 0;
      if (!GetVarint64(data, &col_bytes) ||
          col_bytes > shape.cell_bytes - column_total) {
        return cursor->Corrupt("bad column cell size for column " +
                               std::to_string(c) + " of table " +
                               std::to_string(t));
      }
      column_total += col_bytes;
      shape.column_bytes.push_back(col_bytes);
    }
    if (column_total != shape.cell_bytes) {
      return cursor->Corrupt(
          "column size skew for table " + std::to_string(t) +
          ": columns declare " + std::to_string(column_total) +
          " bytes, cell blob holds " + std::to_string(shape.cell_bytes));
    }
    header->shapes.push_back(std::move(shape));
  }

  // The region prefix makes the extent checkable with zero cell parsing: a
  // short file fails here, at open, not mid-materialization.
  cursor->section = "cell region";
  uint64_t region_bytes = 0;
  if (!GetFixed64(data, &region_bytes)) {
    return cursor->Corrupt("bad cell region size");
  }
  if (region_bytes > data->size()) {
    return cursor->Corrupt(
        "cell region extends past the end of the image (" +
        std::to_string(region_bytes) + " bytes declared, " +
        std::to_string(data->size()) + " available)");
  }
  if (region_bytes < data->size()) {
    return cursor->Corrupt(std::to_string(data->size() - region_bytes) +
                           " trailing bytes after the cell region");
  }
  uint64_t directory_total = 0;
  for (const TableShape& shape : header->shapes) {
    // Overflow-safe: a crafted pair of extents summing to region_bytes
    // mod 2^64 must not pass the skew check and then substr past the end.
    if (shape.cell_bytes >
        std::numeric_limits<uint64_t>::max() - directory_total) {
      return cursor->Corrupt("cell sizes in the directory overflow");
    }
    directory_total += shape.cell_bytes;
  }
  if (directory_total != region_bytes) {
    return cursor->Corrupt(
        "cell region size skew: directory declares " +
        std::to_string(directory_total) + " bytes, region holds " +
        std::to_string(region_bytes));
  }
  uint64_t offset = cursor->offset();
  for (TableShape& shape : header->shapes) {
    shape.cell_offset = offset;
    offset += shape.cell_bytes;
  }
  return Status::OK();
}

// Shared entry: checks magic and version, parses the header, then either
// hands the mapped image to a lazy store (`lazy_backing`) or parses every
// cell blob into a fully resident corpus.
Result<Corpus> DeserializeAny(std::string_view data, CorpusStats* stats,
                              bool* stats_present,
                              MappedFile* lazy_backing) {
  if (stats_present != nullptr) *stats_present = false;
  ParseCursor cursor{data, data.data(), data.size(), "corpus",
                     "header"};
  if (data.size() < kMagicLen + 4 ||
      data.substr(0, kMagicLen) != std::string_view(kMagic, kMagicLen)) {
    return cursor.Corrupt("bad magic");
  }
  cursor.remaining.remove_prefix(kMagicLen);
  uint32_t version = 0;
  if (!GetFixed32(&cursor.remaining, &version)) {
    return cursor.Corrupt("bad version");
  }
  if (version != kVersion) {
    return cursor.Corrupt("unsupported version " + std::to_string(version) +
                          " (expected " + std::to_string(kVersion) + ")");
  }
  CorpusHeader header;
  MATE_RETURN_IF_ERROR(ParseHeader(&cursor, &header));
  if (stats != nullptr) *stats = header.stats;
  if (stats_present != nullptr) *stats_present = header.stats_present;
  if (lazy_backing != nullptr) {
    return Corpus(
        TableStore::Lazy(std::move(header.shapes), std::move(*lazy_backing)));
  }
  Corpus corpus;
  for (const TableShape& shape : header.shapes) {
    Table table(shape.name);
    for (const std::string& column : shape.column_names) {
      table.AddColumn(column);
    }
    MATE_RETURN_IF_ERROR(ParseTableCells(
        shape,
        data.substr(static_cast<size_t>(shape.cell_offset),
                    static_cast<size_t>(shape.cell_bytes)),
        data.size(), &table));
    corpus.AddTable(std::move(table));
  }
  return corpus;
}

void SerializeCorpusImpl(const Corpus& corpus, const CorpusStats* stats,
                         std::string* out) {
  out->clear();
  out->append(kMagic, kMagicLen);
  PutFixed32(out, kVersion);
  out->push_back(stats != nullptr ? '\x01' : '\x00');
  AppendCorpusStats(out, stats != nullptr ? *stats : CorpusStats{});
  PutVarint64(out, corpus.NumTables());
  // Directory first (a varint-length pre-pass sizes each cell blob), then
  // the size-prefixed region, so the blobs stream straight into `out`.
  uint64_t region_bytes = 0;
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    const Table& table = corpus.table(t);
    PutLengthPrefixed(out, table.name());
    PutVarint64(out, table.NumColumns());
    for (ColumnId c = 0; c < table.NumColumns(); ++c) {
      PutLengthPrefixed(out, table.column_name(c));
    }
    PutVarint64(out, table.NumRows());
    // Deleted-row bitmap, bit r of byte r/8.
    std::string bitmap((table.NumRows() + 7) / 8, '\0');
    for (RowId r = 0; r < table.NumRows(); ++r) {
      if (table.IsRowDeleted(r)) {
        bitmap[r / 8] |= static_cast<char>(1 << (r % 8));
      }
    }
    PutLengthPrefixed(out, bitmap);
    // cell_bytes is the sum of the per-column extents, so one per-column
    // pass sizes both the blob varint and the extent list.
    std::vector<uint64_t> column_bytes(table.NumColumns());
    uint64_t cell_bytes = 0;
    for (ColumnId c = 0; c < table.NumColumns(); ++c) {
      column_bytes[c] = TableColumnCellBytes(table, c);
      cell_bytes += column_bytes[c];
    }
    PutVarint64(out, cell_bytes);
    for (uint64_t col_bytes : column_bytes) PutVarint64(out, col_bytes);
    region_bytes += cell_bytes;
  }
  PutFixed64(out, region_bytes);
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    AppendTableCells(corpus.table(t), out);
  }
}

}  // namespace

void SerializeCorpus(const Corpus& corpus, std::string* out) {
  SerializeCorpusImpl(corpus, nullptr, out);
}

void SerializeCorpus(const Corpus& corpus, const CorpusStats& stats,
                     std::string* out) {
  SerializeCorpusImpl(corpus, &stats, out);
}

Result<Corpus> DeserializeCorpus(std::string_view data, CorpusStats* stats,
                                 bool* stats_present) {
  return DeserializeAny(data, stats, stats_present, /*lazy_backing=*/nullptr);
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    if (!out) return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename failed for " + path);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!in.good() && !in.eof()) return Status::IOError("read failed: " + path);
  return ss.str();
}

Status SaveCorpus(const Corpus& corpus, const std::string& path) {
  std::string buffer;
  SerializeCorpus(corpus, &buffer);
  return WriteFileAtomic(path, buffer);
}

Status SaveCorpus(const Corpus& corpus, const CorpusStats& stats,
                  const std::string& path) {
  std::string buffer;
  SerializeCorpus(corpus, stats, &buffer);
  return WriteFileAtomic(path, buffer);
}

Result<Corpus> LoadCorpus(const std::string& path) {
  MATE_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  return DeserializeCorpus(data);
}

Result<Corpus> OpenCorpusLazy(const std::string& path, CorpusStats* stats,
                              bool* stats_present) {
  MATE_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  // DeserializeAny consumes `file` into the lazy store's backing once the
  // header parses; on an error the mapping dies with `file` on return.
  return DeserializeAny(file.view(), stats, stats_present, &file);
}

}  // namespace mate
