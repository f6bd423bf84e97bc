// Binary corpus persistence in format v3, the only corpus format. It is
// versioned and length-prefixed so readers can detect truncation and
// corruption, and laid out for lazy — and *columnar* — materialization:
// everything a serving process needs to validate shape and answer "which
// tables could matter" sits ahead of the bulky cells, the cell region is
// size-prefixed so its extent is bounds-checked without parsing a single
// cell, and each directory entry carries its per-column extents so the
// residency layer can parse one touched column of a giant table.
//
//   [magic "MATECORP"] [version u32 = 3]
//   stats section:    [stats-present u8] [CorpusStats]
//   table directory:  [num_tables varint]
//     per table: [name lp] [num_cols varint] [col names lp...]
//                [num_rows varint] [deleted bitmap lp] [cell_bytes varint]
//                [per-column cell bytes varint x num_cols, sum = cell_bytes]
//   cell region:      [region total fixed64]
//     per table: cells column-major, each length-prefixed (cell_bytes each)
//
// Any other version fails with kCorruption "unsupported version N".
// Load errors are section- and offset-aware: a truncated or corrupt image
// names the section ("table directory", "cell region", ...) and the byte
// offset where parsing stopped, not just a generic failure.

#ifndef MATE_STORAGE_CORPUS_IO_H_
#define MATE_STORAGE_CORPUS_IO_H_

#include <string>

#include "storage/corpus.h"
#include "util/status.h"

namespace mate {

/// Serializes `corpus` into `out` (replacing its contents) without
/// persisted stats — lazy opens of the result fall back to a ComputeStats
/// scan. Prefer the stats overload when stats are at hand (Session::Save
/// passes its own).
void SerializeCorpus(const Corpus& corpus, std::string* out);

/// Same, embedding `stats` in the v3 header so a lazy open loads them
/// instead of re-scanning the corpus.
void SerializeCorpus(const Corpus& corpus, const CorpusStats& stats,
                     std::string* out);

/// Parses a corpus serialized by SerializeCorpus, fully materialized. When
/// non-null, `stats`/`stats_present` receive the header's persisted
/// statistics.
Result<Corpus> DeserializeCorpus(std::string_view data,
                                 CorpusStats* stats = nullptr,
                                 bool* stats_present = nullptr);

/// Writes the serialized corpus to `path` (atomically via rename).
Status SaveCorpus(const Corpus& corpus, const std::string& path);
Status SaveCorpus(const Corpus& corpus, const CorpusStats& stats,
                  const std::string& path);

/// Reads a corpus written by SaveCorpus, fully materialized.
Result<Corpus> LoadCorpus(const std::string& path);

/// Opens `path` lazily: mmaps the image, parses only the stats section and
/// table directory (bounds-checking the cell region extent), and returns a
/// corpus whose tables materialize on first access — Session::Open's
/// corpus path. `stats`/`stats_present` as above.
Result<Corpus> OpenCorpusLazy(const std::string& path,
                              CorpusStats* stats = nullptr,
                              bool* stats_present = nullptr);

/// Reads/writes a whole file (shared with index_io).
Status WriteFileAtomic(const std::string& path, std::string_view contents);
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace mate

#endif  // MATE_STORAGE_CORPUS_IO_H_
