#include "index/index_builder.h"

#include <sstream>

#include "util/stopwatch.h"

namespace mate {

std::string IndexBuildReport::ToString() const {
  std::ostringstream os;
  os << "build=" << build_seconds << "s (stats scan " << stats_scan_seconds
     << "s), postings=" << posting_entries << " (" << posting_bytes
     << " B), dict=" << dictionary_bytes << " B, superkeys=" << superkey_bytes
     << " B per-row (" << superkey_bytes_per_cell_layout << " B per-cell)";
  return os.str();
}

Result<std::unique_ptr<InvertedIndex>> BuildIndex(
    const Corpus& corpus, const IndexBuildOptions& options) {
  IndexBuildReport report;
  return BuildIndexWithReport(corpus, options, &report);
}

Result<std::unique_ptr<InvertedIndex>> BuildIndexWithReport(
    const Corpus& corpus, const IndexBuildOptions& options,
    IndexBuildReport* report) {
  if (options.hash_bits == 0 || options.hash_bits % 64 != 0 ||
      options.hash_bits > BitVector::kMaxBits) {
    return Status::InvalidArgument(
        "hash_bits must be a positive multiple of 64, at most 512");
  }

  Stopwatch stats_timer;
  CorpusStats stats;
  if (options.use_corpus_stats) stats = corpus.ComputeStats();
  report->corpus_stats = stats;
  report->stats_scan_seconds = stats_timer.ElapsedSeconds();

  std::unique_ptr<RowHashFunction> hash =
      MakeRowHash(options.hash_family, options.hash_bits,
                  options.use_corpus_stats ? &stats : nullptr);
  if (hash == nullptr) {
    return Status::InvalidArgument("unknown hash family");
  }

  Stopwatch build_timer;
  auto index = std::make_unique<InvertedIndex>(std::move(hash));
  index->set_corpus_stats(stats);
  if (options.num_threads == 1) {
    for (TableId t = 0; t < corpus.NumTables(); ++t) {
      MATE_RETURN_IF_ERROR(index->InsertTable(corpus, t));
    }
  } else {
    // Postings stay serial (deterministic dictionary ids); the super-key
    // hashing pass — the dominant cost — fans out across threads.
    for (TableId t = 0; t < corpus.NumTables(); ++t) {
      MATE_RETURN_IF_ERROR(index->InsertTablePostingsOnly(corpus, t));
    }
    MATE_RETURN_IF_ERROR(
        index->RebuildSuperKeys(corpus, options.num_threads));
  }
  report->build_seconds = build_timer.ElapsedSeconds();
  report->posting_entries = index->NumPostingEntries();
  report->posting_bytes = index->PostingBytes();
  report->dictionary_bytes = index->dictionary().MemoryBytes();
  report->superkey_bytes = index->SuperKeyBytes();
  report->superkey_bytes_per_cell_layout =
      report->posting_entries * (options.hash_bits / 8);
  return index;
}

}  // namespace mate
