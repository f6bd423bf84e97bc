#include "index/index_io.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "storage/corpus_io.h"
#include "util/coding.h"
#include "util/mapped_file.h"
#include "util/parse_cursor.h"

namespace mate {

namespace {
constexpr char kMagic[] = "MATEINDX";
constexpr size_t kMagicLen = 8;
// v2: shape section ahead of the dictionary, size-prefixed posting region.
constexpr uint32_t kVersion = 2;

}  // namespace

// Phase-1/2 state shared between Begin and Finish. The whole image stays
// reachable through `file` (mmap'd when possible) so phase 2 can stream the
// bulky sections without an upfront copy.
struct PhasedIndexLoad::Impl {
  MappedFile file;
  ParseCursor cursor;
  HashFamily family = HashFamily::kXash;
  CorpusStats stats;
  std::vector<uint64_t> rows_per_table;
  uint64_t dict_size = 0;
  uint64_t num_lists = 0;
  std::string_view posting_region;
  std::string_view superkey_region;
  std::unique_ptr<InvertedIndex> owned;
  InvertedIndex* target = nullptr;
  bool finished = false;
};

// Friend of InvertedIndex: fills internals on load.
class IndexLoader {
 public:
  // Header, stats, shape, dictionary; bounds-checks the posting region.
  static Status ParsePhase1(PhasedIndexLoad::Impl* impl) {
    ParseCursor& cursor = impl->cursor;
    std::string_view* data = &cursor.remaining;
    cursor.section = "header";
    if (data->size() < kMagicLen + 4 ||
        data->substr(0, kMagicLen) != std::string_view(kMagic, kMagicLen)) {
      return cursor.Corrupt("bad magic");
    }
    data->remove_prefix(kMagicLen);
    uint32_t version = 0;
    if (!GetFixed32(data, &version)) return cursor.Corrupt("bad version");
    if (version != kVersion) {
      return cursor.Corrupt("unsupported version " + std::to_string(version) +
                            " (expected " + std::to_string(kVersion) + ")");
    }
    std::string_view family_name;
    if (!GetLengthPrefixed(data, &family_name)) {
      return cursor.Corrupt("bad hash family");
    }
    uint64_t hash_bits = 0;
    if (!GetVarint64(data, &hash_bits)) {
      return cursor.Corrupt("bad hash width");
    }
    if (data->empty()) return cursor.Corrupt("truncated stats flag");
    const uint8_t used_stats = static_cast<uint8_t>((*data)[0]);
    data->remove_prefix(1);
    // Shared CorpusStats codec (storage/corpus.h) — the corpus file header
    // persists the same block.
    if (!ParseCorpusStats(data, &impl->stats)) {
      return cursor.Corrupt("bad corpus stats");
    }

    MATE_ASSIGN_OR_RETURN(impl->family, ParseHashFamily(family_name));
    std::unique_ptr<RowHashFunction> hash =
        MakeRowHash(impl->family, static_cast<size_t>(hash_bits),
                    used_stats ? &impl->stats : nullptr);
    if (hash == nullptr) return cursor.Corrupt("bad hash configuration");
    impl->owned = std::make_unique<InvertedIndex>(std::move(hash));
    impl->target = impl->owned.get();
    if (used_stats) impl->target->corpus_stats_ = impl->stats;

    // Shape: per-table row counts, ahead of the bulky sections so loading
    // can cross-validate against a corpus before postings exist in memory.
    // Counts are bounds-checked against the bytes left (>= 1 byte each) so
    // a corrupt value fails the parse instead of driving a huge allocation.
    cursor.section = "shape";
    uint64_t num_tables = 0;
    if (!GetVarint64(data, &num_tables) || num_tables > data->size()) {
      return cursor.Corrupt("bad table count");
    }
    impl->rows_per_table.reserve(static_cast<size_t>(num_tables));
    for (uint64_t t = 0; t < num_tables; ++t) {
      uint64_t rows = 0;
      if (!GetVarint64(data, &rows)) {
        return cursor.Corrupt("truncated row counts");
      }
      impl->rows_per_table.push_back(rows);
    }

    // Dictionary, in id order.
    cursor.section = "dictionary";
    if (!GetVarint64(data, &impl->dict_size) ||
        impl->dict_size > data->size()) {
      return cursor.Corrupt("bad dictionary size");
    }
    for (uint64_t i = 0; i < impl->dict_size; ++i) {
      std::string_view value;
      if (!GetLengthPrefixed(data, &value)) {
        return cursor.Corrupt("truncated dictionary");
      }
      ValueId id = impl->target->dictionary_.GetOrAdd(value);
      if (id != i) return cursor.Corrupt("dictionary id skew");
    }

    // Posting region header: list count + byte extent, so the contiguous
    // region can be bounds-checked (and the super keys located) without
    // parsing a single list.
    cursor.section = "postings";
    if (!GetVarint64(data, &impl->num_lists)) {
      return cursor.Corrupt("bad posting list count");
    }
    uint64_t posting_bytes = 0;
    if (!GetVarint64(data, &posting_bytes)) {
      return cursor.Corrupt("bad posting region size");
    }
    if (posting_bytes > data->size()) {
      return cursor.Corrupt("posting region extends past the end of the "
                            "image (" +
                            std::to_string(posting_bytes) +
                            " bytes declared, " +
                            std::to_string(data->size()) + " available)");
    }
    // Every list costs >= 2 bytes (value id + length varints), so a
    // corrupt count fails here instead of driving a huge map reserve.
    if (impl->num_lists > posting_bytes / 2 &&
        !(impl->num_lists == 0 && posting_bytes == 0)) {
      return cursor.Corrupt("posting list count exceeds the region size");
    }
    impl->posting_region = data->substr(0, posting_bytes);
    impl->superkey_region = data->substr(posting_bytes);
    return Status::OK();
  }

  // Posting lists + super keys, streamed from the (usually mmap'd) image.
  static Status ParsePhase2(PhasedIndexLoad::Impl* impl) {
    InvertedIndex* index = impl->target;
    ParseCursor cursor{impl->posting_region, impl->cursor.base,
                       impl->cursor.image_size, "index", "postings"};
    std::string_view* data = &cursor.remaining;
    index->postings_.reserve(static_cast<size_t>(impl->num_lists));
    for (uint64_t i = 0; i < impl->num_lists; ++i) {
      uint64_t value_id = 0, list_len = 0;
      if (!GetVarint64(data, &value_id) || !GetVarint64(data, &list_len)) {
        return cursor.Corrupt("bad posting list header");
      }
      if (value_id >= impl->dict_size) {
        return cursor.Corrupt("posting for unknown value " +
                              std::to_string(value_id));
      }
      // Every entry costs >= 3 bytes (three varints); reject before
      // reserving so a flipped-byte length cannot drive a reserve an
      // order of magnitude past the region size.
      if (list_len > data->size() / 3) {
        return cursor.Corrupt("bad posting list length " +
                              std::to_string(list_len));
      }
      PostingList list;
      list.reserve(static_cast<size_t>(list_len));
      for (uint64_t e = 0; e < list_len; ++e) {
        uint32_t t = 0, c = 0, r = 0;
        if (!GetVarint32(data, &t) || !GetVarint32(data, &c) ||
            !GetVarint32(data, &r)) {
          return cursor.Corrupt("truncated posting entry");
        }
        list.push_back(PostingEntry{t, c, r});
      }
      index->num_posting_entries_ += list.size();
      index->postings_.emplace(static_cast<ValueId>(value_id),
                               std::move(list));
    }
    if (!data->empty()) {
      return cursor.Corrupt("posting region size skew: " +
                            std::to_string(data->size()) + " bytes left over");
    }

    // Super keys.
    cursor = ParseCursor{impl->superkey_region, impl->cursor.base,
                         impl->cursor.image_size, "index", "super-key"};
    const size_t section_start = cursor.offset();
    data = &cursor.remaining;
    auto store = SuperKeyStore::ParseFrom(data);
    if (!store.ok()) {
      // ParseFrom leaves the cursor unspecified on failure; report the
      // section start instead of a bogus mid-parse offset.
      return Status::Corruption(
          "index: " + store.status().message() +
          " (super-key section starting at byte offset " +
          std::to_string(section_start) + " of " +
          std::to_string(cursor.image_size) + ")");
    }
    if (store->hash_bits() != index->hash_bits()) {
      return cursor.Corrupt("super key width mismatch");
    }
    // The shape header is what phase 1 validated the corpus against; skew
    // between it and the streamed store must fail the readiness check —
    // never produce a silently wrong index.
    if (store->num_tables() != impl->rows_per_table.size()) {
      return cursor.Corrupt(
          "super key store covers " + std::to_string(store->num_tables()) +
          " tables but the shape header declares " +
          std::to_string(impl->rows_per_table.size()));
    }
    for (size_t t = 0; t < impl->rows_per_table.size(); ++t) {
      if (store->NumRows(t) != impl->rows_per_table[t]) {
        return cursor.Corrupt(
            "super key table " + std::to_string(t) + " has " +
            std::to_string(store->NumRows(t)) +
            " rows but the shape header declares " +
            std::to_string(impl->rows_per_table[t]));
      }
    }
    if (!data->empty()) {
      return cursor.Corrupt(std::to_string(data->size()) +
                            " trailing bytes after the super keys");
    }
    index->superkeys_ = std::move(*store);
    return Status::OK();
  }

  // Blocking both-phase parse over a borrowed buffer (DeserializeIndex).
  static Result<std::unique_ptr<InvertedIndex>> LoadAll(std::string_view data,
                                                        HashFamily* family,
                                                        CorpusStats* stats) {
    PhasedIndexLoad::Impl impl;
    impl.cursor =
        ParseCursor{data, data.data(), data.size(), "index", "header"};
    MATE_RETURN_IF_ERROR(ParsePhase1(&impl));
    if (family != nullptr) *family = impl.family;
    if (stats != nullptr) *stats = impl.stats;
    MATE_RETURN_IF_ERROR(ParsePhase2(&impl));
    return std::move(impl.owned);
  }
};

PhasedIndexLoad::PhasedIndexLoad() : impl_(std::make_unique<Impl>()) {}
PhasedIndexLoad::~PhasedIndexLoad() = default;
PhasedIndexLoad::PhasedIndexLoad(PhasedIndexLoad&&) noexcept = default;
PhasedIndexLoad& PhasedIndexLoad::operator=(PhasedIndexLoad&&) noexcept =
    default;

Result<PhasedIndexLoad> PhasedIndexLoad::Begin(const std::string& path) {
  PhasedIndexLoad load;
  MATE_ASSIGN_OR_RETURN(load.impl_->file, MappedFile::Open(path));
  const std::string_view image = load.impl_->file.view();
  load.impl_->cursor = ParseCursor{image, image.data(), image.size(),
                                   "index", "header"};
  MATE_RETURN_IF_ERROR(IndexLoader::ParsePhase1(load.impl_.get()));
  return load;
}

HashFamily PhasedIndexLoad::hash_family() const { return impl_->family; }
const CorpusStats& PhasedIndexLoad::corpus_stats() const {
  return impl_->stats;
}
const std::vector<uint64_t>& PhasedIndexLoad::rows_per_table() const {
  return impl_->rows_per_table;
}
size_t PhasedIndexLoad::posting_region_bytes() const {
  return impl_->posting_region.size();
}
bool PhasedIndexLoad::is_mapped() const { return impl_->file.is_mapped(); }

std::unique_ptr<InvertedIndex> PhasedIndexLoad::TakeIndex() {
  return std::move(impl_->owned);
}

Status PhasedIndexLoad::Finish() {
  Impl* impl = impl_.get();
  if (impl->finished) {
    return Status::Internal("PhasedIndexLoad::Finish called twice");
  }
  impl->finished = true;
  const Status status = IndexLoader::ParsePhase2(impl);
  // The parsed structures own everything now; unpin the image.
  impl->posting_region = {};
  impl->superkey_region = {};
  impl->cursor = ParseCursor{};
  impl->file.Release();
  return status;
}

void SerializeIndex(const InvertedIndex& index, HashFamily family,
                    const CorpusStats& stats, std::string* out) {
  out->clear();
  out->append(kMagic, kMagicLen);
  PutFixed32(out, kVersion);
  PutLengthPrefixed(out, HashFamilyName(family));
  PutVarint64(out, index.hash_bits());
  // Heuristic: stats were "used" iff they are non-empty.
  out->push_back(stats.num_cells > 0 ? '\x01' : '\x00');
  AppendCorpusStats(out, stats);

  // Shape section (v2): per-table super-key row counts.
  const std::vector<uint64_t> rows_per_table = index.superkeys().RowCounts();
  PutVarint64(out, rows_per_table.size());
  for (uint64_t rows : rows_per_table) PutVarint64(out, rows);

  const ValueDictionary& dict = index.dictionary();
  PutVarint64(out, dict.size());
  for (ValueId id = 0; id < dict.size(); ++id) {
    PutLengthPrefixed(out, dict.ValueOf(id));
  }

  // Posting lists in value-id order for deterministic bytes. The region is
  // size-prefixed; a cheap varint-length pre-pass computes the prefix so
  // the lists stream straight into `out` without a second full-size buffer.
  std::vector<std::pair<ValueId, const PostingList*>> lists;
  index.ForEachPostingList([&](ValueId id, const PostingList& list) {
    lists.emplace_back(id, &list);
  });
  std::sort(lists.begin(), lists.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  uint64_t region_bytes = 0;
  for (const auto& [id, list] : lists) {
    region_bytes += VarintLength(id) + VarintLength(list->size());
    for (const PostingEntry& entry : *list) {
      region_bytes += VarintLength(entry.table_id) +
                      VarintLength(entry.column_id) +
                      VarintLength(entry.row_id);
    }
  }
  PutVarint64(out, lists.size());
  PutVarint64(out, region_bytes);
  const size_t region_start = out->size();
  for (const auto& [id, list] : lists) {
    PutVarint64(out, id);
    PutVarint64(out, list->size());
    for (const PostingEntry& entry : *list) {
      PutVarint32(out, entry.table_id);
      PutVarint32(out, entry.column_id);
      PutVarint32(out, entry.row_id);
    }
  }
  assert(out->size() - region_start == region_bytes);
  (void)region_start;

  index.superkeys().AppendToString(out);
}

Result<std::unique_ptr<InvertedIndex>> DeserializeIndex(
    std::string_view data, HashFamily* family, CorpusStats* stats) {
  return IndexLoader::LoadAll(data, family, stats);
}

Status SaveIndex(const InvertedIndex& index, HashFamily family,
                 const CorpusStats& stats, const std::string& path) {
  std::string buffer;
  SerializeIndex(index, family, stats, &buffer);
  return WriteFileAtomic(path, buffer);
}

Result<std::unique_ptr<InvertedIndex>> LoadIndex(const std::string& path,
                                                 HashFamily* family,
                                                 CorpusStats* stats) {
  MATE_ASSIGN_OR_RETURN(PhasedIndexLoad load, PhasedIndexLoad::Begin(path));
  if (family != nullptr) *family = load.hash_family();
  if (stats != nullptr) *stats = load.corpus_stats();
  std::unique_ptr<InvertedIndex> index = load.TakeIndex();
  MATE_RETURN_IF_ERROR(load.Finish());
  return index;
}

}  // namespace mate
