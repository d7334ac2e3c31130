#include "ocs/storage_node.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <exception>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "columnar/ipc.h"
#include "columnar/kernels.h"
#include "common/bloom.h"
#include "common/checksum.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "format/encoding.h"
#include "format/parquet_lite.h"
#include "objectstore/select.h"
#include "objectstore/service.h"
#include "substrait/eval.h"

namespace pocs::ocs {

using columnar::ColumnPtr;
using columnar::RecordBatchPtr;
using substrait::Expression;
using substrait::ExprKind;
using substrait::Rel;
using substrait::RelKind;
using substrait::ScalarFunc;

bool CollectPruningTerms(const Expression& expr,
                         const columnar::Schema& scan_schema,
                         std::vector<objectstore::SelectPredicate>* out) {
  if (expr.kind != ExprKind::kCall) return false;
  if (expr.func == ScalarFunc::kAnd) {
    bool all = true;
    for (const Expression& arg : expr.args) {
      all = CollectPruningTerms(arg, scan_schema, out) && all;
    }
    return all;
  }
  if (!substrait::IsComparison(expr.func) || expr.args.size() != 2) {
    return false;
  }
  const Expression* field = nullptr;
  const Expression* literal = nullptr;
  bool flipped = false;
  if (expr.args[0].kind == ExprKind::kFieldRef &&
      expr.args[1].kind == ExprKind::kLiteral) {
    field = &expr.args[0];
    literal = &expr.args[1];
  } else if (expr.args[1].kind == ExprKind::kFieldRef &&
             expr.args[0].kind == ExprKind::kLiteral) {
    field = &expr.args[1];
    literal = &expr.args[0];
    flipped = true;
  } else {
    return false;
  }
  if (field->field_index < 0 ||
      static_cast<size_t>(field->field_index) >= scan_schema.num_fields()) {
    return false;
  }
  // literal <op> field  ≡  field <mirrored-op> literal
  const columnar::CompareOp op = substrait::ToCompareOp(expr.func);
  out->push_back({scan_schema.field(field->field_index).name,
                  flipped ? columnar::MirrorCompareOp(op) : op,
                  literal->literal});
  return true;
}

bool RowGroupMayMatch(const format::FileMeta& meta, size_t group,
                      const std::vector<objectstore::SelectPredicate>& terms) {
  for (const objectstore::SelectPredicate& term : terms) {
    const int idx = meta.schema->FieldIndex(term.column);
    if (idx < 0) continue;
    if (!objectstore::ChunkMayMatch(meta.row_groups[group].chunks[idx].stats,
                                    term)) {
      return false;
    }
  }
  return true;
}

namespace {

// Intersection of two ascending, duplicate-free selections.
columnar::SelectionVector IntersectSelections(
    const columnar::SelectionVector& a, const columnar::SelectionVector& b) {
  columnar::SelectionVector out;
  out.reserve(std::min(a.size(), b.size()));
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

// What one chunk decodes to, from the object's bytes alone: a string
// chunk stops at its decompressed page, which the scan turns into a
// DictionaryPage or a column; any other chunk is its column. A failed
// decode keeps its status, and the scan returns it only if it takes the
// chunk.
struct DecodedChunk {
  Status status;
  ColumnPtr column;
  Buffer page;
};

DecodedChunk DecodeChunk(const format::FileReader& reader, size_t g, int c) {
  DecodedChunk out;
  if (reader.schema()->field(c).type == columnar::TypeKind::kString) {
    Result<Bytes> page = reader.ReadChunkPage(g, c);
    if (page.ok()) {
      out.page = Buffer::Adopt(std::move(*page));
    } else {
      out.status = page.status();
    }
  } else {
    Result<ColumnPtr> column = reader.ReadChunk(g, c);
    if (column.ok()) {
      out.column = std::move(*column);
    } else {
      out.status = column.status();
    }
  }
  return out;
}

// One chunk's read-ahead slot, shared by the scan and the pool task that
// may decode it. `state` is the one claim: whoever moves it off kQueued
// decodes the chunk — a pool thread (kRunning, then kDone), or the scan
// itself, which claims it by cancelling the task. A pool thread writes
// `chunk`, `thrown` and `seconds` before it stores kDone; the scan reads
// them only after it loads kDone.
struct ChunkSlot {
  enum State : int { kQueued, kRunning, kDone, kCancelled };

  ChunkSlot(const format::FileReader* reader, size_t group, int column)
      : reader(reader), group(group), column(column) {}

  std::atomic<int> state{kQueued};
  // Read only by the thread that claims the slot; a source cancels every
  // unclaimed slot before it lets its reader go.
  const format::FileReader* reader;
  size_t group;
  int column;
  DecodedChunk chunk;
  std::exception_ptr thrown;  // what the decode threw (an allocation)
  double seconds = 0;         // the pool thread's decode time
};

// The pool's side of a slot: decode the chunk unless the scan got to it
// first.
void RunSlot(ChunkSlot* slot) {
  int queued = ChunkSlot::kQueued;
  if (!slot->state.compare_exchange_strong(queued, ChunkSlot::kRunning,
                                           std::memory_order_acq_rel)) {
    return;
  }
  Stopwatch timer;
  // The scan rethrows it where it takes the chunk, as if it had decoded
  // the chunk itself, and the slot still reaches kDone.
  try {
    slot->chunk = DecodeChunk(*slot->reader, slot->group, slot->column);
  } catch (...) {
    slot->thrown = std::current_exception();
  }
  slot->seconds = timer.ElapsedSeconds();
  slot->state.store(ChunkSlot::kDone, std::memory_order_release);
  slot->state.notify_all();
}

// Blocks until a pool thread that claimed `slot` stores kDone.
void AwaitSlot(const ChunkSlot& slot) {
  int state = slot.state.load(std::memory_order_acquire);
  while (state == ChunkSlot::kRunning) {
    slot.state.wait(state, std::memory_order_acquire);
    state = slot.state.load(std::memory_order_acquire);
  }
}

// BatchSource over a local Parquet-lite object with projection,
// statistics-based row-group pruning, a per-column decoded-chunk cache,
// and a lazy-column fast path: predicate columns are decoded (or served
// from cache) first and the pruning terms evaluated against the actual
// values; row groups where they match zero rows never materialize the
// remaining columns.
//
// Dictionary-aware late materialization (DESIGN.md §15): string predicate
// columns whose chunk page is dictionary-encoded are evaluated in the
// code domain — the predicate is translated once per distinct value and
// rows filtered on the raw code bytes, without decoding any string. When
// the surviving selection is partial, dictionary string columns
// materialize only the selected rows (the rest stay placeholders) and
// the selection is attached to the returned batch, so the embedded
// engine's operators — and the bloom semi-join reduction — consume
// selections instead of compacted copies.
//
// Read-ahead (DESIGN.md §10.6): with a pool and a compressed object, the
// source keeps the chunks of a window of kept row groups — the current
// one and one more per pool thread — queued on the pool, each in a
// ChunkSlot, in (row group, column) order. Chunks the cache holds are not
// queued. The scan runs the control flow above unchanged, with every
// cache lookup and insert and every count on its own thread; only where
// it would decode a chunk does it take the chunk's slot instead. A slot
// whose chunk the scan never reads, or gets from the cache, is cancelled
// or, if a pool thread has it, waited for in the destructor.
class ParquetObjectSource : public exec::BatchSource {
 public:
  ParquetObjectSource(std::shared_ptr<format::FileReader> reader,
                      std::vector<int> columns, columnar::SchemaPtr schema,
                      std::vector<objectstore::SelectPredicate> pruning,
                      std::vector<uint32_t> row_group_hint,
                      std::unique_ptr<BloomFilter> bloom, int bloom_column,
                      OcsExecStats* stats, RowGroupCache* cache,
                      std::string object_id, uint64_t version,
                      ReadAhead* read_ahead)
      : reader_(std::move(reader)),
        columns_(std::move(columns)),
        schema_(std::move(schema)),
        pruning_(std::move(pruning)),
        bloom_(std::move(bloom)),
        bloom_column_(bloom_column),
        stats_(stats),
        cache_(cache),
        object_id_(std::move(object_id)),
        version_(version),
        read_ahead_(read_ahead) {
    // An uncompressed chunk is only a checksum and a copy: handing it to
    // another thread costs more than decoding it here.
    if (read_ahead_ != nullptr && read_ahead_->pool != nullptr &&
        reader_->meta().codec != compress::CodecType::kNone) {
      pool_ = read_ahead_->pool;
      window_groups_ = pool_->num_threads() + 1;
    }
    // Version-validated by the caller: an empty hint means "scan all".
    if (!row_group_hint.empty()) {
      hinted_.assign(reader_->num_row_groups(), false);
      for (uint32_t g : row_group_hint) {
        if (g < hinted_.size()) hinted_[g] = true;
      }
    }
    // An empty projection means "all columns" (ReadRowGroup/ChunkBytes
    // semantics); expand so per-column fetches and byte accounting agree.
    if (columns_.empty()) {
      for (size_t c = 0; c < reader_->schema()->num_fields(); ++c) {
        columns_.push_back(static_cast<int>(c));
      }
    }
    std::vector<columnar::Field> fields;
    fields.reserve(columns_.size());
    for (int c : columns_) fields.push_back(reader_->schema()->field(c));
    batch_schema_ = columnar::MakeSchema(std::move(fields));
  }

  // No task outlives the scan: unclaimed slots are cancelled, and slots a
  // pool thread is decoding are waited for.
  ~ParquetObjectSource() override {
    while (!window_.empty()) PopWindow();
    Stopwatch wait;
    for (const auto& slot : running_) {
      AwaitSlot(*slot);
      pool_seconds_ += slot->seconds;
    }
    if (!running_.empty()) waited_seconds_ += wait.ElapsedSeconds();
    if (read_ahead_ != nullptr) {
      read_ahead_->pool_seconds += pool_seconds_;
      read_ahead_->waited_seconds += waited_seconds_;
    }
  }

  columnar::SchemaPtr schema() const override { return schema_; }

  // Materializing variant (direct callers outside the executor).
  Result<RecordBatchPtr> Next() override {
    POCS_ASSIGN_OR_RETURN(exec::SelectedBatch sb, NextSelected());
    if (sb.batch && sb.selection) {
      return columnar::TakeBatch(*sb.batch, *sb.selection);
    }
    return std::move(sb.batch);
  }

  Result<exec::SelectedBatch> NextSelected() override {
    while (group_ < reader_->num_row_groups()) {
      const size_t g = group_++;
      // Coordinator hint first: these groups were already proven
      // non-matching at plan time, so they never reach the per-group
      // stats check (no double counting with row_groups_skipped).
      if (!HintKeeps(g)) {
        ++stats_->row_groups_hint_skipped;
        continue;
      }
      if (!StatsMayMatch(g)) {
        ++stats_->row_groups_skipped;
        continue;
      }
      ReadAheadFrom(g);

      const size_t group_rows = reader_->meta().row_groups[g].num_rows;
      // Per-group resolution state: fully decoded columns, and string
      // chunks kept in dictionary (code) form for late materialization.
      std::unordered_map<int, ColumnPtr> fetched;
      std::unordered_map<int, format::DictionaryPage> dict_pages;

      // Resolve one column for evaluation: cache first; then, for string
      // chunks whose page is dictionary-encoded, retain the page in the
      // code domain (dict_pages) instead of decoding values; everything
      // else decodes into `fetched`. Returns the dictionary page, or
      // nullptr when the column landed in `fetched`.
      auto resolve = [&](int c) -> Result<const format::DictionaryPage*> {
        if (auto dit = dict_pages.find(c); dit != dict_pages.end()) {
          return &dit->second;
        }
        if (fetched.count(c) != 0) {
          return static_cast<const format::DictionaryPage*>(nullptr);
        }
        const columnar::Field& field = reader_->schema()->field(c);
        if (field.type == columnar::TypeKind::kString) {
          const uint64_t chunk_bytes = reader_->ChunkBytes(g, {c});
          RowGroupCacheKey key{object_id_, version_, g, c};
          if (cache_) {
            if (ColumnPtr hit = cache_->Lookup(key)) {
              ++stats_->cache_hits;
              stats_->cache_bytes_saved += chunk_bytes;
              DropChunk(g, c);
              fetched.emplace(c, std::move(hit));
              return static_cast<const format::DictionaryPage*>(nullptr);
            }
          }
          const DecodedChunk chunk = TakeChunk(g, c);
          POCS_RETURN_NOT_OK(chunk.status);
          stats_->object_bytes_read += chunk_bytes;
          POCS_ASSIGN_OR_RETURN(
              std::optional<format::DictionaryPage> dict,
              format::DecodeDictionaryPage(chunk.page.span(), field,
                                           group_rows));
          if (dict) {
            return &dict_pages.emplace(c, std::move(*dict)).first->second;
          }
          // Plain page: decode from the bytes already in hand — the same
          // accounting as a FetchColumn miss (the media read was charged
          // above, once).
          POCS_ASSIGN_OR_RETURN(
              ColumnPtr col, format::DecodePage(chunk.page, field, group_rows));
          if (cache_) {
            ++stats_->cache_misses;
            cache_->Insert(key, col, col->ByteSize());
          }
          fetched.emplace(c, std::move(col));
          return static_cast<const format::DictionaryPage*>(nullptr);
        }
        POCS_ASSIGN_OR_RETURN(ColumnPtr col, FetchColumn(g, c));
        fetched.emplace(c, std::move(col));
        return static_cast<const format::DictionaryPage*>(nullptr);
      };

      // Lazy-column fast path: evaluate the pruning conjuncts against
      // predicate columns only — in the code domain where the chunk is
      // dictionary-encoded. Every pruned term is a conjunct of the filter
      // that sits above this scan, so a group where their conjunction
      // matches zero rows contributes nothing to the query — skip it
      // before touching the remaining (often much wider) columns.
      // Otherwise the surviving selection rides along with the batch.
      std::optional<columnar::SelectionVector> sel;
      bool lazy_skip = false;
      if (!pruning_.empty() && HasNonPredicateColumns()) {
        for (const auto& pred : pruning_) {
          int idx = reader_->schema()->FieldIndex(pred.column);
          if (idx < 0) continue;
          POCS_ASSIGN_OR_RETURN(const format::DictionaryPage* dict,
                                resolve(idx));
          if (dict != nullptr) {
            const size_t before = sel ? sel->size() : group_rows;
            std::vector<uint8_t> match =
                format::TranslateDictPredicate(*dict, pred.op, pred.literal);
            columnar::SelectionVector out =
                format::FilterDictCodes(*dict, match, sel ? &*sel : nullptr);
            stats_->rows_dict_filtered += before - out.size();
            sel = std::move(out);
          } else {
            sel = columnar::CompareScalar(*fetched.at(idx), pred.op,
                                          pred.literal, sel ? &*sel : nullptr);
          }
          if (sel->empty()) {
            lazy_skip = true;
            break;
          }
        }
      }
      if (lazy_skip) {
        ++stats_->row_groups_lazy_skipped;
        continue;
      }

      // Semi-join bloom reduction (DESIGN.md §14): probe the join-key
      // column and drop rows the bloom proves unmatched. A group where
      // every key misses never materializes its other columns. The probe
      // runs over all rows (its pruned-row accounting predates predicate
      // selections); the two selections are then intersected.
      if (bloom_ && bloom_column_ >= 0 &&
          static_cast<size_t>(bloom_column_) < columns_.size()) {
        const int key_col = columns_[bloom_column_];
        POCS_ASSIGN_OR_RETURN(const format::DictionaryPage* key_dict,
                              resolve(key_col));
        // A dictionary (string) key column cannot probe an integer-key
        // bloom; BloomSelectRows keeps every row of a non-integer column,
        // so the probe is a no-op — skip it.
        if (key_dict == nullptr) {
          columnar::SelectionVector bloom_sel =
              exec::BloomSelectRows(*fetched.at(key_col), *bloom_);
          if (bloom_sel.empty()) {
            stats_->bloom_rows_pruned += group_rows;
            continue;
          }
          if (bloom_sel.size() < group_rows) {
            stats_->bloom_rows_pruned += group_rows - bloom_sel.size();
            sel = sel ? IntersectSelections(*sel, bloom_sel)
                      : std::move(bloom_sel);
          }
        }
      }

      if (sel && sel->size() == group_rows) sel.reset();  // full — drop
      const bool partial = sel.has_value();

      std::vector<ColumnPtr> cols;
      cols.reserve(columns_.size());
      for (int c : columns_) {
        // Under a partial selection, string columns go through the
        // resolver so dictionary chunks can late-materialize survivors
        // only — this is where the wide projected string column avoids
        // decoding pruned rows.
        if (partial && fetched.count(c) == 0 && dict_pages.count(c) == 0 &&
            reader_->schema()->field(c).type == columnar::TypeKind::kString) {
          POCS_RETURN_NOT_OK(resolve(c).status());
        }
        if (auto it = fetched.find(c); it != fetched.end()) {
          cols.push_back(it->second);
          continue;
        }
        if (auto dit = dict_pages.find(c); dit != dict_pages.end()) {
          if (partial) {
            // Placeholder rows make the column unusable outside this
            // batch+selection pair — never cached.
            cols.push_back(
                format::MaterializeDictionarySelected(dit->second, *sel));
            stats_->rows_late_materialized += sel->size();
          } else {
            ColumnPtr col = format::MaterializeDictionary(dit->second);
            if (cache_) {
              ++stats_->cache_misses;
              cache_->Insert(RowGroupCacheKey{object_id_, version_, g, c},
                             col, col->ByteSize());
            }
            cols.push_back(std::move(col));
          }
          continue;
        }
        POCS_ASSIGN_OR_RETURN(ColumnPtr col, FetchColumn(g, c));
        cols.push_back(std::move(col));
      }
      RecordBatchPtr batch =
          columnar::MakeBatch(batch_schema_, std::move(cols));
      return exec::SelectedBatch{std::move(batch), std::move(sel)};
    }
    return exec::SelectedBatch{RecordBatchPtr{}, std::nullopt};
  }

 private:
  bool HasNonPredicateColumns() const {
    for (int c : columns_) {
      bool is_pred = false;
      for (const auto& pred : pruning_) {
        if (reader_->schema()->FieldIndex(pred.column) == c) {
          is_pred = true;
          break;
        }
      }
      if (!is_pred) return true;
    }
    return false;
  }

  bool HintKeeps(size_t g) const { return hinted_.empty() || hinted_[g]; }

  bool StatsMayMatch(size_t g) const {
    return RowGroupMayMatch(reader_->meta(), g, pruning_);
  }

  // The scan has reached kept group `g`: retire the slots of the groups
  // before it, and queue the kept groups from `g` on until the window is
  // full. A chunk the cache holds now is left to the cache; the peek
  // neither refreshes it nor counts a hit or a miss.
  void ReadAheadFrom(size_t g) {
    if (pool_ == nullptr) return;
    while (!window_.empty() && window_.front().group < g) PopWindow();
    next_ahead_ = std::max(next_ahead_, g);
    while (window_.size() < window_groups_ &&
           next_ahead_ < reader_->num_row_groups()) {
      const size_t ahead = next_ahead_++;
      if (!HintKeeps(ahead) || !StatsMayMatch(ahead)) continue;
      WindowGroup& window = window_.emplace_back();
      window.group = ahead;
      for (int c : columns_) {
        const bool queued =
            std::any_of(window.slots.begin(), window.slots.end(),
                        [c](const auto& entry) { return entry.first == c; });
        if (queued || (cache_ && cache_->Contains(RowGroupCacheKey{
                                     object_id_, version_, ahead, c}))) {
          continue;
        }
        auto slot = std::make_shared<ChunkSlot>(reader_.get(), ahead, c);
        // The future is not kept: the slot itself carries the result.
        (void)pool_->Submit([slot] { RunSlot(slot.get()); });
        window.slots.emplace_back(c, std::move(slot));
      }
    }
  }

  // Retires the slots of the window's first group and drops the group.
  void PopWindow() {
    for (auto& [c, slot] : window_.front().slots) {
      if (slot) Retire(std::move(slot));
    }
    window_.pop_front();
  }

  // Group `g`'s slot for column `c`, moved out of the window (null when
  // the chunk was not queued).
  std::shared_ptr<ChunkSlot> Unqueue(size_t g, int c) {
    if (window_.empty() || window_.front().group != g) return nullptr;
    for (auto& [column, slot] : window_.front().slots) {
      if (column == c) return std::move(slot);
    }
    return nullptr;
  }

  // Group `g`'s chunk of column `c`, decoded: from its slot if a pool
  // thread claimed it — waiting only for a decode that thread has already
  // started — or else here, as the scan without read-ahead does.
  DecodedChunk TakeChunk(size_t g, int c) {
    if (std::shared_ptr<ChunkSlot> slot = Unqueue(g, c)) {
      int state = ChunkSlot::kQueued;
      if (!slot->state.compare_exchange_strong(state, ChunkSlot::kCancelled,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
        if (state == ChunkSlot::kRunning) {
          Stopwatch wait;
          AwaitSlot(*slot);
          waited_seconds_ += wait.ElapsedSeconds();
        }
        pool_seconds_ += slot->seconds;
        if (slot->thrown) std::rethrow_exception(slot->thrown);
        return std::move(slot->chunk);
      }
    }
    return DecodeChunk(*reader_, g, c);
  }

  // The cache served group `g`'s chunk of column `c`: give up its slot.
  void DropChunk(size_t g, int c) {
    if (std::shared_ptr<ChunkSlot> slot = Unqueue(g, c)) {
      Retire(std::move(slot));
    }
  }

  // A slot the scan will not take: cancel its task if no pool thread has
  // claimed it; else charge the decode, now or, once it finishes, in the
  // destructor.
  void Retire(std::shared_ptr<ChunkSlot> slot) {
    int state = ChunkSlot::kQueued;
    if (slot->state.compare_exchange_strong(state, ChunkSlot::kCancelled,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      return;
    }
    if (state == ChunkSlot::kDone) {
      pool_seconds_ += slot->seconds;
    } else {
      running_.push_back(std::move(slot));
    }
  }

  // One decoded column chunk, cache-first. A hit skips the media read
  // (cache_bytes_saved accounts the avoided bytes); a miss decodes,
  // charges the media read, and populates the cache.
  Result<ColumnPtr> FetchColumn(size_t g, int c) {
    const uint64_t chunk_bytes = reader_->ChunkBytes(g, {c});
    RowGroupCacheKey key{object_id_, version_, g, c};
    if (cache_) {
      if (ColumnPtr hit = cache_->Lookup(key)) {
        ++stats_->cache_hits;
        stats_->cache_bytes_saved += chunk_bytes;
        DropChunk(g, c);
        return hit;
      }
    }
    DecodedChunk chunk = TakeChunk(g, c);
    POCS_RETURN_NOT_OK(chunk.status);
    ColumnPtr col = std::move(chunk.column);
    if (!col) {
      POCS_ASSIGN_OR_RETURN(
          col, format::DecodePage(chunk.page, reader_->schema()->field(c),
                                  reader_->meta().row_groups[g].num_rows));
    }
    stats_->object_bytes_read += chunk_bytes;
    if (cache_) {
      ++stats_->cache_misses;
      cache_->Insert(key, col, col->ByteSize());
    }
    return col;
  }

  std::shared_ptr<format::FileReader> reader_;
  std::vector<int> columns_;
  columnar::SchemaPtr schema_;
  columnar::SchemaPtr batch_schema_;
  std::vector<objectstore::SelectPredicate> pruning_;
  std::vector<bool> hinted_;  // empty = no hint; else hinted_[g] = keep
  std::unique_ptr<BloomFilter> bloom_;  // null = no pushed bloom filter
  int bloom_column_ = -1;               // position in columns_ order
  OcsExecStats* stats_;
  RowGroupCache* cache_;
  std::string object_id_;
  uint64_t version_;
  size_t group_ = 0;

  // Read-ahead; pool_ is null when the scan decodes every chunk itself.
  struct WindowGroup {
    size_t group = 0;
    // (column, slot); a slot the scan took or retired is null.
    std::vector<std::pair<int, std::shared_ptr<ChunkSlot>>> slots;
  };
  ReadAhead* read_ahead_;
  ThreadPool* pool_ = nullptr;
  size_t window_groups_ = 0;
  std::deque<WindowGroup> window_;  // queued kept groups, ascending
  size_t next_ahead_ = 0;           // the next group to consider queueing
  // Retired slots a pool thread was still decoding.
  std::vector<std::shared_ptr<ChunkSlot>> running_;
  double pool_seconds_ = 0;
  double waited_seconds_ = 0;
};

}  // namespace

Result<std::shared_ptr<columnar::Table>> ExecuteOnObject(
    const substrait::Plan& plan, const objectstore::VersionedObject& object,
    RowGroupCache* cache, OcsExecStats* stats, ReadAhead* read_ahead) {
  // A filter directly above the read leaf yields the pruning terms.
  const Rel* above_read = nullptr;
  for (const Rel* r = plan.root.get(); r->input; r = r->input.get()) {
    above_read = r;
  }
  exec::ScanFactory factory =
      [&](const Rel& r) -> Result<std::unique_ptr<exec::BatchSource>> {
    POCS_ASSIGN_OR_RETURN(auto reader, format::FileReader::Open(object.data));
    if (!reader->schema()->Equals(*r.base_schema)) {
      return Status::InvalidArgument("ocs: plan schema != object schema");
    }
    POCS_ASSIGN_OR_RETURN(columnar::SchemaPtr scan_schema,
                          substrait::OutputSchema(r));
    std::vector<objectstore::SelectPredicate> pruning;
    if (above_read && above_read->kind == RelKind::kFilter) {
      CollectPruningTerms(above_read->predicate, *scan_schema, &pruning);
    }
    // The planner's row-group hint and the pushed bloom filter are each
    // pinned to the object version they were computed from; bytes of
    // another version get neither. A dropped hint or bloom costs work,
    // never rows: the stats check and the filter above still run, and the
    // engine's exact join probe keeps a bloom-less answer correct.
    std::vector<uint32_t> hint;
    if (r.hint_version == object.version) hint = r.row_group_hint;
    std::unique_ptr<BloomFilter> bloom;
    if (!r.bloom_words.empty() && r.bloom_version == object.version) {
      bloom = std::make_unique<BloomFilter>(r.bloom_words, r.bloom_hashes,
                                            r.bloom_seed);
    }
    stats->row_groups_total += reader->num_row_groups();
    stats->object_version = object.version;
    return std::unique_ptr<exec::BatchSource>(std::make_unique<ParquetObjectSource>(
        std::move(reader), r.read_columns, std::move(scan_schema),
        std::move(pruning), std::move(hint), std::move(bloom), r.bloom_column,
        stats, cache, r.bucket + "/" + r.object, object.version, read_ahead));
  };

  exec::ExecStats exec_stats;
  POCS_ASSIGN_OR_RETURN(auto table,
                        exec::ExecuteRel(*plan.root, factory, &exec_stats));
  stats->rows_scanned += exec_stats.rows_scanned;
  stats->rows_output += exec_stats.rows_output;
  return table;
}

namespace {

// S3 Select's operator scope: Read → [Filter] → [Project of field refs],
// the filter a conjunction of `field <cmp> literal` terms, and neither a
// row-group hint nor a bloom on the Read.
Status CheckSelectScope(const substrait::Plan& plan) {
  const Rel* rel = plan.root.get();
  if (rel->kind == RelKind::kProject) {
    for (const Expression& expr : rel->expressions) {
      if (expr.kind != ExprKind::kFieldRef) {
        return Status::InvalidArgument("select: projects columns only");
      }
    }
    rel = rel->input.get();
  }
  const Rel* filter = nullptr;
  if (rel->kind == RelKind::kFilter) {
    filter = rel;
    rel = rel->input.get();
  }
  if (rel->kind != RelKind::kRead) {
    return Status::InvalidArgument(
        "select: only filter and projection, not " +
        std::string(substrait::RelKindName(rel->kind)));
  }
  if (!rel->row_group_hint.empty() || !rel->bloom_words.empty()) {
    return Status::InvalidArgument("select: no row-group hint or bloom");
  }
  if (filter) {
    POCS_ASSIGN_OR_RETURN(columnar::SchemaPtr scan_schema,
                          substrait::OutputSchema(*rel));
    std::vector<objectstore::SelectPredicate> terms;
    if (!CollectPruningTerms(filter->predicate, *scan_schema, &terms)) {
      return Status::InvalidArgument(
          "select: filter is not a conjunction of column comparisons");
    }
  }
  return Status::OK();
}

}  // namespace

Result<Bytes> StorageNode::Run(const substrait::Plan& plan, bool select) const {
  if (faults_.exec_crashed.load(std::memory_order_relaxed)) {
    auto& reg = metrics::Registry::Default();
    static auto& rejected = reg.GetCounter("storage.exec_rejected");
    rejected.Increment();
    return Status::Unavailable("ocs: storage execution engine is down");
  }
  POCS_RETURN_NOT_OK(substrait::ValidatePlan(plan));
  if (select) POCS_RETURN_NOT_OK(CheckSelectScope(plan));
  Stopwatch timer;
  OcsExecStats stats;
  ReadAhead read_ahead{decode_pool_.get()};

  const Rel* read = plan.root.get();
  while (read->input) read = read->input.get();
  if (read->kind != RelKind::kRead) {
    return Status::InvalidArgument("ocs: plan must scan a named object");
  }
  POCS_ASSIGN_OR_RETURN(objectstore::VersionedObject object,
                        store_->GetVersioned(read->bucket, read->object));
  // S3 Select keeps no decoded chunks: it decodes on every request.
  POCS_ASSIGN_OR_RETURN(
      auto table, ExecuteOnObject(plan, object,
                                  select ? nullptr : rowgroup_cache_.get(),
                                  &stats, &read_ahead));
  // The result is serialized once, into its place in the response frame.
  OcsResultWriter frame(stats,
                        select ? 0 : columnar::ipc::MaxStreamBytes(*table));
  if (select) {
    objectstore::WriteSelectCsv(*table, frame.payload());
  } else {
    columnar::ipc::WriteTable(*table, frame.payload());
  }
  stats.exec_delay_seconds =
      faults_.exec_delay_seconds.load(std::memory_order_relaxed);
  // The work, summed over threads: this thread's time less its waits on
  // the decode pool, plus the pool's time. The time model divides it by
  // the node's parallelism (DESIGN.md §4).
  const double work_seconds = timer.ElapsedSeconds() -
                              read_ahead.waited_seconds +
                              read_ahead.pool_seconds;
  stats.storage_compute_seconds =
      work_seconds * config_.cpu_slowdown + stats.exec_delay_seconds;
  stats.media_read_seconds =
      static_cast<double>(stats.object_bytes_read) / kMediaReadBandwidth;

  {
    auto& reg = metrics::Registry::Default();
    static auto& plans = reg.GetCounter("storage.plans_executed");
    static auto& selects = reg.GetCounter("select.requests");
    (select ? selects : plans).Increment();
  }
  return std::move(frame).Finish(stats);
}

namespace {

// The paper's storage node has 16 cores (Table 1); a request keeps one,
// and the rest decode ahead of it.
size_t DecodeThreads() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return static_cast<size_t>(std::clamp(cores - 1, 1, 15));
}

}  // namespace

StorageNode::StorageNode(std::shared_ptr<objectstore::ObjectStore> store,
                         StorageNodeConfig config)
    : store_(std::move(store)),
      config_(config),
      decode_pool_(std::make_unique<ThreadPool>(DecodeThreads())) {
  if (config_.rowgroup_cache_bytes > 0) {
    rowgroup_cache_ = std::make_shared<RowGroupCache>(
        LruCacheConfig{.byte_budget = config_.rowgroup_cache_bytes,
                       .shards = 8,
                       .metric_prefix = "ocs.rowgroup_cache"});
  }
}

Result<OcsResult> StorageNode::ExecutePlan(const substrait::Plan& plan) const {
  POCS_ASSIGN_OR_RETURN(Bytes frame, Execute(plan));
  return DecodeOcsResult(Buffer::Adopt(std::move(frame)));
}

OcsResultWriter::OcsResultWriter(const OcsExecStats& stats,
                                 size_t payload_reserve)
    : out_(payload_reserve + 256) {
  ForEachCounter(stats, [this](std::string_view, const auto& value) {
    if constexpr (kIsCount<decltype(value)>) out_.WriteVarint(value);
  });
  out_.WriteVarint(stats.object_version);
  // The seconds and the payload length are fixed-width blanks until
  // Finish, and so is the checksum behind the padding.
  seconds_at_ = out_.size();
  ForEachCounter(stats, [this](std::string_view, const auto& value) {
    if constexpr (!kIsCount<decltype(value)>) out_.WriteLE<double>(0);
  });
  out_.WriteLE<uint64_t>(0);
  out_.Align8();
  checksum_at_ = out_.size();
  out_.WriteLE<uint64_t>(0);
  payload_at_ = out_.size();
}

Bytes OcsResultWriter::Finish(const OcsExecStats& stats) && {
  size_t at = seconds_at_;
  ForEachCounter(stats, [&](std::string_view, const auto& value) {
    if constexpr (!kIsCount<decltype(value)>) {
      out_.PatchLE<double>(at, value);
      at += 8;
    }
  });
  out_.PatchLE<uint64_t>(at, out_.size() - payload_at_);
  out_.PatchLE<uint64_t>(checksum_at_,
                         Checksum64(out_.span().first(checksum_at_)));
  return std::move(out_).Take();
}

Result<OcsResult> DecodeOcsResult(const Buffer& frame) {
  BufferReader in(frame.span());
  OcsResult result;
  // Reads the counts (varints) or the seconds (doubles) in list order.
  auto read = [&](bool counts) {
    Status status;
    ForEachCounter(result.stats, [&](std::string_view, auto& value) {
      if (!status.ok() || kIsCount<decltype(value)> != counts) return;
      if constexpr (kIsCount<decltype(value)>) {
        Result<uint64_t> count = in.ReadVarint();
        status = count.status();
        if (count.ok()) value = *count;
      } else {
        Result<double> seconds = in.ReadLE<double>();
        status = seconds.status();
        if (seconds.ok()) value = *seconds;
      }
    });
    return status;
  };
  POCS_RETURN_NOT_OK(read(/*counts=*/true));
  POCS_ASSIGN_OR_RETURN(result.stats.object_version, in.ReadVarint());
  POCS_RETURN_NOT_OK(read(/*counts=*/false));
  POCS_ASSIGN_OR_RETURN(uint64_t payload_bytes, in.ReadLE<uint64_t>());
  POCS_RETURN_NOT_OK(in.Align8());
  const size_t header_bytes = in.position();
  POCS_ASSIGN_OR_RETURN(uint64_t checksum, in.ReadLE<uint64_t>());
  if (Checksum64(frame.span().first(header_bytes)) != checksum) {
    return Status::Corruption("ocs: result header checksum mismatch");
  }
  // The slow-node check and the modelled query time take the seconds at
  // face value: NaN or a negative figure would slip past the storage
  // deadline and poison the query's total.
  Status seconds_ok;
  ForEachCounter(result.stats, [&](std::string_view name, const auto& value) {
    if constexpr (!kIsCount<decltype(value)>) {
      if (seconds_ok.ok() && (!std::isfinite(value) || value < 0)) {
        seconds_ok = Status::Corruption("ocs: result reports " +
                                        std::string(name) + " = " +
                                        std::to_string(value));
      }
    }
  });
  POCS_RETURN_NOT_OK(seconds_ok);
  if (payload_bytes != in.remaining()) {
    return Status::Corruption("ocs: result payload of " +
                              std::to_string(payload_bytes) + " bytes, frame holds " +
                              std::to_string(in.remaining()));
  }
  result.arrow_ipc = frame.Slice(in.position(), payload_bytes);
  return result;
}

Result<OcsResult> DecodeOcsResult(BufferReader* in) {
  POCS_ASSIGN_OR_RETURN(ByteSpan frame, in->ReadSpan(in->remaining()));
  return DecodeOcsResult(Buffer::Copy(frame));
}

void StorageNode::RegisterService(rpc::Server* server) const {
  // OCS nodes also expose the plain object-store interface: the same data
  // serves the raw-GET baseline, the S3 Select path and the OCS path, as
  // in the paper's comparison setup.
  objectstore::RegisterStorageService(store_, server);

  const StorageNode* node = this;
  server->RegisterMethod("ExecutePlan", [node](ByteSpan req) -> Result<Bytes> {
    POCS_ASSIGN_OR_RETURN(substrait::Plan plan,
                          substrait::DeserializePlan(req));
    return node->Execute(plan);
  });
  server->RegisterMethod("Select", [node](ByteSpan req) -> Result<Bytes> {
    POCS_ASSIGN_OR_RETURN(substrait::Plan plan,
                          substrait::DeserializePlan(req));
    return node->Select(plan);
  });
}

}  // namespace pocs::ocs
