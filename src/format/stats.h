// Column statistics collected at write time and stored in chunk metadata
// and the metastore. The Presto-OCS connector's Selectivity Analyzer (§4
// of the paper) consumes exactly these: min/max for range-filter
// selectivity, NDV for aggregation cardinality, row count for reduction
// ratios.
#pragma once

#include <bit>
#include <vector>

#include "columnar/column.h"
#include "columnar/ipc.h"
#include "columnar/types.h"
#include "common/buffer.h"

namespace pocs::format {

struct ColumnStats {
  columnar::Datum min;   // null datum when no non-null values seen
  columnar::Datum max;
  uint64_t row_count = 0;
  uint64_t null_count = 0;
  uint64_t ndv = 0;          // estimated; exact below kNdvCap distincts
  bool ndv_capped = false;   // true if the distinct tracker overflowed

  void Merge(const ColumnStats& other);

  void Serialize(BufferWriter* out) const;
  static Result<ColumnStats> Deserialize(BufferReader* in);
};

// A set of 64-bit value hashes: open addressing with linear probing over
// a power-of-two table kept at most half full. Hash 0 marks an empty
// slot, so that one value is tracked apart. Clear keeps the table's
// allocation: a set reused chunk after chunk stops allocating once it
// has held its largest chunk.
class DistinctHashes {
 public:
  DistinctHashes() { Clear(); }

  // True when `h` was not yet a member.
  bool Insert(uint64_t h) {
    if (h == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
    } else {
      size_t i = h & mask_;
      for (; slots_[i] != 0; i = (i + 1) & mask_) {
        if (slots_[i] == h) return false;
      }
      slots_[i] = h;
    }
    ++size_;
    if (2 * size_ > slots_.size()) Rehash(2 * slots_.size());
    return true;
  }

  size_t size() const { return size_; }
  // Calls f(h) for each member, in table order.
  template <typename F>
  void ForEach(F&& f) const {
    if (has_zero_) f(uint64_t{0});
    for (uint64_t h : slots_) {
      if (h != 0) f(h);
    }
  }
  void Clear();
  // Sizes the table for `count` members, so that inserting up to that
  // many rehashes nothing.
  void Reserve(size_t count) {
    if (2 * count > slots_.size()) Rehash(std::bit_ceil(2 * count));
  }

 private:
  static constexpr size_t kMinSlots = 64;

  void Rehash(size_t slots);

  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  bool has_zero_ = false;
};

// Accumulates stats over appended columns. Tracks exact distinct values up
// to a cap (kNdvCap); past the cap NDV saturates and is flagged — the
// selectivity estimator treats a capped NDV as "high cardinality", which
// is the conservative direction for pushdown decisions.
//
// Min and max follow Datum::Compare row by row: a value replaces the
// running one only when strictly below (above) it, so among equals the
// first seen stays (-0.0 and 0.0 keep their order of arrival), strings
// order as unsigned bytes, and a NaN that comes first stays both min and
// max because nothing compares below or above it.
class StatsCollector {
 public:
  static constexpr size_t kNdvCap = 1 << 16;

  explicit StatsCollector(columnar::TypeKind type) { Reset(type); }

  // Adds the column's rows after those seen so far, in one typed pass.
  void Update(const columnar::Column& col);
  // Adds the rows another collector of the same type saw, as if they had
  // followed this collector's rows through Update: its extremes, counts
  // and distinct hashes.
  void Merge(const StatsCollector& later);
  // Forgets every row and collects `type` from now on, keeping the
  // distinct set's allocations.
  void Reset(columnar::TypeKind type);

  const ColumnStats& stats() const { return stats_; }

 private:
  template <typename Read>
  void Extremes(size_t n, const uint8_t* valid, Read read);
  // Counts `h` among the distinct values until kNdvCap are counted.
  void AddDistinct(uint64_t h) {
    if (!stats_.ndv_capped && distinct_.Insert(h) &&
        distinct_.size() >= kNdvCap) {
      stats_.ndv_capped = true;
    }
  }
  // Folds in the extremes of later rows: `lo`/`hi` over the values that
  // order (null when none did), `leading_nan` their first non-null value
  // when that is a NaN.
  void Fold(const columnar::Datum& lo, const columnar::Datum& hi,
            const columnar::Datum* leading_nan);

  columnar::TypeKind type_ = columnar::TypeKind::kInt64;
  ColumnStats stats_;
  // Extremes of the non-null values that order, which is all of them but
  // NaN. stats_.min and stats_.max are these unless the first non-null
  // value was a NaN.
  columnar::Datum lo_;
  columnar::Datum hi_;
  DistinctHashes distinct_;
};

}  // namespace pocs::format
