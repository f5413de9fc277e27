#ifndef TUFFY_RA_ID_TABLE_H_
#define TUFFY_RA_ID_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tuffy {

class Table;

/// Columnar mirror of a relation whose attributes are all interned
/// constant ids (kInt64, no NULLs): one flat int64 vector per column.
/// This is the storage format the batch executor scans — no per-row
/// vector, no per-cell variant tag, one contiguous array per attribute
/// (Section 3.1's atom tables, laid out the way a column store would).
///
/// An IdTable is a derived view: Table::Analyze builds and caches one
/// when the schema qualifies, and any mutation invalidates it. The
/// row-oriented Table API stays authoritative for display and tests.
class IdTable {
 public:
  IdTable() = default;
  /// Takes `cols` as the columns (all the same length) of a table.
  explicit IdTable(std::vector<std::vector<int64_t>> cols)
      : num_rows_(cols.empty() ? 0 : cols[0].size()), cols_(std::move(cols)) {}

  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return cols_.size(); }
  const std::vector<int64_t>& col(size_t i) const { return cols_[i]; }

  /// Populates `out` from `table` if every column is kInt64 and no cell
  /// is NULL; returns false (leaving `out` unspecified) otherwise.
  static bool Build(const Table& table, IdTable* out);

  // ---- Incremental mutation (the evidence side tables own IdTables
  // directly and keep them current per evidence delta, instead of
  // rebuilding a Table mirror from scratch). Removal swaps with the last
  // row, so row order is maintenance-history-dependent; consumers must
  // not rely on it (the anti-join build side is order-insensitive).

  /// Resets to `num_cols` empty columns.
  void Init(size_t num_cols) {
    num_rows_ = 0;
    cols_.assign(num_cols, {});
  }

  /// Appends one row.
  template <typename T>
  void AppendRow(const std::vector<T>& vals) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].push_back(static_cast<int64_t>(vals[c]));
    }
    ++num_rows_;
  }

  /// Removes row `i` by swapping the last row into its place.
  void SwapRemoveRow(size_t i) {
    const size_t last = num_rows_ - 1;
    for (auto& col : cols_) {
      col[i] = col[last];
      col.pop_back();
    }
    --num_rows_;
  }

  size_t EstimateBytes() const {
    size_t bytes = 0;
    for (const auto& c : cols_) bytes += c.capacity() * sizeof(int64_t);
    return bytes;
  }

 private:
  size_t num_rows_ = 0;
  std::vector<std::vector<int64_t>> cols_;
};

}  // namespace tuffy

#endif  // TUFFY_RA_ID_TABLE_H_
