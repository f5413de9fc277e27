#include "ra/id_table.h"

#include "ra/table.h"

namespace tuffy {

bool IdTable::Build(const Table& table, IdTable* out) {
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type != ColumnType::kInt64) return false;
  }
  out->num_rows_ = table.num_rows();
  out->cols_.assign(schema.num_columns(), {});
  for (auto& col : out->cols_) col.reserve(table.num_rows());
  for (const Row& row : table.rows()) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (!row[c].is_int64()) return false;  // NULL or mistyped cell
      out->cols_[c].push_back(row[c].int64());
    }
  }
  return true;
}

}  // namespace tuffy
