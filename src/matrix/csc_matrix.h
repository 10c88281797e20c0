// Compressed Sparse Column storage — the layout behind the column-wise and
// column-to-row access methods. For column-to-row (paper Sec. 2.1), column
// j's stored row set is exactly S(j) = {i : a_ij != 0}.
#pragma once

#include <cstdint>
#include <vector>

#include "matrix/csr_matrix.h"
#include "matrix/sparse_vector.h"

namespace dw::matrix {

/// Immutable CSC matrix (double values, 32-bit row indexes).
class CscMatrix {
 public:
  CscMatrix() = default;

  /// Transposes a CSR matrix into CSC form (counting sort; O(nnz)).
  static CscMatrix FromCsr(const CsrMatrix& csr);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  /// Entries in column j.
  size_t ColNnz(Index j) const {
    return static_cast<size_t>(col_ptr_[j + 1] - col_ptr_[j]);
  }

  /// View over column j: indices are the row ids S(j) in ascending order,
  /// values are a_ij.
  SparseVectorView Col(Index j) const {
    const int64_t begin = col_ptr_[j];
    return SparseVectorView{row_idx_.data() + begin, values_.data() + begin,
                            static_cast<size_t>(col_ptr_[j + 1] - begin)};
  }

  const std::vector<int64_t>& col_ptr() const { return col_ptr_; }
  const std::vector<Index>& row_idx() const { return row_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Bytes one full scan of the matrix reads (values + indexes).
  int64_t ScanBytes() const {
    return nnz() * static_cast<int64_t>(sizeof(double) + sizeof(Index));
  }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<int64_t> col_ptr_;  // size cols_+1
  std::vector<Index> row_idx_;    // size nnz
  std::vector<double> values_;    // size nnz
};

}  // namespace dw::matrix
