#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "ajac/sparse/csr.hpp"
#include "test_helpers.hpp"

namespace ajac {
namespace {

/// The message CsrMatrix::from_rows throws for `fill`.
std::string from_rows_message(index_t rows, index_t cols,
                              const CsrMatrix::RowFill& fill) {
  return testing::rejection_message(
      [&] { (void)CsrMatrix::from_rows(rows, cols, fill); });
}

TEST(CsrRowWriter, WritesRowsAsPushed) {
  const CsrMatrix a = CsrMatrix::from_rows(
      3, 4, [](index_t begin, index_t end, CsrRowWriter& w) {
        for (index_t i = begin; i < end; ++i) {
          if (i == 0) {
            w.push(0, 2.0);
            w.push(3, -1.0);
          }
          if (i == 2) {  // row 1 stays empty
            w.push(1, -0.0);
            w.push(2, 5.0);
          }
          w.end_row();
        }
      });
  testing::expect_csr_bitwise_equal(
      a, CsrMatrix(3, 4, {0, 2, 2, 4}, {0, 3, 1, 2}, {2.0, -1.0, -0.0, 5.0}));
}

TEST(CsrRowWriter, DescendingColumnRejected) {
  const std::string msg =
      from_rows_message(2, 5, [](index_t, index_t, CsrRowWriter& w) {
        w.push(3, 1.0);
        w.push(1, 1.0);
      });
  EXPECT_NE(msg.find("column 1 in row 0 does not exceed the previous column 3"),
            std::string::npos)
      << msg;
}

TEST(CsrRowWriter, RepeatedColumnRejected) {
  const std::string msg =
      from_rows_message(2, 5, [](index_t, index_t, CsrRowWriter& w) {
        w.push(0, 1.0);
        w.end_row();
        w.push(2, 1.0);
        w.push(2, 1.0);
      });
  EXPECT_NE(msg.find("column 2 in row 1 does not exceed the previous column 2"),
            std::string::npos)
      << msg;
}

TEST(CsrRowWriter, ShortRowCountRejected) {
  const std::string msg =
      from_rows_message(3, 3, [](index_t, index_t, CsrRowWriter& w) {
        w.push(0, 1.0);
        w.end_row();
        w.push(1, 1.0);
        w.end_row();
      });
  EXPECT_NE(msg.find("fill of rows [0, 3) closed 2 rows"), std::string::npos)
      << msg;
}

TEST(CsrRowWriter, ExtraRowRejected) {
  const std::string msg =
      from_rows_message(1, 1, [](index_t, index_t, CsrRowWriter& w) {
        w.end_row();
        w.end_row();
      });
  EXPECT_NE(msg.find("end_row() past the last of rows [0, 1)"),
            std::string::npos)
      << msg;
}

TEST(CsrRowWriter, UnterminatedRowRejected) {
  const std::string msg =
      from_rows_message(1, 2, [](index_t, index_t, CsrRowWriter& w) {
        w.end_row();
        w.push(1, 1.0);
      });
  EXPECT_NE(msg.find("entries pushed after the last end_row() of rows [0, 1)"),
            std::string::npos)
      << msg;
}

TEST(CsrRowWriter, OutOfRangeColumnRejectedByCsrValidation) {
  const std::string msg =
      from_rows_message(1, 2, [](index_t, index_t, CsrRowWriter& w) {
        w.push(2, 1.0);
        w.end_row();
      });
  EXPECT_NE(msg.find("column index 2 out of range"), std::string::npos)
      << msg;
}

TEST(CsrRowWriter, FillThatChangesBetweenPassesRejected) {
  // The counting pass fixes each row's length; a writing pass that
  // disagrees is rejected before it can write past its row.
  for (const int extra_on_pass : {1, 2}) {
    int pass = 0;
    const std::string msg =
        from_rows_message(1, 3, [&](index_t, index_t, CsrRowWriter& w) {
          ++pass;
          w.push(0, 1.0);
          if (pass == extra_on_pass) w.push(1, 1.0);
          w.end_row();
        });
    const char* expected = extra_on_pass == 2
                               ? "row 0 has more entries than its counting pass"
                               : "row 0 ended after 1 entries, its counting "
                                 "pass gave 2";
    EXPECT_NE(msg.find(expected), std::string::npos) << msg;
  }
}

// One entry per row over 300,000 rows: row_ptr is 2.4 MB, past
// kHugePageBytes, so the counting pass runs on the OpenMP team. Faults
// planted in two rows must report the lower, as a serial walk would.
constexpr index_t kLargeRows = 300000;

TEST(CsrRowWriter, LargeFillNamesLowestDescendingRow) {
  ASSERT_GE((kLargeRows + 1) * sizeof(index_t), kHugePageBytes);
  const std::string msg = from_rows_message(
      kLargeRows, kLargeRows, [](index_t begin, index_t end, CsrRowWriter& w) {
        for (index_t i = begin; i < end; ++i) {
          w.push(i, 1.0);
          if (i == 160000 || i == 290000) w.push(i - 1, 1.0);
          w.end_row();
        }
      });
  EXPECT_NE(msg.find("column 159999 in row 160000 does not exceed the "
                     "previous column 160000"),
            std::string::npos)
      << msg;
}

TEST(CsrRowWriter, SmallFillNamesLowestDescendingRow) {
  const std::string msg = from_rows_message(
      10, 10, [](index_t begin, index_t end, CsrRowWriter& w) {
        for (index_t i = begin; i < end; ++i) {
          w.push(i, 1.0);
          if (i == 4 || i == 8) w.push(i - 1, 1.0);
          w.end_row();
        }
      });
  EXPECT_NE(msg.find("column 3 in row 4 does not exceed the previous column 4"),
            std::string::npos)
      << msg;
}

TEST(CsrRowWriter, LargeFillMatchesSerialArrays) {
  // A varying row length (0 to 3 entries) so the counting pass's chunk
  // offsets are exercised; the result must match arrays built serially.
  const auto len = [](index_t i) { return i % 4; };
  HugePageVector<index_t> row_ptr(static_cast<std::size_t>(kLargeRows) + 1);
  HugePageVector<index_t> col_idx;
  HugePageVector<double> values;
  row_ptr[0] = 0;
  for (index_t i = 0; i < kLargeRows; ++i) {
    for (index_t k = 0; k < len(i); ++k) {
      col_idx.push_back(i / 2 + k);
      values.push_back(static_cast<double>(i) + 0.25 * static_cast<double>(k));
    }
    row_ptr[i + 1] = static_cast<index_t>(col_idx.size());
  }
  const CsrMatrix expected(kLargeRows, kLargeRows, std::move(row_ptr),
                           std::move(col_idx), std::move(values));
  const CsrMatrix a = CsrMatrix::from_rows(
      kLargeRows, kLargeRows, [&](index_t begin, index_t end, CsrRowWriter& w) {
        for (index_t i = begin; i < end; ++i) {
          for (index_t k = 0; k < len(i); ++k) {
            w.push(i / 2 + k,
                   static_cast<double>(i) + 0.25 * static_cast<double>(k));
          }
          w.end_row();
        }
      });
  testing::expect_csr_bitwise_equal(a, expected);
}

}  // namespace
}  // namespace ajac
