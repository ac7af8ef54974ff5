#include "ajac/sparse/csr_writer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "ajac/sparse/csr.hpp"
#include "test_helpers.hpp"

namespace ajac {
namespace {

/// Runs f, which must throw std::logic_error; returns its message.
template <typename F>
std::string rejection_message(F&& f) {
  try {
    std::forward<F>(f)();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a std::logic_error";
  return {};
}

TEST(CsrRowWriter, WritesRowsAsPushed) {
  CsrRowWriter w(3, 4, 6);
  w.push(0, 2.0);
  w.push(3, -1.0);
  w.end_row();
  w.end_row();  // an empty row
  w.push(1, -0.0);
  w.push(2, 5.0);
  w.end_row();
  const CsrMatrix a = std::move(w).finish();
  testing::expect_csr_bitwise_equal(
      a, CsrMatrix(3, 4, {0, 2, 2, 4}, {0, 3, 1, 2}, {2.0, -1.0, -0.0, 5.0}));
}

TEST(CsrRowWriter, DescendingColumnRejected) {
  CsrRowWriter w(2, 5, 4);
  w.push(3, 1.0);
  const std::string msg = rejection_message([&] { w.push(1, 1.0); });
  EXPECT_NE(msg.find("column 1 in row 0 does not exceed the previous column 3"),
            std::string::npos)
      << msg;
}

TEST(CsrRowWriter, RepeatedColumnRejected) {
  CsrRowWriter w(2, 5, 4);
  w.push(0, 1.0);
  w.end_row();
  w.push(2, 1.0);
  const std::string msg = rejection_message([&] { w.push(2, 1.0); });
  EXPECT_NE(msg.find("column 2 in row 1 does not exceed the previous column 2"),
            std::string::npos)
      << msg;
}

TEST(CsrRowWriter, ShortRowCountRejected) {
  CsrRowWriter w(3, 3, 3);
  w.push(0, 1.0);
  w.end_row();
  w.push(1, 1.0);
  w.end_row();
  const std::string msg =
      rejection_message([&] { (void)std::move(w).finish(); });
  EXPECT_NE(msg.find("finished after 2 rows, expected 3"), std::string::npos)
      << msg;
}

TEST(CsrRowWriter, ExtraRowRejected) {
  CsrRowWriter w(1, 1, 1);
  w.end_row();
  const std::string msg = rejection_message([&] { w.end_row(); });
  EXPECT_NE(msg.find("past the last of 1 rows"), std::string::npos) << msg;
}

TEST(CsrRowWriter, UnterminatedRowRejected) {
  CsrRowWriter w(1, 2, 2);
  w.end_row();
  w.push(1, 1.0);
  const std::string msg =
      rejection_message([&] { (void)std::move(w).finish(); });
  EXPECT_NE(msg.find("1 entries pushed after the last end_row()"),
            std::string::npos)
      << msg;
}

TEST(CsrRowWriter, OutOfRangeColumnRejectedByCsrValidation) {
  CsrRowWriter w(1, 2, 1);
  w.push(2, 1.0);
  w.end_row();
  const std::string msg =
      rejection_message([&] { (void)std::move(w).finish(); });
  EXPECT_NE(msg.find("column index 2 out of range"), std::string::npos)
      << msg;
}

}  // namespace
}  // namespace ajac
