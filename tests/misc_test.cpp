// Tests for the remaining small utilities: the table printer, the stopwatch,
// and serde edge cases not covered elsewhere.

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"

namespace hpbdc {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.row({"a", "1"});
  t.row({"longer-name", "22"});
  std::ostringstream os;
  t.print(os);
  const auto out = os.str();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  // Columns align: both value entries start at the same offset.
  const auto l1 = out.find("a ");
  EXPECT_NE(l1, std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.row({"only-one"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double ms = sw.elapsed_ms();
  EXPECT_GE(ms, 15.0);
  EXPECT_LT(ms, 5000.0);
  sw.reset();
  EXPECT_LT(sw.elapsed_ms(), 15.0);
}

TEST(Serialize, VarintBoundaryOverflowRejected) {
  // 11 bytes of continuation: more than a u64 can hold.
  Bytes bad(11, std::byte{0xff});
  BufReader r(bad);
  EXPECT_THROW(r.read_varint(), std::runtime_error);
}

TEST(Serialize, NestedContainers) {
  std::vector<std::vector<std::pair<std::uint32_t, std::string>>> v{
      {{1, "a"}, {2, "b"}}, {}, {{3, "c"}}};
  const auto bytes = to_bytes(v);
  const auto back =
      from_bytes<std::vector<std::vector<std::pair<std::uint32_t, std::string>>>>(bytes);
  EXPECT_EQ(back, v);
}

TEST(Serialize, BytesFieldRoundTrip) {
  BufWriter w;
  Bytes payload{std::byte{1}, std::byte{2}, std::byte{3}};
  w.write_bytes(payload);
  BufReader r(w.bytes());
  EXPECT_EQ(r.read_bytes(), payload);
  EXPECT_TRUE(r.done());
}

}  // namespace
}  // namespace hpbdc
