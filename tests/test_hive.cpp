#include "hive/hive.h"

#include <gtest/gtest.h>

#include "support/rng.h"
#include "support/strings.h"

namespace gb::hive {
namespace {

Key round_trip(const Key& root) {
  return parse_hive(serialize_hive(root, "test"));
}

bool keys_equal(const Key& a, const Key& b) {
  if (a.name != b.name || a.values != b.values) return false;
  if (a.subkeys.size() != b.subkeys.size()) return false;
  for (std::size_t i = 0; i < a.subkeys.size(); ++i) {
    if (!keys_equal(a.subkeys[i], b.subkeys[i])) return false;
  }
  return true;
}

TEST(Value, Constructors) {
  const Value s = Value::string("ImagePath", "C:\\svc.exe");
  EXPECT_EQ(s.type, ValueType::kString);
  EXPECT_EQ(s.as_string(), "C:\\svc.exe");

  const Value d = Value::dword("Start", 2);
  EXPECT_EQ(d.type, ValueType::kDword);
  EXPECT_EQ(d.as_dword(), 2u);
  EXPECT_EQ(d.data.size(), 4u);

  const Value b = Value::binary("Blob", to_bytes("\x01\x02"));
  EXPECT_EQ(b.type, ValueType::kBinary);
}

TEST(Key, LookupIsCaseInsensitive) {
  Key root;
  root.ensure_subkey("Software").ensure_subkey("Microsoft");
  EXPECT_NE(root.find_subkey("SOFTWARE"), nullptr);
  EXPECT_NE(root.find_subkey("software")->find_subkey("microsoft"), nullptr);
  EXPECT_EQ(root.find_subkey("hardware"), nullptr);
}

TEST(Key, SetValueReplacesByName) {
  Key k;
  k.set_value(Value::string("Run", "a.exe"));
  k.set_value(Value::string("RUN", "b.exe"));
  ASSERT_EQ(k.values.size(), 1u);
  EXPECT_EQ(k.values[0].as_string(), "b.exe");
}

TEST(Key, RemoveValueAndSubkey) {
  Key k;
  k.set_value(Value::string("x", "1"));
  k.ensure_subkey("child");
  EXPECT_TRUE(k.remove_value("X"));
  EXPECT_FALSE(k.remove_value("X"));
  EXPECT_TRUE(k.remove_subkey("CHILD"));
  EXPECT_FALSE(k.remove_subkey("CHILD"));
}

TEST(Key, TreeSize) {
  Key root;
  root.ensure_subkey("a").ensure_subkey("b");
  root.ensure_subkey("c");
  EXPECT_EQ(root.tree_size(), 4u);
}

TEST(HiveFormat, EmptyHiveRoundTrip) {
  Key root;
  root.name = "SYSTEM";
  const Key parsed = round_trip(root);
  EXPECT_EQ(parsed.name, "SYSTEM");
  EXPECT_TRUE(parsed.subkeys.empty());
  EXPECT_TRUE(parsed.values.empty());
}

TEST(HiveFormat, BaseBlockFields) {
  Key root;
  root.name = "SOFTWARE";
  const auto image = serialize_hive(root, "HKLM\\SOFTWARE");
  ASSERT_GE(image.size(), kBaseBlockSize + kHbinSize);
  ByteReader r(image);
  EXPECT_EQ(r.u32(), kRegfMagic);
  // The name sits NUL-padded in its 64-byte base-block field.
  r.seek(BaseBlockLayout::kName);
  EXPECT_EQ(r.str(64), std::string("HKLM\\SOFTWARE").append(51, '\0'));
  // hbin magic right after base block.
  ByteReader h(std::span<const std::byte>(image).subspan(kBaseBlockSize));
  EXPECT_EQ(h.u32(), kHbinMagic);
}

TEST(HiveFormat, TypicalAsepTreeRoundTrip) {
  Key root;
  root.name = "SOFTWARE";
  Key& run = root.ensure_subkey("Microsoft")
                 .ensure_subkey("Windows")
                 .ensure_subkey("CurrentVersion")
                 .ensure_subkey("Run");
  run.set_value(Value::string("ctfmon", "C:\\windows\\system32\\ctfmon.exe"));
  run.set_value(Value::string("hxdef", "C:\\hxdef100.exe"));
  Key& svc = root.ensure_subkey("Services").ensure_subkey("HackerDefender100");
  svc.set_value(Value::string("ImagePath", "C:\\hxdef100.exe"));
  svc.set_value(Value::dword("Start", 2));

  const Key parsed = round_trip(root);
  EXPECT_TRUE(keys_equal(parsed, root));
}

TEST(HiveFormat, EmbeddedNulNamesSurviveRoundTrip) {
  // The Native-API hiding trick: value and key names with embedded NULs.
  Key root;
  root.name = "SYSTEM";
  const std::string nul_value_name("Hidden\0Svc", 10);
  const std::string nul_key_name("Sneaky\0Key", 10);
  root.set_value(Value::string(nul_value_name, "evil.exe"));
  root.ensure_subkey(nul_key_name).set_value(Value::dword("Start", 2));

  const Key parsed = round_trip(root);
  ASSERT_EQ(parsed.values.size(), 1u);
  EXPECT_EQ(parsed.values[0].name, nul_value_name);
  ASSERT_EQ(parsed.subkeys.size(), 1u);
  EXPECT_EQ(parsed.subkeys[0].name, nul_key_name);
}

TEST(HiveFormat, LongValueNamesSurvive) {
  Key root;
  root.name = "SOFTWARE";
  const std::string long_name(300, 'n');
  root.set_value(Value::string(long_name, "payload"));
  const Key parsed = round_trip(root);
  ASSERT_EQ(parsed.values.size(), 1u);
  EXPECT_EQ(parsed.values[0].name, long_name);
}

TEST(HiveFormat, SmallDataStoredInline) {
  Key root;
  root.name = "X";
  root.set_value(Value::dword("small", 0xabcd));
  const auto image = serialize_hive(root, "X");
  const Key parsed = parse_hive(image);
  EXPECT_EQ(parsed.values[0].as_dword(), 0xabcdu);
}

TEST(HiveFormat, LargeDataUsesDataCell) {
  Key root;
  root.name = "X";
  std::vector<std::byte> blob(10000);
  Rng rng(3);
  for (auto& b : blob) b = static_cast<std::byte>(rng.below(256));
  root.set_value(Value::binary("big", blob));
  const Key parsed = round_trip(root);
  EXPECT_EQ(parsed.values[0].data, blob);
}

TEST(HiveFormat, MultipleHbinsForLargeHives) {
  Key root;
  root.name = "BIG";
  for (int i = 0; i < 200; ++i) {
    Key& k = root.ensure_subkey("key" + std::to_string(i));
    k.set_value(Value::string("v", std::string(100, 'x')));
  }
  const auto image = serialize_hive(root, "BIG");
  EXPECT_GT(image.size(), kBaseBlockSize + 2 * kHbinSize);
  const Key parsed = parse_hive(image);
  EXPECT_EQ(parsed.subkeys.size(), 200u);
}

TEST(HiveFormat, ParseRejectsBadMagic) {
  std::vector<std::byte> junk(kBaseBlockSize + kHbinSize, std::byte{0x42});
  EXPECT_THROW(parse_hive(junk), ParseError);
  EXPECT_THROW(parse_hive(std::vector<std::byte>(10)), ParseError);
}

TEST(HiveFormat, ParseRejectsDirtyHive) {
  Key root;
  root.name = "X";
  auto image = serialize_hive(root, "X");
  // Bump seq1 so seq1 != seq2 (simulates a torn write).
  image[4] = std::byte{9};
  EXPECT_THROW(parse_hive(image), ParseError);
}

TEST(HiveFormat, ParseRejectsTruncatedData) {
  Key root;
  root.name = "X";
  root.ensure_subkey("a").set_value(Value::string("v", std::string(100, 'q')));
  auto image = serialize_hive(root, "X");
  image.resize(kBaseBlockSize);  // chop off the hbin area
  EXPECT_THROW(parse_hive(image), ParseError);
}

class HivePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HivePropertyTest, RandomTreesRoundTrip) {
  Rng rng(GetParam() * 104729);
  Key root;
  root.name = "FUZZ";
  // Random tree: up to 3 levels, random values incl. odd names.
  std::function<void(Key&, int)> populate = [&](Key& key, int depth) {
    const std::size_t n_values = rng.below(5);
    for (std::size_t i = 0; i < n_values; ++i) {
      std::string name = rng.identifier(1 + rng.below(20));
      if (rng.chance(1, 5)) name.insert(name.size() / 2, 1, '\0');
      std::vector<std::byte> data(rng.below(300));
      for (auto& b : data) b = static_cast<std::byte>(rng.below(256));
      key.set_value(Value{std::move(name),
                          static_cast<ValueType>(rng.below(8)),
                          std::move(data)});
    }
    if (depth >= 3) return;
    const std::size_t n_children = rng.below(4);
    for (std::size_t i = 0; i < n_children; ++i) {
      Key child;
      child.name = rng.identifier(1 + rng.below(30));
      key.subkeys.push_back(std::move(child));
      populate(key.subkeys.back(), depth + 1);
    }
  };
  populate(root, 0);

  const Key parsed = round_trip(root);
  EXPECT_TRUE(keys_equal(parsed, root));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HivePropertyTest,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace gb::hive
