#include "hive/hive.h"

#include <algorithm>

#include "support/strings.h"

namespace gb::hive {

namespace {

constexpr std::uint32_t kNoCell = 0xffffffffu;
constexpr std::size_t kHbinHeaderSize = 32;

/// Case-fold hash used in 'lh' list entries (stand-in for the real
/// base-37 hash; only consumed for format fidelity, not lookup).
std::uint32_t name_hash(std::string_view name) {
  std::uint32_t h = 0;
  for (char c : name) {
    const char f = (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
    h = h * 37 + static_cast<unsigned char>(f);
  }
  return h;
}

/// Writes cells into an hbin-structured area buffer.
class HiveAreaWriter {
 public:
  /// Allocates a cell with the given payload; returns its area-relative
  /// offset (pointing at the cell size field, as real hive offsets do).
  std::uint32_t alloc(std::span<const std::byte> payload) {
    std::size_t cell_size = 4 + payload.size();
    cell_size = (cell_size + 7) & ~std::size_t{7};  // 8-byte alignment

    if (bin_remaining() < cell_size) start_bin(cell_size);

    const auto offset = static_cast<std::uint32_t>(area_.size());
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(-static_cast<std::int32_t>(cell_size)));
    w.bytes(payload);
    w.zeros(cell_size - 4 - payload.size());
    append(w.view());
    return offset;
  }

  /// Closes the final bin and returns the area bytes.
  std::vector<std::byte> finish() {
    close_bin();
    return std::move(area_);
  }

 private:
  std::size_t bin_remaining() const {
    return bin_end_ > area_.size() ? bin_end_ - area_.size() : 0;
  }

  void start_bin(std::size_t need) {
    close_bin();
    std::size_t bin_size = kHbinSize;
    while (bin_size - kHbinHeaderSize < need) bin_size += kHbinSize;
    bin_start_ = area_.size();
    bin_end_ = bin_start_ + bin_size;
    ByteWriter w;
    w.u32(kHbinMagic);
    w.u32(static_cast<std::uint32_t>(bin_start_));
    w.u32(static_cast<std::uint32_t>(bin_size));
    w.zeros(kHbinHeaderSize - 12);
    append(w.view());
  }

  /// Marks the remainder of the current bin as one free (positive size)
  /// cell and pads to the bin boundary.
  void close_bin() {
    if (bin_end_ == 0 || area_.size() >= bin_end_) return;
    const std::size_t free_size = bin_end_ - area_.size();
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(free_size));
    append(w.view());
    area_.resize(bin_end_, std::byte{0});
  }

  void append(std::span<const std::byte> bytes) {
    area_.insert(area_.end(), bytes.begin(), bytes.end());
  }

  std::vector<std::byte> area_;
  std::size_t bin_start_ = 0;
  std::size_t bin_end_ = 0;
};

std::uint32_t write_key(const Key& key, std::uint32_t parent_offset,
                        HiveAreaWriter& out);

std::uint32_t write_value(const Value& v, HiveAreaWriter& out) {
  ByteWriter w;
  w.u16(kVkMagic);
  w.u16(static_cast<std::uint16_t>(v.name.size()));
  if (v.data.size() <= 4) {
    w.u32(static_cast<std::uint32_t>(v.data.size()) | kDataInline);
    ByteWriter inline_data;
    inline_data.bytes(v.data);
    inline_data.zeros(4 - v.data.size());
    w.bytes(inline_data.view());
  } else {
    ByteWriter payload;
    payload.bytes(v.data);
    const std::uint32_t data_cell = out.alloc(payload.view());
    w.u32(static_cast<std::uint32_t>(v.data.size()));
    w.u32(data_cell);
  }
  w.u32(static_cast<std::uint32_t>(v.type));
  w.str(v.name);
  return out.alloc(w.view());
}

std::uint32_t write_key(const Key& key, std::uint32_t parent_offset,
                        HiveAreaWriter& out) {
  // Children first (their offsets go into this key's lists). The nk cell
  // itself is written last, so child nk parent links use a forward
  // placeholder: real hives have true back-pointers, but nothing in this
  // project consumes them, so we store the grandparent-relative order
  // without a second patching pass. Parsing reconstructs structure purely
  // from the subkey lists.
  std::vector<std::uint32_t> value_offsets;
  value_offsets.reserve(key.values.size());
  for (const Value& v : key.values) value_offsets.push_back(write_value(v, out));

  std::uint32_t value_list = kNoCell;
  if (!value_offsets.empty()) {
    ByteWriter w;
    for (auto off : value_offsets) w.u32(off);
    value_list = out.alloc(w.view());
  }

  std::vector<std::uint32_t> child_offsets;
  child_offsets.reserve(key.subkeys.size());
  for (const Key& child : key.subkeys) {
    child_offsets.push_back(write_key(child, parent_offset, out));
  }

  std::uint32_t subkey_list = kNoCell;
  if (!child_offsets.empty()) {
    // Write one 'lh' per chunk of kMaxLhEntries; a single chunk is
    // referenced directly, multiple chunks go through an 'ri' cell.
    std::vector<std::uint32_t> lh_cells;
    for (std::size_t start = 0; start < child_offsets.size();
         start += kMaxLhEntries) {
      const std::size_t count =
          std::min(kMaxLhEntries, child_offsets.size() - start);
      ByteWriter w;
      w.u16(kLhMagic);
      w.u16(static_cast<std::uint16_t>(count));
      for (std::size_t i = 0; i < count; ++i) {
        w.u32(child_offsets[start + i]);
        w.u32(name_hash(key.subkeys[start + i].name));
      }
      lh_cells.push_back(out.alloc(w.view()));
    }
    if (lh_cells.size() == 1) {
      subkey_list = lh_cells[0];
    } else {
      ByteWriter w;
      w.u16(kRiMagic);
      w.u16(static_cast<std::uint16_t>(lh_cells.size()));
      for (const auto cell : lh_cells) w.u32(cell);
      subkey_list = out.alloc(w.view());
    }
  }

  ByteWriter w;
  w.u16(kNkMagic);
  w.u16(parent_offset == kNoCell ? kNkRoot : 0);
  w.u32(parent_offset);
  w.u32(static_cast<std::uint32_t>(key.subkeys.size()));
  w.u32(subkey_list);
  w.u32(static_cast<std::uint32_t>(key.values.size()));
  w.u32(value_list);
  w.u16(static_cast<std::uint16_t>(key.name.size()));
  w.str(key.name);
  return out.alloc(w.view());
}

/// Random-access cell reader over the hbin area.
class HiveAreaReader {
 public:
  explicit HiveAreaReader(std::span<const std::byte> area) : area_(area) {}

  /// Returns the payload of the cell at `offset`; validates the size field.
  std::span<const std::byte> cell(std::uint32_t offset) const {
    if (offset + 4 > area_.size()) throw ParseError("cell offset out of range");
    ByteReader r(area_.subspan(offset, 4));
    const auto raw = static_cast<std::int32_t>(r.u32());
    if (raw >= 0) throw ParseError("reference to free cell");
    const auto size = static_cast<std::size_t>(-raw);
    if (size < 4 || offset + size > area_.size()) {
      throw ParseError("corrupt cell size");
    }
    return area_.subspan(offset + 4, size - 4);
  }

 private:
  std::span<const std::byte> area_;
};

Value parse_value(const HiveAreaReader& area, std::uint32_t offset) {
  ByteReader r(area.cell(offset));
  if (r.u16() != kVkMagic) throw ParseError("expected vk cell");
  const std::uint16_t name_len = r.u16();
  const std::uint32_t raw_len = r.u32();
  Value v;
  if (raw_len & kDataInline) {
    const std::uint32_t len = raw_len & ~kDataInline;
    if (len > 4) throw ParseError("inline data too long");
    auto all = r.bytes(4);
    v.data.assign(all.begin(), all.begin() + len);
  } else {
    const std::uint32_t data_cell = r.u32();
    const auto payload = area.cell(data_cell);
    if (raw_len > payload.size()) throw ParseError("data cell too small");
    v.data.assign(payload.begin(), payload.begin() + raw_len);
  }
  v.type = static_cast<ValueType>(r.u32());
  v.name = r.str(name_len);
  return v;
}

Key parse_key(const HiveAreaReader& area, std::uint32_t offset, int depth) {
  if (depth > 512) throw ParseError("hive key tree too deep (cycle?)");
  ByteReader r(area.cell(offset));
  if (r.u16() != kNkMagic) throw ParseError("expected nk cell");
  r.u16();  // flags
  r.u32();  // parent (not consumed; structure comes from subkey lists)
  const std::uint32_t subkey_count = r.u32();
  const std::uint32_t subkey_list = r.u32();
  const std::uint32_t value_count = r.u32();
  const std::uint32_t value_list = r.u32();
  const std::uint16_t name_len = r.u16();
  Key key;
  key.name = r.str(name_len);

  if (value_count > 0) {
    if (value_list == kNoCell) throw ParseError("missing value list");
    ByteReader vl(area.cell(value_list));
    for (std::uint32_t i = 0; i < value_count; ++i) {
      key.values.push_back(parse_value(area, vl.u32()));
    }
  }
  if (subkey_count > 0) {
    if (subkey_list == kNoCell) throw ParseError("missing subkey list");
    // The list is either one 'lh' or an 'ri' pointing at several 'lh's.
    std::vector<std::uint32_t> lh_cells;
    {
      ByteReader head(area.cell(subkey_list));
      const std::uint16_t magic = head.u16();
      if (magic == kLhMagic) {
        lh_cells.push_back(subkey_list);
      } else if (magic == kRiMagic) {
        const std::uint16_t n = head.u16();
        for (std::uint16_t i = 0; i < n; ++i) lh_cells.push_back(head.u32());
      } else {
        throw ParseError("expected lh or ri list");
      }
    }
    std::uint32_t seen = 0;
    for (const auto cell : lh_cells) {
      ByteReader sl(area.cell(cell));
      if (sl.u16() != kLhMagic) throw ParseError("ri entry is not an lh");
      const std::uint16_t count = sl.u16();
      for (std::uint16_t i = 0; i < count; ++i) {
        const std::uint32_t child = sl.u32();
        sl.u32();  // hash (not used for lookup here)
        key.subkeys.push_back(parse_key(area, child, depth + 1));
        ++seen;
      }
    }
    if (seen != subkey_count) throw ParseError("subkey count mismatch");
  }
  return key;
}

}  // namespace

Value Value::string(std::string_view name, std::string_view text) {
  Value v;
  v.name = std::string(name);
  v.type = ValueType::kString;
  v.data = to_bytes(text);
  return v;
}

Value Value::dword(std::string_view name, std::uint32_t val) {
  Value v;
  v.name = std::string(name);
  v.type = ValueType::kDword;
  ByteWriter w;
  w.u32(val);
  v.data = std::move(w).take();
  return v;
}

Value Value::binary(std::string_view name, std::vector<std::byte> bytes) {
  Value v;
  v.name = std::string(name);
  v.type = ValueType::kBinary;
  v.data = std::move(bytes);
  return v;
}

std::string Value::as_string() const { return to_string(data); }

std::uint32_t Value::as_dword() const {
  ByteReader r(data);
  return r.u32();
}

Key* Key::find_subkey(std::string_view n) {
  for (Key& k : subkeys) {
    if (iequals(k.name, n)) return &k;
  }
  return nullptr;
}

const Key* Key::find_subkey(std::string_view n) const {
  for (const Key& k : subkeys) {
    if (iequals(k.name, n)) return &k;
  }
  return nullptr;
}

Value* Key::find_value(std::string_view n) {
  for (Value& v : values) {
    if (iequals(v.name, n)) return &v;
  }
  return nullptr;
}

const Value* Key::find_value(std::string_view n) const {
  for (const Value& v : values) {
    if (iequals(v.name, n)) return &v;
  }
  return nullptr;
}

Key& Key::ensure_subkey(std::string_view n) {
  if (Key* existing = find_subkey(n)) return *existing;
  Key k;
  k.name = std::string(n);
  subkeys.push_back(std::move(k));
  return subkeys.back();
}

void Key::set_value(Value v) {
  if (Value* existing = find_value(v.name)) {
    *existing = std::move(v);
  } else {
    values.push_back(std::move(v));
  }
}

bool Key::remove_value(std::string_view n) {
  const auto it = std::find_if(values.begin(), values.end(),
                               [&](const Value& v) { return iequals(v.name, n); });
  if (it == values.end()) return false;
  values.erase(it);
  return true;
}

bool Key::remove_subkey(std::string_view n) {
  const auto it = std::find_if(subkeys.begin(), subkeys.end(),
                               [&](const Key& k) { return iequals(k.name, n); });
  if (it == subkeys.end()) return false;
  subkeys.erase(it);
  return true;
}

std::size_t Key::tree_size() const {
  std::size_t n = 1;
  for (const Key& k : subkeys) n += k.tree_size();
  return n;
}

std::vector<std::byte> serialize_hive(const Key& root,
                                      std::string_view hive_name_str) {
  HiveAreaWriter area;
  const std::uint32_t root_cell = write_key(root, kNoCell, area);
  const auto area_bytes = area.finish();

  ByteWriter w;
  w.u32(kRegfMagic);
  w.u32(1);  // seq1
  w.u32(1);  // seq2 (equal: hive is consistent)
  w.zeros(BaseBlockLayout::kRootCell - w.size());
  w.u32(root_cell);
  w.u32(static_cast<std::uint32_t>(area_bytes.size()));
  w.zeros(BaseBlockLayout::kName - w.size());
  std::string name(hive_name_str.substr(0, 64));
  w.str(name);
  w.zeros(64 - name.size());
  w.zeros(kBaseBlockSize - w.size());
  w.bytes(area_bytes);
  return std::move(w).take();
}

Key parse_hive(std::span<const std::byte> image) {
  if (image.size() < kBaseBlockSize) throw ParseError("hive too small");
  ByteReader r(image);
  if (r.u32() != kRegfMagic) throw ParseError("bad regf magic");
  const std::uint32_t seq1 = r.u32();
  const std::uint32_t seq2 = r.u32();
  if (seq1 != seq2) throw ParseError("hive sequence mismatch (dirty hive)");
  r.seek(BaseBlockLayout::kRootCell);
  const std::uint32_t root_cell = r.u32();
  const std::uint32_t data_length = r.u32();
  if (kBaseBlockSize + data_length > image.size()) {
    throw ParseError("hive data length exceeds image");
  }
  HiveAreaReader area(image.subspan(kBaseBlockSize, data_length));
  return parse_key(area, root_cell, 0);
}

support::StatusOr<Key> parse_hive_or(std::span<const std::byte> image) {
  try {
    return parse_hive(image);
  } catch (const ParseError& e) {
    return support::Status::corrupt(e.what());
  }
}

}  // namespace gb::hive
