// In-memory hive tree plus binary serialization/parsing.
//
// The ConfigurationManager (src/registry) keeps live Key trees and
// flushes them to hive files on the NTFS volume; GhostBuster's low-level
// registry scan re-parses those raw bytes with parse_hive(), bypassing
// every registry API layer — the paper's Section 3 "raw hive" scan.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hive/hive_format.h"
#include "support/bytes.h"
#include "support/status.h"

namespace gb::hive {

/// A registry value. The name is counted: embedded NULs are legal and
/// significant (the hiding trick detected in Figure 4's framework).
struct Value {
  std::string name;
  ValueType type = ValueType::kString;
  std::vector<std::byte> data;

  /// Convenience constructors for the common types.
  static Value string(std::string_view name, std::string_view text);
  static Value dword(std::string_view name, std::uint32_t v);
  static Value binary(std::string_view name, std::vector<std::byte> bytes);

  /// Interprets data as text (REG_SZ / REG_EXPAND_SZ).
  std::string as_string() const;
  std::uint32_t as_dword() const;

  bool operator==(const Value&) const = default;
};

/// A registry key node. Subkey and value order is preserved (serialization
/// is deterministic); lookups are case-insensitive.
struct Key {
  std::string name;
  std::vector<Key> subkeys;
  std::vector<Value> values;

  Key* find_subkey(std::string_view name);
  const Key* find_subkey(std::string_view name) const;
  Value* find_value(std::string_view name);
  const Value* find_value(std::string_view name) const;

  /// Finds or creates a direct subkey.
  Key& ensure_subkey(std::string_view name);
  /// Adds or replaces a value (matched by case-insensitive counted name).
  void set_value(Value v);
  /// Removes a value; returns whether it existed.
  bool remove_value(std::string_view name);
  /// Removes a direct subkey; returns whether it existed.
  bool remove_subkey(std::string_view name);

  /// Total number of keys in this subtree (including this one).
  std::size_t tree_size() const;
};

/// Serializes a hive to regf bytes. `hive_name` lands in the base block.
std::vector<std::byte> serialize_hive(const Key& root,
                                      std::string_view hive_name);

/// Parses regf bytes back into a tree. Throws gb::ParseError on corrupt
/// input. Unknown cell types are an error (the format is closed here).
Key parse_hive(std::span<const std::byte> image);

/// Non-throwing variant: corrupt input becomes a kCorrupt Status. The
/// scan stack uses this so one torn hive degrades the registry diff
/// instead of aborting the session.
[[nodiscard]] support::StatusOr<Key> parse_hive_or(std::span<const std::byte> image);

}  // namespace gb::hive
