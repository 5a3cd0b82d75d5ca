// Small string utilities shared across the library.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hcg {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Splits on `separator`, trimming each piece; empty pieces are kept.
std::vector<std::string> split(std::string_view text, char separator);

/// Splits on any amount of ASCII whitespace; empty pieces are dropped.
std::vector<std::string> split_whitespace(std::string_view text);

/// True if `text` begins with / ends with the given prefix or suffix.
bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Joins `pieces` with `separator` between elements.
std::string join(const std::vector<std::string>& pieces,
                 std::string_view separator);

/// Replaces every occurrence of `from` with `to`.
std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to);

/// Replaces occurrences of the identifier `from` with `to`, but only where
/// `from` is not part of a longer identifier (C token boundaries on both
/// sides), so renaming `buf1` leaves `buf10` and `sig_buf1` untouched.
std::string replace_identifier(std::string_view text, std::string_view from,
                               std::string_view to);

/// Identifier renames, old name -> new name, looked up by string_view.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const {
    return std::hash<std::string_view>{}(text);
  }
};
using RenameMap =
    std::unordered_map<std::string, std::string, StringHash, std::equal_to<>>;

/// Applies every rename in `renames` at once, with replace_identifier's
/// token boundaries: a replacement is never renamed again.
std::string replace_identifiers(std::string_view text, const RenameMap& renames);

/// Lower-cases ASCII letters.
std::string to_lower(std::string_view text);

/// Parses a decimal integer; throws hcg::ParseError on garbage.
long long parse_int(std::string_view text);

/// Parses a floating point number; throws hcg::ParseError on garbage.
double parse_double(std::string_view text);

/// True if `name` is a valid C identifier.
bool is_identifier(std::string_view name);

/// Mangles an arbitrary string into a valid C identifier (non-alphanumeric
/// characters become '_', a leading digit gets an extra '_' prefix).
std::string sanitize_identifier(std::string_view name);

}  // namespace hcg
