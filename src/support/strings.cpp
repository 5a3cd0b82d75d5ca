#include "support/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <optional>

#include "support/error.hpp"

namespace hcg {

namespace {
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}
}  // namespace

std::string_view trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(separator, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(trim(text.substr(start)));
      break;
    }
    out.emplace_back(trim(text.substr(start, pos - start)));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += separator;
    out += pieces[i];
  }
  return out;
}

std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  out.reserve(text.size());
  size_t start = 0;
  while (true) {
    size_t pos = text.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(text.substr(start));
      break;
    }
    out.append(text.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

namespace {

bool identifier_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Copies `text`, replacing each maximal identifier-character run for which
/// `lookup` returns a replacement.
template <typename Lookup>
std::string rename_tokens(std::string_view text, const Lookup& lookup) {
  std::string out;
  out.reserve(text.size());
  std::size_t pos = 0;
  while (pos < text.size()) {
    if (!identifier_char(text[pos])) {
      out.push_back(text[pos++]);
      continue;
    }
    std::size_t end = pos;
    while (end < text.size() && identifier_char(text[end])) ++end;
    const std::string_view token = text.substr(pos, end - pos);
    out.append(lookup(token).value_or(token));
    pos = end;
  }
  return out;
}

}  // namespace

std::string replace_identifier(std::string_view text, std::string_view from,
                               std::string_view to) {
  return rename_tokens(text, [&](std::string_view token) {
    return token == from ? std::optional(to) : std::nullopt;
  });
}

std::string replace_identifiers(std::string_view text, const RenameMap& renames) {
  return rename_tokens(text, [&](std::string_view token) {
    const auto it = renames.find(token);
    return it == renames.end() ? std::nullopt
                               : std::optional<std::string_view>(it->second);
  });
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

long long parse_int(std::string_view text) {
  text = trim(text);
  long long value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw ParseError("not an integer: '" + std::string(text) + "'");
  }
  return value;
}

double parse_double(std::string_view text) {
  text = trim(text);
  if (text.empty()) throw ParseError("not a number: ''");
  std::string copy(text);
  char* end = nullptr;
  double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) {
    throw ParseError("not a number: '" + copy + "'");
  }
  return value;
}

bool is_identifier(std::string_view name) {
  if (name.empty()) return false;
  auto alpha = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  auto alnum = [&](char c) { return alpha(c) || (c >= '0' && c <= '9'); };
  if (!alpha(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!alnum(c)) return false;
  }
  return true;
}

std::string sanitize_identifier(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(out.begin(), '_');
  return out;
}

}  // namespace hcg
