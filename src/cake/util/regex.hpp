// A small regular-expression engine for the subscription language.
//
// The paper's §2.1 expressiveness ladder includes "regular expressions"
// among the constraint forms of advanced subscription languages; this is
// the substrate behind `Op::Regex`. It is a classic Thompson construction
// with breadth-first NFA simulation: linear time in the subject length,
// no backtracking, no pathological inputs — the property a broker needs
// before it evaluates attacker-supplied patterns on every event.
//
// Supported syntax: literals, '.', '*', '+', '?', '|', grouping '(...)',
// character classes '[abc]', ranges '[a-z]', negation '[^...]', and '\\'
// escapes. Matching is *anchored*: the pattern must cover the whole
// subject (use ".*foo.*" for a substring search), which mirrors how the
// other operators treat values as complete data.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cake::util {

/// Raised on malformed patterns.
class RegexError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

class Regex {
public:
  /// Compiles `pattern`; throws RegexError on syntax errors.
  explicit Regex(std::string_view pattern);

  /// Anchored match: does the whole subject match the pattern? Runs on
  /// per-thread scratch, so a warm call allocates nothing.
  [[nodiscard]] bool matches(std::string_view subject) const;

  [[nodiscard]] const std::string& pattern() const noexcept { return pattern_; }

  /// Per-thread compile cache (patterns come from long-lived filters, so
  /// each distinct pattern compiles once per thread, and lanes never share
  /// the map). Null for a malformed pattern: the failure is cached too, so
  /// it costs one lookup per evaluation, not a parse and a throw.
  [[nodiscard]] static const Regex* cached(const std::string& pattern);

private:
  // One NFA state: a transition condition plus up to two successors
  // (epsilon split states use both).
  struct State {
    enum class Kind : std::uint8_t { Char, Any, Class, Split, Accept };
    Kind kind = Kind::Accept;
    char ch = 0;                  // Kind::Char
    std::uint16_t class_index = 0;  // Kind::Class
    std::int32_t next = -1;
    std::int32_t alt = -1;  // Kind::Split only
  };
  struct CharClass {
    bool negated = false;
    std::vector<std::pair<char, char>> ranges;  // inclusive

    [[nodiscard]] bool contains(char c) const noexcept;
  };

  // Recursive-descent parser producing NFA fragments.
  struct Parser;

  void add_to_list(std::int32_t state, std::vector<std::int32_t>& list,
                   std::vector<std::uint32_t>& marks, std::uint32_t mark) const;

  std::string pattern_;
  std::vector<State> states_;
  std::vector<CharClass> classes_;
  std::int32_t start_ = -1;
};

}  // namespace cake::util
