#include "cake/util/regex.hpp"

#include <optional>
#include <unordered_map>

namespace cake::util {

bool Regex::CharClass::contains(char c) const noexcept {
  bool in_ranges = false;
  for (const auto& [lo, hi] : ranges) {
    if (c >= lo && c <= hi) {
      in_ranges = true;
      break;
    }
  }
  return negated ? !in_ranges : in_ranges;
}

// NFA fragment: a start state plus the dangling out-fields to patch.
// Each out entry is (state index, field) with field 0 = next, 1 = alt.
namespace {
struct Frag {
  std::int32_t start = -1;  // -1 = the empty (epsilon) fragment
  std::vector<std::pair<std::int32_t, int>> out;
};
}  // namespace

struct Regex::Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::vector<State>& states;
  std::vector<CharClass>& classes;

  [[nodiscard]] bool done() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }
  char take() { return text[pos++]; }

  std::int32_t add_state(State state) {
    states.push_back(state);
    return static_cast<std::int32_t>(states.size() - 1);
  }

  void patch(const Frag& frag, std::int32_t target) {
    for (const auto& [index, field] : frag.out) {
      if (field == 0)
        states[static_cast<std::size_t>(index)].next = target;
      else
        states[static_cast<std::size_t>(index)].alt = target;
    }
  }

  Frag concat(Frag a, Frag b) {
    if (a.start == -1) return b;
    if (b.start == -1) return a;
    patch(a, b.start);
    return Frag{a.start, std::move(b.out)};
  }

  Frag alternation() {
    Frag left = concatenation();
    while (!done() && peek() == '|') {
      take();
      Frag right = concatenation();
      const std::int32_t split =
          add_state(State{State::Kind::Split, 0, 0, -1, -1});
      Frag merged;
      merged.start = split;
      if (left.start == -1)
        merged.out.emplace_back(split, 0);
      else
        states[static_cast<std::size_t>(split)].next = left.start;
      if (right.start == -1)
        merged.out.emplace_back(split, 1);
      else
        states[static_cast<std::size_t>(split)].alt = right.start;
      merged.out.insert(merged.out.end(), left.out.begin(), left.out.end());
      merged.out.insert(merged.out.end(), right.out.begin(), right.out.end());
      left = std::move(merged);
    }
    return left;
  }

  Frag concatenation() {
    Frag result;  // empty
    while (!done() && peek() != '|' && peek() != ')') {
      result = concat(std::move(result), repetition());
    }
    return result;
  }

  Frag repetition() {
    Frag frag = atom();
    while (!done() &&
           (peek() == '*' || peek() == '+' || peek() == '?')) {
      const char op = take();
      if (frag.start == -1)
        throw RegexError{"repetition of an empty expression"};
      const std::int32_t split =
          add_state(State{State::Kind::Split, 0, 0, frag.start, -1});
      Frag repeated;
      switch (op) {
        case '*':
          patch(frag, split);
          repeated.start = split;
          repeated.out.emplace_back(split, 1);
          break;
        case '+':
          patch(frag, split);
          repeated.start = frag.start;
          repeated.out.emplace_back(split, 1);
          break;
        default:  // '?'
          repeated.start = split;
          repeated.out = std::move(frag.out);
          repeated.out.emplace_back(split, 1);
          break;
      }
      frag = std::move(repeated);
    }
    return frag;
  }

  Frag atom() {
    const char c = take();
    switch (c) {
      case '(': {
        Frag inner = alternation();
        if (done() || take() != ')') throw RegexError{"unbalanced '('"};
        return inner;
      }
      case ')':
        throw RegexError{"unbalanced ')'"};
      case '[':
        return char_class();
      case ']':
        throw RegexError{"unbalanced ']'"};
      case '.': {
        const std::int32_t s = add_state(State{State::Kind::Any, 0, 0, -1, -1});
        return Frag{s, {{s, 0}}};
      }
      case '*':
      case '+':
      case '?':
        throw RegexError{std::string{"dangling '"} + c + "'"};
      case '\\': {
        if (done()) throw RegexError{"trailing escape"};
        const char escaped = take();
        const std::int32_t s =
            add_state(State{State::Kind::Char, escaped, 0, -1, -1});
        return Frag{s, {{s, 0}}};
      }
      default: {
        const std::int32_t s = add_state(State{State::Kind::Char, c, 0, -1, -1});
        return Frag{s, {{s, 0}}};
      }
    }
  }

  Frag char_class() {
    CharClass cls;
    if (!done() && peek() == '^') {
      take();
      cls.negated = true;
    }
    bool any_item = false;
    while (!done() && peek() != ']') {
      char lo = take();
      if (lo == '\\') {
        if (done()) throw RegexError{"trailing escape in class"};
        lo = take();
      }
      char hi = lo;
      if (!done() && peek() == '-' && pos + 1 < text.size() &&
          text[pos + 1] != ']') {
        take();  // '-'
        hi = take();
        if (hi == '\\') {
          if (done()) throw RegexError{"trailing escape in class"};
          hi = take();
        }
        if (hi < lo) throw RegexError{"inverted range in class"};
      }
      cls.ranges.emplace_back(lo, hi);
      any_item = true;
    }
    if (done() || take() != ']') throw RegexError{"unterminated class"};
    if (!any_item) throw RegexError{"empty character class"};
    classes.push_back(std::move(cls));
    const std::int32_t s = add_state(
        State{State::Kind::Class, 0,
              static_cast<std::uint16_t>(classes.size() - 1), -1, -1});
    return Frag{s, {{s, 0}}};
  }
};

Regex::Regex(std::string_view pattern) : pattern_(pattern) {
  Parser parser{pattern, 0, states_, classes_};
  Frag frag = parser.alternation();
  if (!parser.done()) throw RegexError{"unbalanced ')'"};
  const auto accept = static_cast<std::int32_t>(states_.size());
  states_.push_back(State{State::Kind::Accept, 0, 0, -1, -1});
  if (frag.start == -1) {
    start_ = accept;  // empty pattern matches only the empty subject
  } else {
    parser.patch(frag, accept);
    start_ = frag.start;
  }
}

void Regex::add_to_list(std::int32_t state, std::vector<std::int32_t>& list,
                        std::vector<std::uint32_t>& marks,
                        std::uint32_t mark) const {
  if (state < 0) return;
  const auto index = static_cast<std::size_t>(state);
  if (marks[index] == mark) return;
  marks[index] = mark;
  const State& s = states_[index];
  if (s.kind == State::Kind::Split) {
    add_to_list(s.next, list, marks, mark);
    add_to_list(s.alt, list, marks, mark);
    return;
  }
  list.push_back(state);
}

bool Regex::matches(std::string_view subject) const {
  // Per-thread scratch, cleared and reused: a warm call allocates nothing,
  // and lanes matching at once share no state.
  thread_local std::vector<std::int32_t> current, next;
  thread_local std::vector<std::uint32_t> marks;
  current.clear();
  marks.assign(states_.size(), 0);
  std::uint32_t mark = 1;
  add_to_list(start_, current, marks, mark);

  for (const char c : subject) {
    next.clear();
    ++mark;
    for (const std::int32_t index : current) {
      const State& s = states_[static_cast<std::size_t>(index)];
      const bool step = (s.kind == State::Kind::Char && s.ch == c) ||
                        s.kind == State::Kind::Any ||
                        (s.kind == State::Kind::Class &&
                         classes_[s.class_index].contains(c));
      if (step) add_to_list(s.next, next, marks, mark);
    }
    current.swap(next);
    if (current.empty()) return false;  // no viable state: early out
  }

  for (const std::int32_t index : current) {
    if (states_[static_cast<std::size_t>(index)].kind == State::Kind::Accept)
      return true;
  }
  return false;
}

const Regex* Regex::cached(const std::string& pattern) {
  thread_local std::unordered_map<std::string, std::optional<Regex>> cache;
  auto it = cache.find(pattern);
  if (it == cache.end()) {
    std::optional<Regex> compiled;
    try {
      compiled.emplace(pattern);
    } catch (const RegexError&) {
      // Leave it empty: the pattern is malformed for good.
    }
    it = cache.emplace(pattern, std::move(compiled)).first;
  }
  return it->second ? &*it->second : nullptr;
}

}  // namespace cake::util
