// Dynamically-typed attribute values.
//
// The paper's low-level event representation is a set of name-value tuples
// ("(symbol, 'Foo') (price, 10.0)"). `Value` is the value half of that
// tuple: a closed variant over the primitive kinds the filtering engine can
// constrain (§3.1). Integers and doubles are mutually comparable (numeric
// promotion) so a filter "(price, 10, <)" matches events carrying either
// representation; other cross-kind comparisons are *incomparable* rather
// than an error, mirroring the paper's approximate-matching stance.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

namespace cake::value {

/// Discriminator for `Value`. Order matters only for debugging output.
enum class Kind : std::uint8_t { Null, Bool, Int, Double, String };

/// Human-readable kind name ("null", "bool", ...).
[[nodiscard]] std::string_view to_string(Kind kind) noexcept;

/// A single attribute value: null, bool, 64-bit int, double or string.
///
/// Value is a regular type (copyable, equality-comparable, hashable) so it
/// can live in filter constraints, event images and index keys alike.
class Value {
public:
  Value() noexcept = default;  // null
  Value(bool b) noexcept : repr_(b) {}
  Value(std::int64_t i) noexcept : repr_(i) {}
  Value(int i) noexcept : repr_(static_cast<std::int64_t>(i)) {}
  Value(double d) noexcept : repr_(d) {}
  Value(std::string s) noexcept : repr_(std::move(s)) {}
  Value(std::string_view s) : repr_(std::string{s}) {}
  Value(const char* s) : repr_(std::string{s}) {}

  [[nodiscard]] Kind kind() const noexcept {
    return static_cast<Kind>(repr_.index());
  }
  [[nodiscard]] bool is_null() const noexcept { return kind() == Kind::Null; }
  [[nodiscard]] bool is_numeric() const noexcept {
    return kind() == Kind::Int || kind() == Kind::Double;
  }

  /// Makes this the string `s`, reusing the storage of a string it already
  /// holds (a decode into a recycled value allocates nothing once warm).
  void assign_string(std::string_view s);

  /// Checked accessors; throw std::bad_variant_access on kind mismatch.
  [[nodiscard]] bool as_bool() const { return std::get<bool>(repr_); }
  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(repr_); }
  [[nodiscard]] double as_double() const { return std::get<double>(repr_); }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(repr_);
  }
  [[nodiscard]] std::string_view as_string_view() const { return as_string(); }

  /// Numeric view regardless of int/double representation; nullopt otherwise.
  [[nodiscard]] std::optional<double> as_number() const noexcept {
    if (const auto* i = std::get_if<std::int64_t>(&repr_))
      return static_cast<double>(*i);
    if (const auto* d = std::get_if<double>(&repr_)) return *d;
    return std::nullopt;
  }

  /// Exact structural equality (1 == 1.0 is *true*: numeric kinds compare
  /// by value, consistent with `compare`). Inline, with a same-kind fast
  /// path: the exact stage runs it once per `Eq` constraint per arrival.
  [[nodiscard]] bool operator==(const Value& other) const noexcept;

  /// Three-way comparison where defined: numeric<->numeric, string<->string,
  /// bool<->bool. Returns nullopt for incomparable kind pairs (incl. null).
  [[nodiscard]] std::optional<std::int8_t> compare(const Value& other) const noexcept;

  /// Stable hash consistent with operator== (numeric kinds hash by value).
  [[nodiscard]] std::size_t hash() const noexcept;

  /// Debug rendering, e.g. `"Foo"`, `10`, `10.5`, `true`, `null`.
  [[nodiscard]] std::string to_string() const;

private:
  // Alternative index == Kind.
  std::variant<std::monostate, bool, std::int64_t, double, std::string> repr_;
};

inline bool Value::operator==(const Value& other) const noexcept {
  if (repr_.index() == other.repr_.index()) {
    switch (kind()) {
      case Kind::String:
        return *std::get_if<std::string>(&repr_) ==
               *std::get_if<std::string>(&other.repr_);
      case Kind::Int:
        // Compared as doubles, like the mixed case, so == agrees with
        // compare() and hash() even past 2^53.
        return static_cast<double>(*std::get_if<std::int64_t>(&repr_)) ==
               static_cast<double>(*std::get_if<std::int64_t>(&other.repr_));
      case Kind::Double:
        return *std::get_if<double>(&repr_) == *std::get_if<double>(&other.repr_);
      case Kind::Bool:
        return *std::get_if<bool>(&repr_) == *std::get_if<bool>(&other.repr_);
      case Kind::Null:
        return true;
    }
  }
  return is_numeric() && other.is_numeric() && *as_number() == *other.as_number();
}

}  // namespace cake::value

template <>
struct std::hash<cake::value::Value> {
  std::size_t operator()(const cake::value::Value& v) const noexcept {
    return v.hash();
  }
};
