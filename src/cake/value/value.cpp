#include "cake/value/value.hpp"

#include <cmath>
#include <functional>

namespace cake::value {
namespace {

template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <class... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

std::int8_t sign_of(double d) noexcept {
  if (d < 0) return -1;
  if (d > 0) return 1;
  return 0;
}

}  // namespace

std::string_view to_string(Kind kind) noexcept {
  switch (kind) {
    case Kind::Null: return "null";
    case Kind::Bool: return "bool";
    case Kind::Int: return "int";
    case Kind::Double: return "double";
    case Kind::String: return "string";
  }
  return "?";
}

void Value::assign_string(std::string_view s) {
  if (auto* str = std::get_if<std::string>(&repr_)) {
    str->assign(s);
    return;
  }
  repr_.emplace<std::string>(s);
}

std::optional<std::int8_t> Value::compare(const Value& other) const noexcept {
  if (is_numeric() && other.is_numeric()) {
    const double a = *as_number();
    const double b = *other.as_number();
    if (std::isnan(a) || std::isnan(b)) return std::nullopt;  // unordered
    return sign_of(a - b);
  }
  if (kind() != other.kind()) return std::nullopt;
  switch (kind()) {
    case Kind::String: {
      const int c = as_string_view().compare(other.as_string_view());
      return static_cast<std::int8_t>(c < 0 ? -1 : c > 0 ? 1 : 0);
    }
    case Kind::Bool:
      return static_cast<std::int8_t>(static_cast<int>(as_bool()) -
                                      static_cast<int>(other.as_bool()));
    default:
      return std::nullopt;  // null vs null: present but incomparable
  }
}

std::size_t Value::hash() const noexcept {
  // Numeric kinds must collapse to one hash so that 1 and 1.0 collide,
  // matching operator==.
  if (const auto n = as_number()) {
    return std::hash<double>{}(*n) ^ 0x9e3779b97f4a7c15ULL;
  }
  return std::visit(
      Overloaded{
          [](std::monostate) -> std::size_t { return 0x517cc1b727220a95ULL; },
          [](bool b) -> std::size_t { return std::hash<bool>{}(b) ^ 0x2545f4914f6cdd1dULL; },
          [](const std::string& s) -> std::size_t {
            return std::hash<std::string_view>{}(s);
          },
          [](auto) -> std::size_t { return 0; },  // numerics handled above
      },
      repr_);
}

std::string Value::to_string() const {
  return std::visit(
      Overloaded{
          [](std::monostate) -> std::string { return "null"; },
          [](bool b) -> std::string { return b ? "true" : "false"; },
          [](std::int64_t i) -> std::string { return std::to_string(i); },
          [](double d) -> std::string {
            if (d == std::floor(d) && std::fabs(d) < 1e15) {
              return std::to_string(static_cast<std::int64_t>(d)) + ".0";
            }
            char buf[32];
            std::snprintf(buf, sizeof buf, "%g", d);
            return buf;
          },
          [](const std::string& s) -> std::string { return '"' + s + '"'; },
      },
      repr_);
}

}  // namespace cake::value
