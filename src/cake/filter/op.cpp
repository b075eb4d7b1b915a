#include "cake/filter/op.hpp"

#include "cake/util/regex.hpp"

namespace cake::filter {

std::string_view to_string(Op op) noexcept {
  switch (op) {
    case Op::Eq: return "=";
    case Op::Ne: return "!=";
    case Op::Lt: return "<";
    case Op::Le: return "<=";
    case Op::Gt: return ">";
    case Op::Ge: return ">=";
    case Op::Prefix: return "prefix";
    case Op::Exists: return "exists";
    case Op::Any: return "ALL";
    case Op::Regex: return "~";
  }
  return "?";
}

bool applies(Op op, const value::Value& event_value,
             const value::Value& operand) noexcept {
  switch (op) {
    case Op::Any:
    case Op::Exists:
      return true;  // presence is checked by the caller
    case Op::Eq:
      return event_value == operand;
    case Op::Ne:
      return !(event_value == operand);
    case Op::Prefix: {
      if (event_value.kind() != value::Kind::String ||
          operand.kind() != value::Kind::String)
        return false;
      return event_value.as_string_view().starts_with(
          operand.as_string_view());
    }
    case Op::Regex: {
      if (event_value.kind() != value::Kind::String ||
          operand.kind() != value::Kind::String)
        return false;
      // An invalid pattern matches nothing.
      const util::Regex* regex = util::Regex::cached(operand.as_string());
      return regex != nullptr && regex->matches(event_value.as_string_view());
    }
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge: {
      const auto cmp = event_value.compare(operand);
      if (!cmp) return false;
      switch (op) {
        case Op::Lt: return *cmp < 0;
        case Op::Le: return *cmp <= 0;
        case Op::Gt: return *cmp > 0;
        default: return *cmp >= 0;
      }
    }
  }
  return false;
}

}  // namespace cake::filter
