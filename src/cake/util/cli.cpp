#include "cake/util/cli.hpp"

#include <algorithm>
#include <sstream>

namespace cake::util {
namespace {

bool parse_bool(const std::string& text) {
  if (text == "true" || text == "1" || text == "yes" || text == "on" ||
      text.empty())
    return true;
  if (text == "false" || text == "0" || text == "no" || text == "off")
    return false;
  throw CliError{"not a boolean: '" + text + "'"};
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.starts_with("--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc && !std::string(argv[i + 1]).starts_with("--")) {
      value = argv[++i];
    }
    if (name.empty()) throw CliError{"empty flag name in '" + arg + "'"};
    if (!values_.emplace(name, value).second)
      throw CliError{"duplicate flag --" + name};
  }
}

void CliArgs::allow(std::initializer_list<std::string> flags) {
  declared_.assign(flags);
  for (const auto& [name, value] : values_) {
    if (std::find(declared_.begin(), declared_.end(), name) == declared_.end())
      throw CliError{"unknown flag --" + name};
  }
}

void CliArgs::check_declared(const std::string& flag) const {
  if (!declared_.empty() &&
      std::find(declared_.begin(), declared_.end(), flag) == declared_.end())
    throw CliError{"flag --" + flag + " was not declared via allow()"};
}

bool CliArgs::has(const std::string& flag) const {
  check_declared(flag);
  return values_.contains(flag);
}

std::string CliArgs::get(const std::string& flag,
                         const std::string& fallback) const {
  check_declared(flag);
  const auto it = values_.find(flag);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get(const std::string& flag, std::int64_t fallback) const {
  check_declared(flag);
  const auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const std::int64_t parsed = std::stoll(it->second, &consumed);
    if (consumed != it->second.size()) throw CliError{"trailing characters"};
    return parsed;
  } catch (const std::exception&) {
    throw CliError{"--" + flag + " expects an integer, got '" + it->second + "'"};
  }
}

double CliArgs::get(const std::string& flag, double fallback) const {
  check_declared(flag);
  const auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(it->second, &consumed);
    if (consumed != it->second.size()) throw CliError{"trailing characters"};
    return parsed;
  } catch (const std::exception&) {
    throw CliError{"--" + flag + " expects a number, got '" + it->second + "'"};
  }
}

bool CliArgs::get(const std::string& flag, bool fallback) const {
  check_declared(flag);
  const auto it = values_.find(flag);
  return it == values_.end() ? fallback : parse_bool(it->second);
}

std::string CliArgs::get_choice(const std::string& flag,
                                const std::string& fallback,
                                std::initializer_list<std::string> choices) const {
  std::string value = get(flag, fallback);
  std::string allowed;
  for (const std::string& choice : choices) {
    if (choice == value) return value;
    allowed += allowed.empty() ? choice : "|" + choice;
  }
  throw CliError{"--" + flag + " expects one of " + allowed + ", got '" +
                 value + "'"};
}

std::vector<std::size_t> CliArgs::get_list(
    const std::string& flag, std::vector<std::size_t> fallback) const {
  check_declared(flag);
  const auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  std::vector<std::size_t> out;
  std::stringstream stream{it->second};
  std::string part;
  while (std::getline(stream, part, ',')) {
    try {
      out.push_back(static_cast<std::size_t>(std::stoull(part)));
    } catch (const std::exception&) {
      throw CliError{"--" + flag + " expects comma-separated integers, got '" +
                     it->second + "'"};
    }
  }
  if (out.empty())
    throw CliError{"--" + flag + " expects a non-empty list"};
  return out;
}

std::string CliArgs::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program;
  for (const auto& flag : declared_) os << " [--" << flag << " <value>]";
  return os.str();
}

}  // namespace cake::util
