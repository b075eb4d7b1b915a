// Minimal command-line flag parsing for the simulator and benchmark
// front-ends: `--name value` and `--name=value` pairs with typed lookup
// and defaults. No external dependencies, strict by default (unknown
// flags are errors so typos don't silently run the wrong experiment).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace cake::util {

/// Raised on malformed input or unknown/duplicate flags.
class CliError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

class CliArgs {
public:
  /// Parses argv. Accepts `--flag value`, `--flag=value` and the bare
  /// boolean form `--flag`. Positional arguments are collected in order.
  CliArgs(int argc, const char* const* argv);

  /// Declares the set of valid flags; parse errors mention them. Call once
  /// before the typed getters; getters for undeclared flags throw.
  void allow(std::initializer_list<std::string> flags);

  [[nodiscard]] bool has(const std::string& flag) const;

  [[nodiscard]] std::string get(const std::string& flag,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get(const std::string& flag,
                                 std::int64_t fallback) const;
  [[nodiscard]] double get(const std::string& flag, double fallback) const;
  [[nodiscard]] bool get(const std::string& flag, bool fallback) const;

  /// String flag restricted to `choices`: any other value throws a
  /// CliError that lists them, so a typo never falls back to a default.
  [[nodiscard]] std::string get_choice(
      const std::string& flag, const std::string& fallback,
      std::initializer_list<std::string> choices) const;

  /// Comma-separated integer list, e.g. "--stages 1,10,100".
  [[nodiscard]] std::vector<std::size_t> get_list(
      const std::string& flag, std::vector<std::size_t> fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Renders a usage line from the declared flags.
  [[nodiscard]] std::string usage(const std::string& program) const;

private:
  void check_declared(const std::string& flag) const;

  std::unordered_map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::vector<std::string> declared_;
};

}  // namespace cake::util
