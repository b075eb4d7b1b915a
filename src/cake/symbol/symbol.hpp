// Global append-only symbol interner.
//
// Type and attribute names recur on every event image, every filter
// constraint, and every index key. Interning maps each distinct name to a
// dense 32-bit id once, at registration / first sight, so the hot
// publish→forward→deliver path compares and hashes integers instead of
// strings and borrows `std::string_view`s into storage that lives for the
// whole process (no per-event name copies — PAPER.md's "cheap approximate
// matching at every hop" leg, DESIGN.md §9).
//
// The table is append-only and never shrinks: an interned view stays valid
// forever, which is what lets `EventImage` hold borrowed names safely.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cake::symbol {

/// Dense id of an interned name. Id 0 is always the empty string.
using Id = std::uint32_t;

struct Symbol;

/// Interns `text`, returning its symbol. Idempotent; allocation-free and
/// wait-free when the name is already in the table (atomic-snapshot probe,
/// no lock on the read path — lanes matching concurrently never serialize
/// here). Only first-sight inserts take the writer mutex. Thread-safe.
[[nodiscard]] Symbol intern(std::string_view text);

/// An interned name: the dense id plus a view into the interner's stable
/// storage (valid for the lifetime of the process). Equality is id
/// equality, which is text equality because the table is a bijection.
///
/// Built from text, a symbol interns it once, where the name enters (a
/// literal, a decoded frame, a builder argument); every copy after that
/// carries the id and never touches the table again.
struct Symbol {
  Id id = 0;
  std::string_view text;

  Symbol() = default;
  constexpr Symbol(Id id, std::string_view text) noexcept : id(id), text(text) {}
  Symbol(std::string_view text) : Symbol(intern(text)) {}
  Symbol(const char* text) : Symbol(intern(text)) {}
  Symbol(const std::string& text) : Symbol(intern(text)) {}

  friend bool operator==(const Symbol& a, const Symbol& b) noexcept {
    return a.id == b.id;
  }
};

/// The stable text of an interned id. Wait-free (atomic chunk-directory
/// load). Throws std::out_of_range for ids that were never handed out.
[[nodiscard]] std::string_view name(Id id);

/// Number of distinct names interned so far (>= 1: the empty string).
[[nodiscard]] std::size_t size() noexcept;

}  // namespace cake::symbol
