// Durable event journal: an append-only, checksummed, segmented
// write-ahead log of wire frames (DESIGN.md §12).
//
// Event frames are already immutable refcounted byte buffers
// (`wire::Frame`), so journaling an event is a write of bytes that already
// exist — no re-serialization. The journal stores *records*: a fixed
// 24-byte header (monotonic log offset, payload length, CRC32C of the
// payload, record kind, CRC32C of the header itself) followed by the
// payload bytes. Records pack into *segments*, rotated at a size threshold
// and named by the log offset of their first record, so recovery knows the
// exact chain order and retention can drop whole segments from the front.
//
// Recovery (runs at construction) scans the segment chain in order and
// stops at the first invalid byte: a torn record tail, a corrupt header or
// payload, a broken offset chain. Everything before the cut is recovered;
// the tail is truncated and later segments discarded — a corrupted record
// is never replayed and never crashes the process (the decode-fuzz suite
// pins this at every byte offset).
//
// Consumers (all three layered on this one primitive):
//   * durable brokers  — journal inbound event frames before matching,
//     replay on restart() so a crash loses nothing (broker.hpp);
//   * durable subscriptions — cursor records persist each detached
//     subscriber's replay position across broker restarts;
//   * the recorder/replayer — capture any workload at the publisher and
//     re-drive it deterministically as a regression oracle (core/replay).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cake/wire/buffer.hpp"

namespace cake::journal {

/// Raised on storage-level failures (unwritable directory, vanished file).
/// Corruption is *not* an error: recovery truncates and continues.
class JournalError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

enum class RecordKind : std::uint8_t {
  Event = 0,   ///< payload is a complete encoded event frame
  Cursor = 1,  ///< payload is a durable-subscription cursor update
};

/// One recovered or appended record. `offset` is the monotonic log offset
/// (a record index, not a byte position): the first record ever appended is
/// offset 0 and the chain never reuses or skips a value. An appended event
/// record holds the caller's refcounted frame, not a copy of its bytes.
struct Record {
  std::uint64_t offset = 0;
  RecordKind kind = RecordKind::Event;
  wire::Frame payload;
};

/// Byte-level backing store: named append-only blobs. The journal layers
/// its record/segment format on top; tests corrupt MemStorage directly and
/// FileStorage puts segments on a real directory for the replay tooling.
class Storage {
public:
  virtual ~Storage() = default;

  /// Existing blob names in lexicographic order.
  [[nodiscard]] virtual std::vector<std::string> list() const = 0;
  /// Appends bytes to `name`, creating it when absent.
  virtual void append(const std::string& name,
                      std::span<const std::byte> bytes) = 0;
  [[nodiscard]] virtual std::vector<std::byte> read(
      const std::string& name) const = 0;
  virtual void remove(const std::string& name) = 0;
  /// Shrinks `name` to `size` bytes (torn-tail truncation).
  virtual void truncate(const std::string& name, std::size_t size) = 0;
  /// Flushes buffered writes toward durability. Best effort; see DESIGN.md
  /// §12 for the fsync policy discussion.
  virtual void sync() {}
};

/// In-memory storage. Survives as long as its owner does — which is the
/// point: the overlay owns one per broker, so a broker crash() loses the
/// process state while "disk" persists, exactly like a real machine reboot.
class MemStorage final : public Storage {
public:
  MemStorage() = default;
  // A copy owns its blobs and starts with no open blob of its own.
  MemStorage(const MemStorage& other) : Storage(), blobs_(other.blobs_) {}
  MemStorage& operator=(const MemStorage& other) {
    blobs_ = other.blobs_;
    open_ = nullptr;
    return *this;
  }

  [[nodiscard]] std::vector<std::string> list() const override;
  void append(const std::string& name,
              std::span<const std::byte> bytes) override;
  [[nodiscard]] std::vector<std::byte> read(
      const std::string& name) const override;
  void remove(const std::string& name) override;
  void truncate(const std::string& name, std::size_t size) override;

  /// Direct mutable access for corruption tests (bit flips, truncation at
  /// arbitrary offsets). Throws JournalError for unknown names.
  [[nodiscard]] std::vector<std::byte>& mutate(const std::string& name);

  /// Total bytes across all blobs (determinism tests compare snapshots).
  [[nodiscard]] std::size_t total_bytes() const noexcept;
  /// Byte-identical comparison of two stores (names and contents).
  [[nodiscard]] bool identical(const MemStorage& other) const noexcept;

private:
  std::map<std::string, std::vector<std::byte>> blobs_;  // ordered = sorted
  // The blob the last append wrote to: a journal appends to one segment
  // until it rotates, so the next append usually skips the map lookup.
  std::pair<const std::string, std::vector<std::byte>>* open_ = nullptr;
};

/// Directory-backed storage for the `cake_replay` tooling and CI artifacts.
/// Keeps the current append target open; `sync()` flushes it to the OS.
class FileStorage final : public Storage {
public:
  /// Creates `dir` if needed; throws JournalError when that fails.
  explicit FileStorage(std::filesystem::path dir);

  [[nodiscard]] std::vector<std::string> list() const override;
  void append(const std::string& name,
              std::span<const std::byte> bytes) override;
  [[nodiscard]] std::vector<std::byte> read(
      const std::string& name) const override;
  void remove(const std::string& name) override;
  void truncate(const std::string& name, std::size_t size) override;
  void sync() override;

  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }

private:
  std::filesystem::path dir_;
  std::string open_name_;  // blob the ofstream currently appends to
  std::ofstream out_;
};

struct JournalConfig {
  /// Rotate to a fresh segment once the current one reaches this size.
  std::size_t segment_bytes = 64 * 1024;
  /// Retention: with N > 0, appending that rotates past N segments drops
  /// whole segments from the front (their records leave the log; replay
  /// from an offset older than `first_offset()` starts at the cut).
  /// 0 = keep everything.
  std::size_t max_segments = 0;
};

struct JournalStats {
  std::uint64_t appends = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t segments_rotated = 0;
  std::uint64_t segments_retired = 0;  ///< dropped by retention
  std::uint64_t recovered_records = 0; ///< valid records found at open
  std::uint64_t torn_bytes = 0;        ///< invalid tail bytes truncated
  std::uint64_t dropped_segments = 0;  ///< segments discarded past a tear
  std::uint64_t syncs = 0;
};

/// Cursor-record payload: a durable subscriber's replay position. `active`
/// false means the cursor was consumed (the subscriber resumed and caught
/// up); recovery keeps only the latest update per subscriber.
struct CursorUpdate {
  std::uint64_t subscriber = 0;
  bool active = false;
  std::uint64_t offset = 0;
};

/// Fixed record header size on storage (see PROTOCOL.md for the layout).
inline constexpr std::size_t kRecordHeaderBytes = 24;
/// Segment preamble: 8-byte magic + little-endian base offset.
inline constexpr std::size_t kSegmentHeaderBytes = 16;

class Journal {
public:
  /// Opens the log over `storage`, running the recovery scan: every valid
  /// record is cached in order, the first invalid byte truncates its
  /// segment and discards everything after it. `storage` must outlive the
  /// journal.
  explicit Journal(Storage& storage, JournalConfig config = {});

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one record; returns its log offset. The record keeps a
  /// reference to `payload`'s bytes.
  std::uint64_t append(RecordKind kind, wire::Frame payload);
  std::uint64_t append_event(wire::Frame frame) {
    return append(RecordKind::Event, std::move(frame));
  }
  /// Cursor bookkeeping for durable subscriptions.
  std::uint64_t append_cursor(std::uint64_t subscriber, std::uint64_t offset);
  std::uint64_t append_cursor_clear(std::uint64_t subscriber);

  /// Decodes a Cursor record payload; nullopt on malformed bytes (cannot
  /// happen for records that passed the CRC, but replay code stays safe).
  [[nodiscard]] static std::optional<CursorUpdate> parse_cursor(
      std::span<const std::byte> payload);

  /// Offset the next append will get == one past the newest record.
  [[nodiscard]] std::uint64_t next_offset() const noexcept {
    return next_offset_;
  }
  /// Oldest retained offset (> 0 once retention has dropped segments).
  [[nodiscard]] std::uint64_t first_offset() const noexcept {
    return first_offset_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }
  [[nodiscard]] std::size_t segments() const noexcept {
    return segments_.size();
  }

  /// Visits retained records with offset >= `from`, oldest first.
  void scan(std::uint64_t from,
            const std::function<void(const Record&)>& fn) const;

  /// Flushes the backing storage.
  void sync();

  [[nodiscard]] const JournalStats& stats() const noexcept { return stats_; }

private:
  struct Segment {
    std::string name;
    std::uint64_t base = 0;   // offset of its first record
    std::size_t bytes = 0;    // valid bytes (header + records)
    std::size_t records = 0;  // record count
  };

  void recover();
  void open_segment(std::uint64_t base);
  void retire_front();

  Storage& storage_;
  JournalConfig config_;
  std::vector<Segment> segments_;
  std::deque<Record> records_;  // retained records, oldest first
  std::uint64_t next_offset_ = 0;
  std::uint64_t first_offset_ = 0;
  JournalStats stats_;
};

}  // namespace cake::journal
