#include "cake/journal/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "cake/wire/crc32c.hpp"
#include "cake/wire/wire.hpp"

namespace cake::journal {
namespace {

// Record header layout (all little-endian, 24 bytes):
//   u64 offset | u32 len | u32 payload_crc | u8 kind | u8[3] zero | u32
//   header_crc (CRC32C of the preceding 20 bytes)
// Segment preamble (16 bytes): "CAKEJRNL" | u64 base offset.
constexpr char kMagic[8] = {'C', 'A', 'K', 'E', 'J', 'R', 'N', 'L'};

// Anything larger than this is a corrupt length field, not a real record;
// without the cap a flipped high bit in `len` could make the within-segment
// bound computation overflow-prone and recovery slow.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 28;

void put_u32(std::byte* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out[i] = static_cast<std::byte>((v >> (8 * i)) & 0xffu);
}

void put_u64(std::byte* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out[i] = static_cast<std::byte>((v >> (8 * i)) & 0xffu);
}

std::uint32_t get_u32(const std::byte* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::byte* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

std::string segment_name(std::uint64_t base) {
  // Zero-padded hex keeps lexicographic order == numeric order.
  char buf[32];
  std::snprintf(buf, sizeof buf, "seg-%016llx",
                static_cast<unsigned long long>(base));
  return buf;
}

}  // namespace

// ---------------------------------------------------------------- MemStorage

std::vector<std::string> MemStorage::list() const {
  std::vector<std::string> names;
  names.reserve(blobs_.size());
  for (const auto& [name, bytes] : blobs_) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

void MemStorage::append(const std::string& name,
                        std::span<const std::byte> bytes) {
  if (open_ == nullptr || open_->first != name)
    open_ = &*blobs_.try_emplace(name).first;
  open_->second.insert(open_->second.end(), bytes.begin(), bytes.end());
}

std::vector<std::byte> MemStorage::read(const std::string& name) const {
  const auto it = blobs_.find(name);
  if (it == blobs_.end())
    throw JournalError("MemStorage: no such blob: " + name);
  return it->second;
}

void MemStorage::remove(const std::string& name) {
  if (open_ != nullptr && open_->first == name) open_ = nullptr;
  blobs_.erase(name);
}

void MemStorage::truncate(const std::string& name, std::size_t size) {
  const auto it = blobs_.find(name);
  if (it == blobs_.end())
    throw JournalError("MemStorage: no such blob: " + name);
  if (size < it->second.size()) it->second.resize(size);
}

std::vector<std::byte>& MemStorage::mutate(const std::string& name) {
  const auto it = blobs_.find(name);
  if (it == blobs_.end())
    throw JournalError("MemStorage: no such blob: " + name);
  return it->second;
}

std::size_t MemStorage::total_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& [name, bytes] : blobs_) total += bytes.size();
  return total;
}

bool MemStorage::identical(const MemStorage& other) const noexcept {
  return blobs_ == other.blobs_;
}

// --------------------------------------------------------------- FileStorage

FileStorage::FileStorage(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_))
    throw JournalError("FileStorage: cannot create directory " +
                       dir_.string());
}

std::vector<std::string> FileStorage::list() const {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir_))
    if (entry.is_regular_file())
      names.push_back(entry.path().filename().string());
  std::sort(names.begin(), names.end());
  return names;
}

void FileStorage::append(const std::string& name,
                         std::span<const std::byte> bytes) {
  if (name != open_name_) {
    if (out_.is_open()) out_.close();
    out_.open(dir_ / name, std::ios::binary | std::ios::app);
    if (!out_) throw JournalError("FileStorage: cannot open " + name);
    open_name_ = name;
  }
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!out_) throw JournalError("FileStorage: short write to " + name);
}

std::vector<std::byte> FileStorage::read(const std::string& name) const {
  std::ifstream in(dir_ / name, std::ios::binary | std::ios::ate);
  if (!in) throw JournalError("FileStorage: cannot read " + name);
  const auto size = static_cast<std::size_t>(in.tellg());
  std::vector<std::byte> bytes(size);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  if (!in) throw JournalError("FileStorage: short read from " + name);
  return bytes;
}

void FileStorage::remove(const std::string& name) {
  if (name == open_name_) {
    out_.close();
    open_name_.clear();
  }
  std::error_code ec;
  std::filesystem::remove(dir_ / name, ec);
}

void FileStorage::truncate(const std::string& name, std::size_t size) {
  if (name == open_name_) {
    out_.close();
    open_name_.clear();
  }
  std::error_code ec;
  std::filesystem::resize_file(dir_ / name, size, ec);
  if (ec) throw JournalError("FileStorage: cannot truncate " + name);
}

void FileStorage::sync() {
  // Flushes the stream buffer to the OS. A production deployment would
  // fsync here; the sim-grade policy trade-off is documented in DESIGN.md
  // §12 — what matters for the oracle is that bytes survive a *process*
  // crash, which the page cache already guarantees.
  if (out_.is_open()) out_.flush();
}

// ------------------------------------------------------------------- Journal

Journal::Journal(Storage& storage, JournalConfig config)
    : storage_(storage), config_(config) {
  if (config_.segment_bytes < kSegmentHeaderBytes + kRecordHeaderBytes)
    config_.segment_bytes = kSegmentHeaderBytes + kRecordHeaderBytes;
  recover();
}

void Journal::recover() {
  std::vector<std::string> names;
  for (auto& name : storage_.list())
    if (name.rfind("seg-", 0) == 0) names.push_back(std::move(name));

  std::size_t i = 0;
  bool chain_broken = false;
  for (; i < names.size(); ++i) {
    const auto& name = names[i];
    const std::vector<std::byte> bytes = storage_.read(name);

    // Validate the preamble and base-offset chaining. A segment whose base
    // does not continue the chain (or whose magic is wrong) ends recovery:
    // it and everything after it are discarded.
    if (bytes.size() < kSegmentHeaderBytes ||
        std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
      chain_broken = true;
      break;
    }
    const std::uint64_t base = get_u64(bytes.data() + 8);
    if (!segments_.empty() || !records_.empty() || next_offset_ != 0) {
      if (base != next_offset_) {
        chain_broken = true;
        break;
      }
    }

    // Walk records until the first invalid one.
    std::size_t pos = kSegmentHeaderBytes;
    std::size_t valid_end = pos;
    std::uint64_t offset = base;
    std::size_t count = 0;
    while (pos + kRecordHeaderBytes <= bytes.size()) {
      const std::byte* h = bytes.data() + pos;
      const std::uint32_t header_crc = wire::crc32c({h, 20});
      if (get_u32(h + 20) != header_crc) break;
      if (get_u64(h) != offset) break;
      const std::uint32_t len = get_u32(h + 8);
      const std::uint8_t kind = static_cast<std::uint8_t>(h[16]);
      if (len > kMaxPayloadBytes) break;
      if (kind > static_cast<std::uint8_t>(RecordKind::Cursor)) break;
      if (pos + kRecordHeaderBytes + len > bytes.size()) break;
      const std::byte* payload = h + kRecordHeaderBytes;
      if (wire::crc32c({payload, len}) != get_u32(h + 12)) break;

      records_.push_back(
          Record{offset, static_cast<RecordKind>(kind),
                 wire::Frame{std::vector<std::byte>(payload, payload + len)}});
      pos += kRecordHeaderBytes + len;
      valid_end = pos;
      ++offset;
      ++count;
    }

    if (segments_.empty() && records_.empty() && count == 0)
      first_offset_ = base;
    segments_.push_back(Segment{name, base, valid_end, count});
    next_offset_ = offset;
    stats_.recovered_records += count;

    if (valid_end < bytes.size()) {
      // Torn or corrupted tail: truncate it away and stop — any later
      // segment cannot chain past the cut.
      stats_.torn_bytes += bytes.size() - valid_end;
      storage_.truncate(name, valid_end);
      ++i;
      break;
    }
  }

  (void)chain_broken;  // any remaining names lie past the recovery cut
  for (; i < names.size(); ++i) {
    storage_.remove(names[i]);
    ++stats_.dropped_segments;
  }

  if (!segments_.empty()) first_offset_ = segments_.front().base;
  if (first_offset_ > next_offset_) first_offset_ = next_offset_;
  if (segments_.empty()) first_offset_ = next_offset_;
}

void Journal::open_segment(std::uint64_t base) {
  const std::string name = segment_name(base);
  std::byte preamble[kSegmentHeaderBytes];
  std::memcpy(preamble, kMagic, sizeof kMagic);
  put_u64(preamble + 8, base);
  storage_.append(name, preamble);
  segments_.push_back(Segment{name, base, kSegmentHeaderBytes, 0});
}

void Journal::retire_front() {
  const Segment seg = segments_.front();
  segments_.erase(segments_.begin());
  storage_.remove(seg.name);
  // Drop the retired segment's records from the cache and advance the
  // retained window to the next segment's base.
  const std::uint64_t new_first =
      segments_.empty() ? next_offset_ : segments_.front().base;
  while (!records_.empty() && records_.front().offset < new_first)
    records_.pop_front();
  first_offset_ = new_first;
  ++stats_.segments_retired;
}

std::uint64_t Journal::append(RecordKind kind, wire::Frame payload) {
  if (payload.size() > kMaxPayloadBytes)
    throw JournalError("Journal: payload too large");

  if (segments_.empty() || segments_.back().bytes >= config_.segment_bytes) {
    if (!segments_.empty()) ++stats_.segments_rotated;
    open_segment(next_offset_);
    while (config_.max_segments > 0 && segments_.size() > config_.max_segments)
      retire_front();
  }
  Segment& seg = segments_.back();

  const std::uint64_t offset = next_offset_;
  std::byte h[kRecordHeaderBytes] = {};
  put_u64(h, offset);
  put_u32(h + 8, static_cast<std::uint32_t>(payload.size()));
  put_u32(h + 12, wire::crc32c(payload));
  h[16] = static_cast<std::byte>(kind);
  put_u32(h + 20, wire::crc32c({h, 20}));
  storage_.append(seg.name, h);
  if (!payload.empty()) storage_.append(seg.name, payload);

  const std::size_t bytes = kRecordHeaderBytes + payload.size();
  seg.bytes += bytes;
  ++seg.records;
  ++next_offset_;
  records_.push_back(Record{offset, kind, std::move(payload)});
  ++stats_.appends;
  stats_.bytes_appended += bytes;
  return offset;
}

std::uint64_t Journal::append_cursor(std::uint64_t subscriber,
                                     std::uint64_t offset) {
  wire::Writer w;
  w.varint(subscriber);
  w.u8(1);
  w.varint(offset);
  return append(RecordKind::Cursor, wire::Frame{w.take()});
}

std::uint64_t Journal::append_cursor_clear(std::uint64_t subscriber) {
  wire::Writer w;
  w.varint(subscriber);
  w.u8(0);
  return append(RecordKind::Cursor, wire::Frame{w.take()});
}

std::optional<CursorUpdate> Journal::parse_cursor(
    std::span<const std::byte> payload) {
  try {
    wire::Reader r{payload};
    CursorUpdate update;
    update.subscriber = r.varint();
    update.active = r.u8() != 0;
    if (update.active) update.offset = r.varint();
    if (!r.done()) return std::nullopt;
    return update;
  } catch (const wire::WireError&) {
    return std::nullopt;
  }
}

void Journal::scan(std::uint64_t from,
                   const std::function<void(const Record&)>& fn) const {
  // records_ is sorted by offset; find the first one >= from.
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), from,
      [](const Record& rec, std::uint64_t off) { return rec.offset < off; });
  for (auto cur = it; cur != records_.end(); ++cur) fn(*cur);
}

void Journal::sync() {
  storage_.sync();
  ++stats_.syncs;
}

}  // namespace cake::journal
