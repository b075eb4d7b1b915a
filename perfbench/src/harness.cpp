#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <dirent.h>
#include <fstream>
#include <iostream>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>
#include <unistd.h>

namespace {

// Counting operator-new interposer behind alloc.per_event: one relaxed
// fetch_add per allocation, the same shape as bench/bench_concurrency.cpp.
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::uint64_t allocs() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

double peak_rss_mb() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> tids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      tids.push_back(static_cast<pid_t>(std::atol(entry->d_name)));
    }
    closedir(dir);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::int64_t threads_cpu_ns(const std::vector<pid_t>& tids) {
  static const long ticks = sysconf(_SC_CLK_TCK);
  std::int64_t total = 0;
  for (const pid_t tid : tids) {
    std::ifstream in{"/proc/self/task/" + std::to_string(tid) + "/stat"};
    std::string line;
    if (!std::getline(in, line)) continue;
    // Fields after the parenthesised comm: state is field 3, utime 14,
    // stime 15 (1-based), so skip 11 fields past the state.
    const auto close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest{line.substr(close + 2)};
    std::string field;
    for (int i = 0; i < 11; ++i) rest >> field;
    long long utime = 0;
    long long stime = 0;
    rest >> utime >> stime;
    total += (utime + stime) * 1'000'000'000LL / ticks;
  }
  return total;
}

std::int64_t this_thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000LL + ts.tv_nsec;
}

// ---- Histogram ---------------------------------------------------------

std::size_t Histogram::bucket_of(std::uint64_t value) noexcept {
  if (value < kSub) return static_cast<std::size_t>(value);
  const int e = std::bit_width(value) - 1;  // >= kSubBits
  const std::size_t octave = static_cast<std::size_t>(e - kSubBits + 1);
  const std::size_t sub = (value >> (e - kSubBits)) & (kSub - 1);
  return std::min(octave * kSub + sub, kBuckets - 1);
}

std::uint64_t Histogram::bucket_upper(std::size_t bucket) noexcept {
  const std::size_t octave = bucket / kSub;
  const std::uint64_t sub = bucket % kSub;
  if (octave == 0) return sub;
  const int shift = static_cast<int>(octave) - 1;
  return ((std::uint64_t{kSub} + sub + 1) << shift) - 1;
}

void Histogram::add(std::uint64_t value) noexcept {
  const std::size_t b = bucket_of(value);
  if (b == kBuckets - 1 && value > bucket_upper(b)) {
    ++infinite_;
    return;
  }
  ++buckets_[b];
  ++count_;
}

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  infinite_ += other.infinite_;
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  // Nearest-rank: the smallest sample with at least q·n samples at or
  // below it.
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return static_cast<double>(bucket_upper(i));
  }
  return std::numeric_limits<double>::infinity();
}

// ---- Spans -------------------------------------------------------------

std::uint32_t Spans::open(std::uint32_t name, std::uint64_t event,
                          std::uint32_t parent) noexcept {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return 0;
  }
  spans_.push_back(Span{name, parent, event, now_ns(), 0});
  return static_cast<std::uint32_t>(spans_.size());
}

std::int64_t Spans::close(std::uint32_t handle) noexcept {
  if (handle == 0) return 0;
  Span& span = spans_[handle - 1];
  span.end = now_ns();
  return span.end - span.start;
}

std::vector<std::int64_t> Spans::self_ns(std::size_t names) const {
  std::vector<std::int64_t> self(names, 0);
  for (const Span& s : spans_) {
    if (s.end == 0) continue;
    self[s.name] += s.end - s.start;
    if (s.parent != 0) self[spans_[s.parent - 1].name] -= s.end - s.start;
  }
  return self;
}

void Spans::write(const std::string& path,
                  const std::vector<std::string>& names) const {
  std::ofstream out{path, std::ios::app};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"parent\":" << s.parent << ",\"name\":\""
        << names[s.name] << "\",\"event\":" << s.event
        << ",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end << "}\n";
  }
}

// ---- Report ------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

bool valid_name(std::string_view name) noexcept {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

void Report::add(std::string name, double value, std::string unit) {
  if (!valid_name(name)) throw std::invalid_argument("bad metric name: " + name);
  json_names_.push_back(name);
  rows_.push_back(Row{std::move(name), value, std::move(unit), true});
}

void Report::note(std::string name, double value, std::string unit) {
  if (!valid_name(name)) throw std::invalid_argument("bad metric name: " + name);
  rows_.push_back(Row{std::move(name), value, std::move(unit), false});
}

namespace {

std::string json_number(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  for (const Row& row : rows_) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", row.value);
    std::cout << "metric " << row.name << " " << buf << " " << row.unit
              << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const Row& row : rows_) {
    if (!row.json) continue;
    std::cout << (first ? "" : ", ") << "\"" << row.name << "\": {\"value\": "
              << json_number(row.value) << ", \"unit\": \"" << row.unit
              << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace perfbench
