// Measurement instruments of the benchmark binary: a counting operator-new
// interposer, a fixed-memory log-bucketed latency histogram, per-thread CPU
// from /proc, peak RSS, in-memory spans, and the metric report printer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

namespace cake {}

namespace perfbench {

using namespace cake;  // the library under measurement

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] std::int64_t now_ns() noexcept;

/// operator-new calls made by this process so far (every thread).
[[nodiscard]] std::uint64_t allocs() noexcept;

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb() noexcept;

/// Thread ids currently listed under /proc/self/task.
[[nodiscard]] std::vector<pid_t> thread_ids();
/// CPU time (user + system) of `tids`, in ns, from /proc/self/task/*/stat.
[[nodiscard]] std::int64_t threads_cpu_ns(const std::vector<pid_t>& tids);
/// CPU time of the calling thread, in ns.
[[nodiscard]] std::int64_t this_thread_cpu_ns() noexcept;

/// Log-bucketed histogram of non-negative values with a fixed footprint:
/// 16 sub-buckets per power of two, so a reported percentile lies within
/// 1/16 (6.25%) of the true sample. Values past the top bucket, and
/// samples recorded with add_infinite(), count as later than any limit.
class Histogram {
public:
  static constexpr int kSubBits = 4;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kOctaves = 40;
  static constexpr std::size_t kBuckets = std::size_t{kOctaves} * kSub;

  void add(std::uint64_t value) noexcept;
  void add_infinite(std::uint64_t n = 1) noexcept { infinite_ += n; }
  void merge(const Histogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_ + infinite_; }
  /// Value at quantile `q` in [0, 1] (bucket upper bound); +infinity when
  /// the rank falls among infinite samples, NaN when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t bucket) noexcept;

private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t infinite_ = 0;
};

/// One benchmark-side span: a call into a layer's public function.
struct Span {
  std::uint32_t name = 0;    ///< index into the caller's list of span names
  std::uint32_t parent = 0;  ///< 1-based index of the parent span, 0 = root
  std::uint64_t event = 0;   ///< event index the call worked on (or ~0)
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Fixed-capacity in-memory span log of one thread; spans past the
/// capacity are counted, not stored. Written out once, at the end.
class Spans {
public:
  explicit Spans(std::size_t capacity = 0) { spans_.reserve(capacity); }

  /// Opens a span; returns its handle for close().
  std::uint32_t open(std::uint32_t name, std::uint64_t event,
                     std::uint32_t parent = 0) noexcept;
  /// Closes a span; returns its duration in ns (0 for a dropped span).
  std::int64_t close(std::uint32_t handle) noexcept;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Σ self time (span minus its direct children) per name, in ns.
  [[nodiscard]] std::vector<std::int64_t> self_ns(std::size_t names) const;
  /// Appends the spans as JSON lines to `path`.
  void write(const std::string& path, const std::vector<std::string>& names) const;

private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Median of `values` (NaN when empty); reorders the vector.
[[nodiscard]] double median(std::vector<double> values);

/// True when `name` is made only of letters, digits, '_', '.' and '-'.
[[nodiscard]] bool valid_name(std::string_view name) noexcept;

/// Metrics of one run, printed as "name value unit" lines and then as the
/// final JSON line of standard output.
class Report {
public:
  void add(std::string name, double value, std::string unit);
  /// Human-readable line only (metrics outside the JSON result).
  void note(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return json_names_;
  }
  /// Prints the metric lines, then the JSON result line.
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    bool json;
  };
  std::vector<Row> rows_;
  std::vector<std::string> json_names_;
};

}  // namespace perfbench
