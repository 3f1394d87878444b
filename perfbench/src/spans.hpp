// Benchmark-side spans: the benchmark times its own calls into each library
// module (grid, opf, device, serve, ...) on the obs::now_ns() clock, so
// serve::RequestTimeline stamps land on the same timebase and nest under
// the request spans. Nothing here reaches inside src/.
//
// Spans on lane 0 (the benchmark's main thread) nest strictly; waterfall()
// turns them into per-layer self times plus an explicit `unattributed`
// term (the root span's own time) that add up to the root's wall time
// exactly. Other lanes carry per-request spans rebuilt from timelines;
// they overlap the main thread and are not part of the waterfall.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct Span {
  std::string name;   ///< e.g. "opf.run"
  std::string layer;  ///< e.g. "opf"; the root span's layer is "unattributed"
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  int lane = 0;

  [[nodiscard]] std::uint64_t duration_ns() const {
    return end_ns > begin_ns ? end_ns - begin_ns : 0;
  }
};

/// Self time per layer of the lane-0 spans, plus the root's own time as
/// "unattributed". A span's self time is its duration minus its direct
/// children's durations; spans must nest (no partial overlap). The values
/// sum exactly (in ns) to the duration of the outermost span.
struct Waterfall {
  std::map<std::string, std::uint64_t> self_ns;  ///< by layer, incl. "unattributed"
  std::uint64_t wall_ns = 0;                     ///< outermost span duration

  [[nodiscard]] std::uint64_t total_ns() const {
    std::uint64_t sum = 0;
    for (const auto& [layer, ns] : self_ns) sum += ns;
    return sum;
  }
  [[nodiscard]] double seconds(const std::string& layer) const {
    const auto it = self_ns.find(layer);
    return it == self_ns.end() ? 0.0 : static_cast<double>(it->second) * 1e-9;
  }
  [[nodiscard]] double share(const std::string& layer) const {
    return wall_ns > 0 ? seconds(layer) * 1e9 / static_cast<double>(wall_ns) : 0.0;
  }
};

inline Waterfall waterfall(const std::vector<Span>& spans) {
  std::vector<const Span*> main;
  for (const Span& s : spans) {
    if (s.lane == 0) main.push_back(&s);
  }
  // Parents first: earlier begin, then longer duration.
  std::sort(main.begin(), main.end(), [](const Span* a, const Span* b) {
    if (a->begin_ns != b->begin_ns) return a->begin_ns < b->begin_ns;
    return a->end_ns > b->end_ns;
  });
  Waterfall w;
  std::vector<const Span*> stack;
  std::map<const Span*, std::uint64_t> child_ns;
  for (const Span* s : main) {
    while (!stack.empty() && stack.back()->end_ns <= s->begin_ns) stack.pop_back();
    if (stack.empty()) {
      w.wall_ns += s->duration_ns();
    } else {
      child_ns[stack.back()] += s->duration_ns();
    }
    stack.push_back(s);
  }
  for (const Span* s : main) {
    const std::uint64_t children = child_ns[s];
    const std::uint64_t self = s->duration_ns() > children ? s->duration_ns() - children : 0;
    w.self_ns[s->layer] += self;
  }
  return w;
}

/// Records spans when enabled; a disabled recorder only reads the clock.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 14);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  void add(std::string name, std::string layer, std::uint64_t begin_ns, std::uint64_t end_ns,
           int lane = 0) {
    if (!enabled_) return;
    spans_.push_back({std::move(name), std::move(layer), begin_ns, end_ns, lane});
  }

  /// RAII span on lane 0.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, const char* layer)
        : rec_(rec), name_(name), layer_(layer), begin_(gridadmm::obs::now_ns()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { rec_.add(name_, layer_, begin_, gridadmm::obs::now_ns()); }

   private:
    SpanRecorder& rec_;
    const char* name_;
    const char* layer_;
    std::uint64_t begin_;
  };

  [[nodiscard]] Scope scope(const char* name, const char* layer) { return {*this, name, layer}; }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events in
  /// microseconds, one tid per lane, plus thread-name metadata).
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    int max_lane = 0;
    for (const Span& s : spans_) max_lane = std::max(max_lane, s.lane);
    bool first = true;
    for (int lane = 0; lane <= max_lane; ++lane) {
      std::fprintf(f,
                   "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"name\":\"%s%d\"}}",
                   first ? "" : ",\n", lane, lane == 0 ? "bench.main" : "requests.", lane);
      first = false;
    }
    for (const Span& s : spans_) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   s.name.c_str(), s.layer.c_str(), s.lane,
                   static_cast<double>(s.begin_ns) * 1e-3,
                   static_cast<double>(s.duration_ns()) * 1e-3);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Assigns overlapping intervals to the fewest lanes (first free lane
/// wins), so per-request spans never overlap within one trace thread.
class LanePacker {
 public:
  explicit LanePacker(int first_lane) : first_lane_(first_lane) {}

  int place(std::uint64_t begin_ns, std::uint64_t end_ns) {
    for (std::size_t i = 0; i < lane_end_.size(); ++i) {
      if (lane_end_[i] <= begin_ns) {
        lane_end_[i] = end_ns;
        return first_lane_ + static_cast<int>(i);
      }
    }
    lane_end_.push_back(end_ns);
    return first_lane_ + static_cast<int>(lane_end_.size()) - 1;
  }

 private:
  int first_lane_;
  std::vector<std::uint64_t> lane_end_;
};

}  // namespace perfbench
