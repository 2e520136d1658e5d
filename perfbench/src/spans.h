// Host-time spans recorded at the benchmark's own calls into each layer
// (traced runs only). Spans nest through a stack — a phase span is the
// parent of the calls made while it is open — share one run id, live in
// memory, and are written out once at exit as Chrome trace JSON (load in
// Perfetto). Simulator::step is far too frequent to keep one span per
// call: every step is timed into histograms (pump.h), and one step in
// kStepSpanEvery is also kept as an individual span.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  static constexpr std::uint64_t kStepSpanEvery = 4096;

  SpanLog(bool enabled, std::uint64_t run_id);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Opens a span as a child of the innermost open span; returns its index.
  std::uint32_t open(const char* name, std::uint64_t arg = 0);
  // Closes span `idx` and any span still open inside it.
  void close(std::uint32_t idx);
  // Records an already-timed leaf span under the innermost open span.
  void leaf(const char* name, std::int64_t start_ns, std::int64_t end_ns, std::uint64_t arg = 0);

  // RAII helper; a no-op when the log is disabled.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t arg = 0)
        : log_(log), idx_(log.enabled() ? log.open(name, arg) : 0) {}
    ~Scope() {
      if (log_.enabled()) log_.close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::uint32_t idx_;
  };

  std::size_t size() const { return spans_.size(); }
  // Chrome trace-event JSON: one "X" event per span, args carry the run
  // id, span id and parent span id.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;  // kNoParent for roots
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t arg;
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  bool enabled_;
  std::uint64_t run_id_;
  std::int64_t epoch_ns_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

}  // namespace perfbench
