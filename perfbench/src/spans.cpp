#include "spans.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

SpanLog::SpanLog(bool enabled, std::uint64_t run_id)
    : enabled_(enabled), run_id_(run_id), epoch_ns_(now_ns()) {}

std::uint32_t SpanLog::open(const char* name, std::uint64_t arg) {
  const auto idx = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
  spans_.push_back(Span{name, parent, now_ns(), 0, arg});
  stack_.push_back(idx);
  return idx;
}

void SpanLog::close(std::uint32_t idx) {
  // Scopes nest, so `idx` is normally the innermost open span; any span
  // still open inside it ends with it (close never throws: it runs in
  // Scope's destructor).
  const std::int64_t now = now_ns();
  while (!stack_.empty()) {
    const std::uint32_t top = stack_.back();
    stack_.pop_back();
    spans_[top].end_ns = now;
    if (top == idx) break;
  }
}

void SpanLog::leaf(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::uint64_t arg) {
  const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
  spans_.push_back(Span{name, parent, start_ns, end_ns, arg});
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent = s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"run\":\"%016" PRIx64 "\",\"id\":%zu,\"parent\":%lld,\"arg\":%" PRIu64
                 "}}",
                 i == 0 ? "" : ",\n", s.name, static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, run_id_, i, parent, s.arg);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
