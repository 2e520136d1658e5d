#include "hostinfo.h"

#include <sys/resource.h>

#include <fstream>
#include <string>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {

HostInfo host_info() {
  HostInfo h;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) h.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.cores = std::thread::hardware_concurrency();
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "gcc " __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  h.build_type += " (NDEBUG)";
#endif
  h.cxx_flags = PERFBENCH_CXX_FLAGS;
  return h;
}

double peak_rss_mb() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // survives execve, so it would report the launching process's resident
  // size (run.py's Python interpreter) whenever that is the larger one.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
