// Host metadata recorded with every run, so numbers from different hosts
// or builds are never compared naively.
#pragma once

#include <string>

namespace perfbench {

struct HostInfo {
  std::string cpu_model;
  unsigned cores = 0;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
};

HostInfo host_info();

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
