// hot-path-alloc: make_unique is still a heap allocation, however tidy the
// ownership — the node's group-message fan-out runs once per instant that
// sends group messages.
#include "atum_mini.h"

namespace fx_hp_make_unique {

class AtumNode {
 public:
  void send_fanouts() {
    auto scratch = std::make_unique<std::uint64_t>(1);  // expect: hot-path-alloc
    sent_ += *scratch;
  }

 private:
  std::uint64_t sent_ = 0;
};

}  // namespace fx_hp_make_unique
