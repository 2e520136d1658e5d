#include "refkernel.h"

#include <chrono>
#include <map>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

// splitmix64: the kernel's own generator (no dependency on atum::Rng).
std::uint64_t mix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kKeys = 4096;        // map/hash working set
constexpr std::size_t kArray = 1 << 16;      // 64 Ki x u64 = 512 KiB

}  // namespace

RefResult run_reference_kernel(int rounds) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t s = 0x5eedULL;
  std::map<std::uint64_t, std::uint64_t> tree;
  std::unordered_map<std::uint64_t, std::uint64_t> hash;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  std::vector<std::uint64_t> arr(kArray);
  for (std::size_t i = 0; i < kArray; ++i) arr[i] = mix(s);

  std::uint64_t acc = 0;
  std::uint64_t idx = 0;
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t k = mix(s) % kKeys;
    // Ordered map: insert-or-update, lower_bound probe, periodic erase.
    tree[k] += static_cast<std::uint64_t>(r);
    auto it = tree.lower_bound(mix(s) % kKeys);
    if (it != tree.end()) acc += it->second;
    if ((r & 3) == 0) tree.erase(mix(s) % kKeys);
    // Hash map: same shape.
    hash[k ^ 0x55] += acc;
    auto h = hash.find(mix(s) % kKeys);
    if (h != hash.end()) acc ^= h->second;
    if ((r & 3) == 1) hash.erase(mix(s) % kKeys);
    // Heap: bounded event-queue churn.
    heap.push(acc + static_cast<std::uint64_t>(r));
    if (heap.size() > 1024) {
      acc += heap.top();
      heap.pop();
    }
    // Dependent random reads.
    for (int j = 0; j < 4; ++j) {
      idx = (arr[idx] ^ acc) & (kArray - 1);
      acc += arr[idx];
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  RefResult out;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.checksum = acc ^ tree.size() ^ (hash.size() << 20) ^ (heap.size() << 40);
  return out;
}

void DriftProbe::begin(std::chrono::nanoseconds interval) {
  interval_ = interval;
  win_ = Window{};
  samples_.clear();
  armed_ = false;
  slice();  // opening slice: sets last_end_ and last_pass_s_
  armed_ = true;
}

DriftProbe::Window DriftProbe::end() {
  slice();  // closing slice brackets the final interval
  armed_ = false;
  return win_;
}

void DriftProbe::slice() {
  const auto start = std::chrono::steady_clock::now();
  const RefResult r = run_reference_kernel(kSliceRounds);
  const auto stop = std::chrono::steady_clock::now();
  if (checksum_ == 0) checksum_ = r.checksum;
  consistent_ = consistent_ && r.checksum == checksum_;
  const double pass_s = r.seconds * (static_cast<double>(kFullRounds) / kSliceRounds);
  if (armed_) {
    const double interval_s = std::chrono::duration<double>(start - last_end_).count();
    win_.raw_s += interval_s;
    win_.ref_passes += interval_s / (0.5 * (last_pass_s_ + pass_s));
  }
  samples_.push_back(pass_s);
  last_pass_s_ = pass_s;
  last_end_ = stop;
  next_ = stop + interval_;
}

DriftProbe& drift_probe() {
  static DriftProbe probe;
  return probe;
}

}  // namespace perfbench
