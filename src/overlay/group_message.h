// Group messages (§3.1, Figure 3): the reliable communication primitive for
// pairs of vgroups. A group message from vgroup A to vgroup B is sent by
// every correct node of A to every node of B; a node of B accepts it once a
// majority of A's members vouch for the same content, which makes the
// primitive correct whenever A is robust.
//
// Two practical mechanisms from §5.1 are implemented:
//  * digest optimization — only a majority of A's members transmit the full
//    payload, the rest send its SHA-256 digest; any majority contains a
//    correct node, so at least one full copy always arrives;
//  * randomized send order — each sender permutes the destination list to
//    avoid the synchronized bursts that cause incast throughput collapse.
//
// Payload ownership (zero-copy path): the sender encodes + freezes the wire
// frame exactly once per node (PreparedGroupMessage) and every destination
// member shares that buffer. The receiver decodes the body as a refcounted
// slice of the arriving frame (net::Payload::slice) — it is buffered in the
// receiver's table and handed to DeliverFn without ever being copied, so a
// node materializes no bytes on the receive path at all.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "crypto/sha256.h"
#include "net/network.h"

namespace atum::obs {
class Tracer;
}  // namespace atum::obs

namespace atum::overlay {

struct GroupMessageId {
  GroupId from_group = kInvalidGroup;
  std::uint64_t seq = 0;
  friend auto operator<=>(const GroupMessageId&, const GroupMessageId&) = default;
};

// Mixes both words: seq is a digest prefix only for broadcasts; walks and
// neighbor updates number it with a counter, so neither word alone spreads.
struct GroupMessageIdHash {
  std::size_t operator()(const GroupMessageId& id) const noexcept {
    std::uint64_t h = id.seq ^ (id.from_group * 0x9e3779b97f4a7c15ULL);
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ULL;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }
};

// One group message encoded on behalf of the local node, ready to fan out.
// `senders` is the sorted membership of the local vgroup (must include
// `self`); the first floor(g/2)+1 ranks transmit the full payload, the rest
// its digest. The wire frame is encoded and frozen exactly once — sending
// it to any number of destination groups and members shares one buffer
// (gossip relays the same broadcast to several neighbor vgroups).
class PreparedGroupMessage {
 public:
  PreparedGroupMessage(const std::vector<NodeId>& senders, NodeId self, GroupMessageId id,
                       const net::Payload& payload);

  // Sends to every member of `destination`, in randomized order (§5.1:
  // avoid the synchronized bursts that cause incast throughput collapse).
  void send_to(net::Transport& transport, const std::vector<NodeId>& destination,
               Rng& rng) const;

 private:
  net::Payload wire_;
  net::MsgType type_;
};

// Convenience wrapper: prepare + send to one destination group.
void send_group_message(net::Transport& transport, const std::vector<NodeId>& senders,
                        GroupMessageId id, const std::vector<NodeId>& destination,
                        const net::Payload& payload, Rng& rng);

// Per-node acceptance logic. Collects vouches until a majority of the
// sending group agrees on one digest and a full payload with that digest
// has arrived, then delivers exactly once.
class GroupMessageReceiver {
 public:
  // The delivered payload is a refcounted slice of the relay's wire frame
  // (zero-copy); keep it as a Payload or slice it further, don't copy.
  using DeliverFn =
      std::function<void(const GroupMessageId& id, NodeId relay, net::Payload payload)>;
  // Resolves the size of a sending vgroup; acceptance needs the true size,
  // not a size claimed on the wire by a possibly-Byzantine sender. Return
  // nullopt for unknown groups (their messages stay buffered).
  using GroupSizeFn = std::function<std::optional<std::size_t>(GroupId)>;
  // Membership check: is `node` a member of `group`? Vouches from
  // non-members are ignored.
  using MembershipFn = std::function<bool(GroupId, NodeId)>;

  GroupMessageReceiver(net::Transport transport, DeliverFn deliver);
  ~GroupMessageReceiver();
  GroupMessageReceiver(const GroupMessageReceiver&) = delete;
  GroupMessageReceiver& operator=(const GroupMessageReceiver&) = delete;

  void set_group_size_fn(GroupSizeFn fn) { group_size_ = std::move(fn); }
  void set_membership_fn(MembershipFn fn) { membership_ = std::move(fn); }
  // Message-lifecycle tracing: a kVouch event is recorded once per
  // delivery (key = id.seq = the broadcast digest prefix, a = voucher
  // count) at the instant majority vouching completes.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // One hashed table holds every id the receiver tracks. An entry is
  // either buffering (collecting vouches) or delivered:
  //  * a buffering entry expires one TTL of simulated time after creation
  //    and is collected — digest-only floods from a Byzantine member,
  //    below-majority content and unknown sender groups would otherwise
  //    grow the table by one entry per fresh id forever;
  //  * a delivered entry drops its buffered data and keeps only the
  //    rotation generation it was delivered in. Every 8 TTLs (lazily, on
  //    arrival) the generation advances and delivered entries two
  //    generations old are erased, so a duplicate is dropped for at least
  //    8 TTLs after delivery — it would otherwise re-deliver and
  //    re-gossip. For broadcasts the id's seq is the payload digest
  //    prefix, so this window IS a digest dedup set, bounded by the
  //    delivery rate over two rotation periods.
  void set_tombstone_ttl(DurationMicros ttl) { tombstone_ttl_ = ttl; }

  // Re-evaluates buffered messages, in GroupMessageId order (e.g. after
  // learning a group's composition through a neighbor update). O(1) when
  // nothing is buffering; otherwise one pass over the table.
  void reevaluate();

  // Buffered undelivered messages.
  std::size_t pending_count() const { return entries_.size() - delivered_; }
  // Delivered ids currently remembered for dedup (the last two rotation
  // generations).
  std::size_t delivered_dedup_count() const { return delivered_; }

 private:
  // One content candidate of a buffering entry.
  struct Candidate {
    crypto::Digest digest{};
    std::vector<NodeId> vouchers;  // distinct vouching senders
    net::Payload payload;          // full copy; valid iff has_payload
    NodeId relay = kInvalidNode;   // first sender that provided it
    bool has_payload = false;
  };
  enum class State : std::uint8_t {
    kBuffering,
    kDelivered,  // kept for dedup until rotation erases it
  };
  struct Entry {
    // Buffering only, sorted by digest: try_deliver scans candidates in
    // digest order, so an equivocating sender group delivers its lowest
    // majority digest.
    std::vector<Candidate> candidates;
    std::uint32_t generation = 0;  // rotation generation of the delivery
    State state = State::kBuffering;
  };

  void on_message(const net::Message& msg);
  void try_deliver(const GroupMessageId& id, Entry& e);
  void gc_expired();
  // Advances the generation every 8 TTLs and erases delivered entries two
  // generations old: an id stays dedup-covered for at least one full
  // rotation period after delivery.
  void maybe_rotate_delivered();
  // The ids of entries matching `pred`, in GroupMessageId order.
  template <typename Pred>
  std::vector<GroupMessageId> sorted_ids(Pred pred) const;

  net::Transport transport_;
  DeliverFn deliver_;
  GroupSizeFn group_size_;
  MembershipFn membership_;
  obs::Tracer* tracer_ = nullptr;
  std::unordered_map<GroupMessageId, Entry, GroupMessageIdHash> entries_;
  std::size_t delivered_ = 0;  // entries in kDelivered
  DurationMicros tombstone_ttl_ = 60 * kMicrosPerSecond;
  // Entry deadlines in creation order; swept lazily on message arrival,
  // O(1) amortized.
  std::deque<std::pair<TimeMicros, GroupMessageId>> gc_queue_;
  std::uint32_t generation_ = 0;
  TimeMicros delivered_rotate_at_ = 0;
};

}  // namespace atum::overlay
