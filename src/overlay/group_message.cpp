#include "overlay/group_message.h"

#include <algorithm>

#include "obs/trace.h"

namespace atum::overlay {

namespace {

Bytes encode_full(GroupMessageId id, const net::Payload& payload) {
  ByteWriter w;
  w.u64(id.from_group);
  w.u64(id.seq);
  w.bytes(payload.data(), payload.size());
  return w.take();
}

Bytes encode_digest(GroupMessageId id, const crypto::Digest& d) {
  ByteWriter w;
  w.u64(id.from_group);
  w.u64(id.seq);
  w.raw(d.data(), d.size());
  return w.take();
}

}  // namespace

PreparedGroupMessage::PreparedGroupMessage(const std::vector<NodeId>& senders, NodeId self,
                                           GroupMessageId id, const net::Payload& payload) {
  // Rank of the local node among the (sorted) senders decides full vs digest.
  auto it = std::find(senders.begin(), senders.end(), self);
  std::size_t rank = static_cast<std::size_t>(it - senders.begin());
  std::size_t full_count = senders.size() / 2 + 1;  // any majority has a correct node
  bool send_full = rank < full_count;

  // Freeze the encoded frame once; every recipient shares the same buffer.
  // payload.digest() memoizes on the payload's control block: a gossip
  // relay hashing the frame it just received (and whose receiver already
  // hashed it to vouch) reuses that digest instead of recomputing.
  wire_ = net::Payload(send_full ? encode_full(id, payload)
                                 : encode_digest(id, payload.digest()));
  type_ = send_full ? net::MsgType::kGroupMsgFull : net::MsgType::kGroupMsgDigest;
}

void PreparedGroupMessage::send_to(net::Transport& transport,
                                   const std::vector<NodeId>& destination, Rng& rng) const {
  std::vector<NodeId> order = destination;
  rng.shuffle(order);
  for (NodeId d : order) {
    transport.send(d, type_, wire_);
  }
}

void send_group_message(net::Transport& transport, const std::vector<NodeId>& senders,
                        GroupMessageId id, const std::vector<NodeId>& destination,
                        const net::Payload& payload, Rng& rng) {
  PreparedGroupMessage(senders, transport.self(), id, payload).send_to(transport, destination, rng);
}

GroupMessageReceiver::GroupMessageReceiver(net::Transport transport, DeliverFn deliver)
    : transport_(std::move(transport)), deliver_(std::move(deliver)) {
  transport_.listen({net::MsgType::kGroupMsgFull, net::MsgType::kGroupMsgDigest},
                    [this](const net::Message& m) { on_message(m); });
}

GroupMessageReceiver::~GroupMessageReceiver() { transport_.close(); }

void GroupMessageReceiver::gc_expired() {
  const TimeMicros now = transport_.simulator().now();
  while (!gc_queue_.empty() && gc_queue_.front().first <= now) {
    auto it = entries_.find(gc_queue_.front().second);
    gc_queue_.pop_front();
    // A delivered entry stays behind for dedup until rotation erases it.
    if (it != entries_.end() && it->second.state == State::kBuffering) entries_.erase(it);
  }
}

template <typename Pred>
std::vector<GroupMessageId> GroupMessageReceiver::sorted_ids(Pred pred) const {
  std::vector<GroupMessageId> ids;
  // lint: unordered-iter-ok(sorted below)
  for (const auto& [id, e] : entries_) {
    if (pred(e)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void GroupMessageReceiver::maybe_rotate_delivered() {
  const TimeMicros now = transport_.simulator().now();
  if (delivered_rotate_at_ == 0) {
    delivered_rotate_at_ = now + 8 * tombstone_ttl_;
    return;
  }
  if (now < delivered_rotate_at_) return;
  ++generation_;
  delivered_rotate_at_ = now + 8 * tombstone_ttl_;
  auto stale = sorted_ids([this](const Entry& e) {
    return e.state == State::kDelivered && e.generation + 2 <= generation_;
  });
  for (const GroupMessageId& id : stale) {
    entries_.erase(id);
    --delivered_;
  }
}

void GroupMessageReceiver::on_message(const net::Message& msg) {
  gc_expired();
  maybe_rotate_delivered();

  const bool is_full = msg.type == net::MsgType::kGroupMsgFull;
  GroupMessageId id;
  crypto::Digest digest;
  net::Payload payload;
  try {
    ByteReader r(msg.payload);
    id.from_group = r.u64();
    id.seq = r.u64();
    if (is_full) {
      // Zero-copy: the body is a refcounted slice of the arriving frame.
      // The vouch digest is memoized on that frame's control block, so a
      // frame fanned out to many receivers is hashed once system-wide and
      // a node relaying it onward reuses the digest too.
      payload = msg.payload.slice(r.bytes_view());
      digest = payload.digest();
    } else {
      r.raw(digest.data(), digest.size());
    }
    r.expect_done();
  } catch (const SerdeError&) {
    return;  // malformed: faulty sender
  }

  const NodeId from = msg.from;
  if (membership_ && !membership_(id.from_group, from)) return;

  auto [it, fresh] = entries_.try_emplace(id);
  Entry& e = it->second;
  if (fresh) {
    // New entry: even if it never delivers (digest-only flood, content
    // short of majority, unknown sender group) it expires after a TTL.
    gc_queue_.emplace_back(transport_.simulator().now() + tombstone_ttl_, id);
  }
  // Duplicate of a delivered id inside the rotation window: dropped
  // before it can re-deliver.
  if (e.state == State::kDelivered) return;

  auto cit = std::lower_bound(e.candidates.begin(), e.candidates.end(), digest,
                              [](const Candidate& c, const crypto::Digest& d) {
                                return c.digest < d;
                              });
  if (cit == e.candidates.end() || cit->digest != digest) {
    cit = e.candidates.insert(cit, Candidate{});
    cit->digest = digest;
  }
  if (std::find(cit->vouchers.begin(), cit->vouchers.end(), from) == cit->vouchers.end()) {
    cit->vouchers.push_back(from);
  }
  if (is_full && !cit->has_payload) {
    cit->payload = std::move(payload);
    cit->relay = from;
    cit->has_payload = true;
  }
  try_deliver(id, e);
}

void GroupMessageReceiver::try_deliver(const GroupMessageId& id, Entry& e) {
  if (e.state != State::kBuffering) return;
  std::optional<std::size_t> size;
  if (group_size_) size = group_size_(id.from_group);
  if (!size) return;  // unknown sender group: keep buffering
  std::size_t majority = *size / 2 + 1;

  for (Candidate& c : e.candidates) {
    if (c.vouchers.size() < majority) continue;
    if (!c.has_payload) continue;  // majority but no full copy yet
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->record(transport_.simulator().now(), transport_.self(), obs::TracePoint::kVouch,
                      id.seq, c.vouchers.size(), id.from_group);
    }
    // Keep the id for dedup; drop the buffered data.
    net::Payload payload = std::move(c.payload);
    NodeId relay = c.relay;
    e.candidates = std::vector<Candidate>();  // releases the capacity too
    e.state = State::kDelivered;
    e.generation = generation_;
    ++delivered_;
    deliver_(id, relay, std::move(payload));
    return;
  }
}

void GroupMessageReceiver::reevaluate() {
  // Usually every entry is a delivered id kept for dedup: nothing to
  // re-check, and walking minutes of delivery history would find nothing.
  if (pending_count() == 0) return;
  // In GroupMessageId order, independent of the hash layout; each id is
  // re-found because a delivery callback may touch the table.
  auto buffered = sorted_ids([](const Entry& e) { return e.state == State::kBuffering; });
  for (const GroupMessageId& id : buffered) {
    auto it = entries_.find(id);
    if (it != entries_.end()) try_deliver(id, it->second);
  }
}

}  // namespace atum::overlay
