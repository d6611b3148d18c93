#include "proto/messages.hpp"

#include <algorithm>

namespace ringnet::proto {

// ---------------------------------------------------------------------------
// OrderingToken

GlobalSeq OrderingToken::append_range(NodeId ordering_node, NodeId source,
                                      LocalSeq first, LocalSeq last) {
  WtsnpEntry e;
  e.ordering_node = ordering_node;
  e.source = source;
  e.first = first;
  e.last = last;
  e.gseq_first = next_gseq_;
  entries_.push_back(e);
  next_gseq_ += last - first + 1;
  return e.gseq_first;
}

void OrderingToken::prune_entries_of(NodeId ordering_node) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [ordering_node](const WtsnpEntry& e) {
                                  return e.ordering_node == ordering_node;
                                }),
                 entries_.end());
}

std::optional<GlobalSeq> OrderingToken::lookup(NodeId source,
                                               LocalSeq lseq) const {
  // Scan newest-first: a re-appended range for the same source supersedes
  // older rows still awaiting their pruning rotation.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->source == source && it->first <= lseq && lseq <= it->last) {
      return it->gseq_first + (lseq - it->first);
    }
  }
  return std::nullopt;
}

std::uint64_t OrderingToken::bump_group_seq(GroupId g) {
  auto it = std::lower_bound(
      group_counters_.begin(), group_counters_.end(), g,
      [](const auto& e, GroupId gid) { return e.first < gid; });
  if (it == group_counters_.end() || it->first != g) {
    it = group_counters_.insert(it, {g, 0});
  }
  return it->second++;
}

std::uint64_t OrderingToken::group_seq(GroupId g) const {
  const auto it = std::lower_bound(
      group_counters_.begin(), group_counters_.end(), g,
      [](const auto& e, GroupId gid) { return e.first < gid; });
  return it != group_counters_.end() && it->first == g ? it->second : 0;
}

void OrderingToken::set_group_seq(GroupId g, std::uint64_t next) {
  auto it = std::lower_bound(
      group_counters_.begin(), group_counters_.end(), g,
      [](const auto& e, GroupId gid) { return e.first < gid; });
  if (it == group_counters_.end() || it->first != g) {
    group_counters_.insert(it, {g, next});
  } else {
    it->second = next;
  }
}

void OrderingToken::serialize(WireWriter& w) const {
  w.u32(gid_.v);
  w.u64(epoch_);
  w.u64(serial_);
  w.u64(rotation_);
  w.u64(next_gseq_);
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& e : entries_) {
    w.node(e.ordering_node);
    w.node(e.source);
    w.u64(e.first);
    w.u64(e.last);
    w.u64(e.gseq_first);
  }
  // Trailing per-group counter section, only in multi-group mode: a legacy
  // single-group token keeps the exact pre-group byte layout.
  if (!group_counters_.empty()) {
    w.u32(static_cast<std::uint32_t>(group_counters_.size()));
    for (const auto& [g, next] : group_counters_) {
      w.u32(g.v);
      w.u64(next);
    }
  }
}

std::optional<OrderingToken> OrderingToken::deserialize(WireReader& r) {
  const auto gid = r.u32();
  const auto epoch = r.u64();
  const auto serial = r.u64();
  const auto rotation = r.u64();
  const auto next_gseq = r.u64();
  const auto n = r.u32();
  if (!gid || !epoch || !serial || !rotation || !next_gseq || !n) {
    return std::nullopt;
  }
  OrderingToken t(GroupId{*gid}, *epoch);
  t.serial_ = *serial;
  t.rotation_ = *rotation;
  t.next_gseq_ = *next_gseq;
  t.entries_.reserve(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    const auto on = r.node();
    const auto src = r.node();
    const auto first = r.u64();
    const auto last = r.u64();
    const auto gfirst = r.u64();
    if (!on || !src || !first || !last || !gfirst) return std::nullopt;
    WtsnpEntry e;
    e.ordering_node = *on;
    e.source = *src;
    e.first = *first;
    e.last = *last;
    e.gseq_first = *gfirst;
    t.entries_.push_back(e);
  }
  // Optional per-group counter section. Strict: a present section must
  // parse completely (the envelope decoder then requires exhaustion), and
  // gids must be strictly increasing — the canonical order serialize()
  // writes — so a bit-flipped count or shuffled table is rejected instead
  // of silently re-keying counters.
  if (!r.exhausted()) {
    const auto gc = r.u32();
    if (!gc || *gc == 0) return std::nullopt;
    t.group_counters_.reserve(*gc);
    for (std::uint32_t i = 0; i < *gc; ++i) {
      const auto gid = r.u32();
      const auto next = r.u64();
      if (!gid || !next) return std::nullopt;
      if (!t.group_counters_.empty() &&
          t.group_counters_.back().first.v >= *gid) {
        return std::nullopt;
      }
      t.group_counters_.emplace_back(GroupId{*gid}, *next);
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// TokenView

namespace {

constexpr std::size_t kTokenHeaderBytes = 4 + 8 + 8 + 8 + 8 + 4;
constexpr std::size_t kWtsnpRowBytes = 4 + 4 + 8 + 8 + 8;
constexpr std::size_t kGroupCounterRowBytes = 4 + 8;

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(read_u32(p)) |
         (static_cast<std::uint64_t>(read_u32(p + 4)) << 32);
}

}  // namespace

std::optional<TokenView> TokenView::parse(const std::uint8_t* data,
                                          std::size_t size) {
  if (size < kTokenHeaderBytes) return std::nullopt;
  TokenView v;
  v.gid_ = GroupId{read_u32(data)};
  v.epoch_ = read_u64(data + 4);
  v.serial_ = read_u64(data + 12);
  v.rotation_ = read_u64(data + 20);
  v.next_gseq_ = read_u64(data + 28);
  v.entry_count_ = read_u32(data + 36);
  const std::size_t rows_bytes = v.entry_count_ * kWtsnpRowBytes;
  const std::size_t body = size - kTokenHeaderBytes;
  if (body < rows_bytes) return std::nullopt;
  v.rows_ = data + kTokenHeaderBytes;
  const std::size_t extra = body - rows_bytes;
  if (extra == 0) return v;  // legacy layout: no group-counter section
  // Trailing per-group counter section: u32 count + count fixed rows, and
  // nothing else — any other trailing length is a corrupt frame.
  if (extra < 4) return std::nullopt;
  const std::uint8_t* sect = v.rows_ + rows_bytes;
  const std::uint32_t gc = read_u32(sect);
  if (gc == 0 || extra - 4 != gc * kGroupCounterRowBytes) return std::nullopt;
  v.group_rows_ = sect + 4;
  v.group_counter_count_ = gc;
  return v;
}

std::pair<GroupId, std::uint64_t> TokenView::group_counter(
    std::size_t i) const {
  const std::uint8_t* p = group_rows_ + i * kGroupCounterRowBytes;
  return {GroupId{read_u32(p)}, read_u64(p + 4)};
}

WtsnpEntry TokenView::entry(std::size_t i) const {
  const std::uint8_t* p = rows_ + i * kWtsnpRowBytes;
  WtsnpEntry e;
  e.ordering_node = NodeId{read_u32(p)};
  e.source = NodeId{read_u32(p + 4)};
  e.first = read_u64(p + 8);
  e.last = read_u64(p + 16);
  e.gseq_first = read_u64(p + 24);
  return e;
}

std::optional<GlobalSeq> TokenView::lookup(NodeId source, LocalSeq lseq) const {
  for (std::size_t i = entry_count_; i-- > 0;) {
    const std::uint8_t* p = rows_ + i * kWtsnpRowBytes;
    if (NodeId{read_u32(p + 4)} != source) continue;
    const LocalSeq first = read_u64(p + 8);
    const LocalSeq last = read_u64(p + 16);
    if (first <= lseq && lseq <= last) {
      return read_u64(p + 24) + (lseq - first);
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Message envelope

MsgType Message::type() const {
  struct Visitor {
    MsgType operator()(const DataMsg&) const { return MsgType::Data; }
    MsgType operator()(const OrderingToken&) const { return MsgType::Token; }
    MsgType operator()(const DeliveryAckMsg&) const {
      return MsgType::DeliveryAck;
    }
    MsgType operator()(const MembershipMsg&) const {
      return MsgType::Membership;
    }
    MsgType operator()(const HeartbeatMsg&) const { return MsgType::Heartbeat; }
    MsgType operator()(const TokenAckMsg&) const { return MsgType::TokenAck; }
    MsgType operator()(const DataBatchMsg&) const {
      return MsgType::DataBatch;
    }
  };
  return std::visit(Visitor{}, body_);
}

namespace {

void encode_body(const DataMsg& m, WireWriter& w) {
  w.u32(m.gid.v);
  w.node(m.source);
  w.u64(m.lseq);
  w.node(m.ordering_node);
  w.u64(m.gseq);
  w.u64(m.epoch);
  w.u32(m.payload_size);
  // Multi-group trailing section; absent (legacy byte layout) when the
  // destination set is empty.
  if (!m.groups.empty()) {
    const std::size_t n = std::min(m.groups.size(), kMaxDataGroups);
    w.u8(static_cast<std::uint8_t>(n));
    for (std::size_t i = 0; i < n; ++i) w.u32(m.groups[i].v);
    for (std::size_t i = 0; i < n; ++i) w.u64(m.group_seqs[i]);
    w.u64(m.prev_chain);
  }
}

/// Encoded size of a DataMsg body (descriptor + optional group section),
/// clamped like encode_body so it always matches the emitted bytes.
std::size_t data_body_bytes(const DataMsg& m) {
  std::size_t n = 40;
  if (!m.groups.empty()) {
    // u8 count + u32 gids + u64 seqs + u64 chain link.
    n += 1 + std::min(m.groups.size(), kMaxDataGroups) * 12 + 8;
  }
  return n;
}

std::optional<DataMsg> decode_data(WireReader& r) {
  const auto gid = r.u32();
  const auto source = r.node();
  const auto lseq = r.u64();
  const auto ordering = r.node();
  const auto gseq = r.u64();
  const auto epoch = r.u64();
  const auto payload = r.u32();
  if (!gid || !source || !lseq || !ordering || !gseq || !epoch || !payload) {
    return std::nullopt;
  }
  DataMsg m;
  m.gid = GroupId{*gid};
  m.source = *source;
  m.lseq = *lseq;
  m.ordering_node = *ordering;
  m.gseq = *gseq;
  m.epoch = *epoch;
  m.payload_size = *payload;
  // Optional multi-group section. Strict: a present section must carry
  // 1..kMaxDataGroups strictly-increasing gids (the canonical GroupSet
  // order) plus exactly one seq per gid and the chain link; the envelope
  // decoder then requires exhaustion, so truncations and padded frames
  // both fail instead of mis-parsing.
  if (!r.exhausted()) {
    const auto n = r.u8();
    if (!n || *n == 0 || *n > kMaxDataGroups) return std::nullopt;
    std::uint32_t last = 0;
    for (std::uint8_t i = 0; i < *n; ++i) {
      const auto g = r.u32();
      if (!g) return std::nullopt;
      if (i > 0 && *g <= last) return std::nullopt;
      last = *g;
      m.groups.insert(GroupId{*g});
    }
    for (std::uint8_t i = 0; i < *n; ++i) {
      const auto s = r.u64();
      if (!s) return std::nullopt;
      m.group_seqs[i] = *s;
    }
    const auto prev = r.u64();
    if (!prev) return std::nullopt;
    m.prev_chain = *prev;
  }
  return m;
}

void encode_entries(const DataMsg* entries, std::size_t n, WireWriter& w) {
  w.u16(static_cast<std::uint16_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    w.u8(static_cast<std::uint8_t>(data_body_bytes(entries[i])));
    encode_body(entries[i], w);
  }
}

std::optional<Message> decode_batch(WireReader& r) {
  const auto n = r.u16();
  if (!n || *n == 0) return std::nullopt;
  DataBatchMsg b;
  // Bound the reservation by what the frame can hold (a length byte plus
  // the 40-byte descriptor per entry), not by the claimed count.
  b.entries.reserve(std::min<std::size_t>(*n, r.remaining() / 41));
  for (std::uint16_t i = 0; i < *n; ++i) {
    const auto len = r.u8();
    if (!len) return std::nullopt;
    const std::uint8_t* body = r.take(*len);
    if (body == nullptr) return std::nullopt;
    // Strict per entry: the body must parse to exactly its stated length.
    WireReader er(body, *len);
    auto m = decode_data(er);
    if (!m || !er.exhausted()) return std::nullopt;
    b.entries.push_back(std::move(*m));
  }
  return Message(std::move(b));
}

void encode_body(const DeliveryAckMsg& m, WireWriter& w) {
  w.u32(m.gid.v);
  w.node(m.member);
  w.u64(m.watermark);
}

std::optional<Message> decode_ack(WireReader& r) {
  const auto gid = r.u32();
  const auto member = r.node();
  const auto wm = r.u64();
  if (!gid || !member || !wm) return std::nullopt;
  DeliveryAckMsg m;
  m.gid = GroupId{*gid};
  m.member = *member;
  m.watermark = *wm;
  return Message(m);
}

void encode_body(const MembershipMsg& m, WireWriter& w) {
  w.u32(m.gid.v);
  w.node(m.origin);
  w.u32(static_cast<std::uint32_t>(m.events.size()));
  for (const auto& e : m.events) {
    w.node(e.mh);
    w.node(e.ap);
  }
}

std::optional<Message> decode_membership(WireReader& r) {
  const auto gid = r.u32();
  const auto origin = r.node();
  const auto n = r.u32();
  if (!gid || !origin || !n) return std::nullopt;
  MembershipMsg m;
  m.gid = GroupId{*gid};
  m.origin = *origin;
  m.events.reserve(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    const auto mh = r.node();
    const auto ap = r.node();
    if (!mh || !ap) return std::nullopt;
    m.events.push_back(MembershipMsg::Event{*mh, *ap});
  }
  return Message(m);
}

void encode_body(const HeartbeatMsg& m, WireWriter& w) {
  w.node(m.from);
  w.u64(m.beat);
}

std::optional<Message> decode_heartbeat(WireReader& r) {
  const auto from = r.node();
  const auto beat = r.u64();
  if (!from || !beat) return std::nullopt;
  HeartbeatMsg m;
  m.from = *from;
  m.beat = *beat;
  return Message(m);
}

void encode_body(const TokenAckMsg& m, WireWriter& w) {
  w.node(m.from);
  w.u64(m.serial);
  w.u64(m.rotation);
}

std::optional<Message> decode_token_ack(WireReader& r) {
  const auto from = r.node();
  const auto serial = r.u64();
  const auto rotation = r.u64();
  if (!from || !serial || !rotation) return std::nullopt;
  TokenAckMsg m;
  m.from = *from;
  m.serial = *serial;
  m.rotation = *rotation;
  return Message(m);
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(msg.type()));
  struct Visitor {
    WireWriter& w;
    void operator()(const DataMsg& m) const { encode_body(m, w); }
    void operator()(const OrderingToken& m) const { m.serialize(w); }
    void operator()(const DeliveryAckMsg& m) const { encode_body(m, w); }
    void operator()(const MembershipMsg& m) const { encode_body(m, w); }
    void operator()(const HeartbeatMsg& m) const { encode_body(m, w); }
    void operator()(const TokenAckMsg& m) const { encode_body(m, w); }
    void operator()(const DataBatchMsg& m) const {
      encode_entries(m.entries.data(), m.entries.size(), w);
    }
  };
  std::visit(Visitor{w}, msg.body());
  return w.take();
}

std::vector<std::uint8_t> encode_batch(const DataMsg* entries, std::size_t n) {
  WireWriter w;
  w.reserve(3 + n * (1 + kMaxDataBodyBytes));
  w.u8(static_cast<std::uint8_t>(MsgType::DataBatch));
  encode_entries(entries, n, w);
  return w.take();
}

std::optional<Message> decode(const std::uint8_t* data, std::size_t size) {
  WireReader r(data, size);
  const auto type = r.u8();
  if (!type) return std::nullopt;
  std::optional<Message> out;
  switch (static_cast<MsgType>(*type)) {
    case MsgType::Data: {
      auto m = decode_data(r);
      if (m) out.emplace(std::move(*m));
      break;
    }
    case MsgType::Token: {
      auto t = OrderingToken::deserialize(r);
      if (t) out.emplace(std::move(*t));
      break;
    }
    case MsgType::DeliveryAck:
      out = decode_ack(r);
      break;
    case MsgType::Membership:
      out = decode_membership(r);
      break;
    case MsgType::Heartbeat:
      out = decode_heartbeat(r);
      break;
    case MsgType::TokenAck:
      out = decode_token_ack(r);
      break;
    case MsgType::DataBatch:
      out = decode_batch(r);
      break;
    default:
      return std::nullopt;
  }
  if (!out || !r.exhausted()) return std::nullopt;
  return out;
}

std::optional<Message> decode(const std::vector<std::uint8_t>& bytes) {
  return decode(bytes.data(), bytes.size());
}

std::size_t wire_size(const Message& msg) {
  // Envelope tag + body. Data payload bytes ride outside the descriptor.
  std::size_t body = 0;
  struct Visitor {
    std::size_t& body;
    void operator()(const DataMsg& m) const {
      body = data_body_bytes(m) + m.payload_size;
    }
    void operator()(const OrderingToken& m) const {
      body = 40 + m.entries().size() * 32;
      if (!m.group_counters().empty()) {
        body += 4 + m.group_counters().size() * 12;
      }
    }
    void operator()(const DeliveryAckMsg&) const { body = 16; }
    void operator()(const MembershipMsg& m) const {
      body = 12 + m.events.size() * 8;
    }
    void operator()(const HeartbeatMsg&) const { body = 12; }
    void operator()(const TokenAckMsg&) const { body = 20; }
    void operator()(const DataBatchMsg& m) const {
      body = 2;
      for (const DataMsg& e : m.entries) body += 1 + data_body_bytes(e);
    }
  };
  std::visit(Visitor{body}, msg.body());
  return 1 + body;
}

}  // namespace ringnet::proto
