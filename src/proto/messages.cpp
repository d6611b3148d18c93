#include "proto/messages.hpp"

#include <algorithm>
#include <unordered_map>

namespace ringnet::proto {

namespace {
/// Bundle sizes: the tag and the part count, then a length per part.
constexpr std::size_t kBundleFixedBytes = 1 + 2;
constexpr std::size_t kBundlePartBytes = 2;
}  // namespace

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
  // Bound each reservation by what the frame can hold (32 bytes per entry,
  // 12 per counter), not by the claimed count.
  t.entries_.reserve(std::min<std::size_t>(*n, r.remaining() / 32));
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
    t.group_counters_.reserve(std::min<std::size_t>(*gc, r.remaining() / 12));
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
    MsgType operator()(const CellFrameMsg&) const {
      return MsgType::CellFrame;
    }
    MsgType operator()(const BundleMsg&) const { return MsgType::Bundle; }
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

/// Bytes one body takes in a CellFrame: its length byte and its encoding.
std::size_t cell_body_bytes(const DataMsg& body) {
  return 1 + data_body_bytes(body);
}

void encode_body(const CellFrameMsg& m, WireWriter& w) {
  w.u16(static_cast<std::uint16_t>(m.bodies.size()));
  for (const DataMsg& b : m.bodies) {
    w.u8(static_cast<std::uint8_t>(data_body_bytes(b)));
    encode_body(b, w);
  }
  w.u16(static_cast<std::uint16_t>(m.members.size()));
  for (const CellFrameMsg::Member& mem : m.members) {
    w.node(mem.mh);
    w.u16(static_cast<std::uint16_t>(mem.links.size()));
    for (const CellFrameMsg::Link& l : mem.links) {
      w.u16(l.body);
      w.u64(l.prev_chain);
    }
  }
}

std::optional<Message> decode_cell(WireReader& r) {
  const auto nb = r.u16();
  if (!nb || *nb == 0) return std::nullopt;
  CellFrameMsg c;
  // Reservations are bounded by what the frame can hold: a length byte and
  // the smallest body with a group section (40 + 1 + 12 + 8 bytes) per body,
  // a member header and one link per member, a link per link.
  c.bodies.reserve(std::min<std::size_t>(*nb, r.remaining() / 62));
  for (std::uint16_t i = 0; i < *nb; ++i) {
    const auto len = r.u8();
    if (!len) return std::nullopt;
    const std::uint8_t* body = r.take(*len);
    if (body == nullptr) return std::nullopt;
    WireReader er(body, *len);
    auto m = decode_data(er);
    // Chain data only, and the links carry every chain link.
    if (!m || !er.exhausted() || m->groups.empty() || m->prev_chain != 0) {
      return std::nullopt;
    }
    c.bodies.push_back(std::move(*m));
  }
  const auto nm = r.u16();
  if (!nm || *nm == 0) return std::nullopt;
  c.members.reserve(std::min<std::size_t>(
      *nm, r.remaining() / (kCellMemberBytes + kCellLinkBytes)));
  std::vector<std::uint32_t> ids;
  ids.reserve(c.members.capacity());
  for (std::uint16_t i = 0; i < *nm; ++i) {
    const auto mh = r.node();
    const auto nl = r.u16();
    if (!mh || !nl || *nl == 0) return std::nullopt;
    CellFrameMsg::Member mem;
    mem.mh = *mh;
    mem.links.reserve(
        std::min<std::size_t>(*nl, r.remaining() / kCellLinkBytes));
    for (std::uint16_t k = 0; k < *nl; ++k) {
      const auto b = r.u16();
      const auto prev = r.u64();
      if (!b || !prev || *b >= *nb) return std::nullopt;
      if (!mem.links.empty() && *b <= mem.links.back().body) {
        return std::nullopt;
      }
      mem.links.push_back(CellFrameMsg::Link{*b, *prev});
    }
    ids.push_back(mh->v);
    c.members.push_back(std::move(mem));
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return std::nullopt;
  }
  return Message(std::move(c));
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
  m.events.reserve(std::min<std::size_t>(*n, r.remaining() / 8));
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

/// A Bundle's framing after its tag: at least two parts, each with a
/// nonzero length inside the payload and a tag other than Bundle, ending
/// exactly where the payload does.
std::optional<std::vector<BundlePart>> read_parts(WireReader& r) {
  const auto n = r.u16();
  if (!n || *n < 2) return std::nullopt;
  std::vector<BundlePart> parts;
  // Bounded by what the payload can hold: a length and a tag per part.
  parts.reserve(
      std::min<std::size_t>(*n, r.remaining() / (kBundlePartBytes + 1)));
  for (std::uint16_t i = 0; i < *n; ++i) {
    const auto len = r.u16();
    if (!len || *len == 0) return std::nullopt;
    const std::uint8_t* at = r.take(*len);
    if (at == nullptr || at[0] == static_cast<std::uint8_t>(MsgType::Bundle)) {
      return std::nullopt;
    }
    parts.push_back(BundlePart{at, *len});
  }
  if (!r.exhausted()) return std::nullopt;
  return parts;
}

std::optional<Message> decode_bundle(WireReader& r) {
  const auto parts = read_parts(r);
  if (!parts) return std::nullopt;
  BundleMsg b;
  b.parts.reserve(parts->size());
  for (const BundlePart& p : *parts) {
    auto m = decode(p.data, p.size);
    if (!m) return std::nullopt;
    b.parts.push_back(std::move(*m));
  }
  return Message(std::move(b));
}

/// Bytes encode() writes for `msg`; with `with_payload`, also the payload
/// bytes a Data message stands for, which wire_size() charges a link for.
std::size_t message_bytes(const Message& msg, bool with_payload) {
  // Envelope tag + body.
  std::size_t body = 0;
  struct Visitor {
    std::size_t& body;
    bool with_payload;
    void operator()(const DataMsg& m) const {
      body = data_body_bytes(m) + (with_payload ? m.payload_size : 0);
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
    void operator()(const CellFrameMsg& m) const {
      body = kCellFrameFixedBytes - 1;
      for (const DataMsg& b : m.bodies) body += cell_body_bytes(b);
      for (const CellFrameMsg::Member& mem : m.members) {
        body += kCellMemberBytes + mem.links.size() * kCellLinkBytes;
      }
    }
    void operator()(const BundleMsg& m) const {
      body = kBundleFixedBytes - 1;
      for (const Message& part : m.parts) {
        body += kBundlePartBytes + message_bytes(part, with_payload);
      }
    }
  };
  std::visit(Visitor{body, with_payload}, msg.body());
  return 1 + body;
}

void encode_message(const Message& msg, WireWriter& w) {
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
    void operator()(const CellFrameMsg& m) const { encode_body(m, w); }
    void operator()(const BundleMsg& m) const {
      w.u16(static_cast<std::uint16_t>(m.parts.size()));
      for (const Message& part : m.parts) {
        w.u16(static_cast<std::uint16_t>(message_bytes(part, false)));
        encode_message(part, w);
      }
    }
  };
  std::visit(Visitor{w}, msg.body());
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& msg) {
  WireWriter w;
  w.reserve(message_bytes(msg, /*with_payload=*/false));
  encode_message(msg, w);
  return w.take();
}

std::vector<std::uint8_t> encode_batch(const DataMsg* entries, std::size_t n) {
  WireWriter w;
  w.reserve(3 + n * (1 + kMaxDataBodyBytes));
  w.u8(static_cast<std::uint8_t>(MsgType::DataBatch));
  encode_entries(entries, n, w);
  return w.take();
}

std::vector<std::vector<std::uint8_t>> pack_cells(
    const std::vector<DataMsg>& bodies, const std::vector<CellLink>& links,
    std::size_t max_bytes) {
  std::vector<std::vector<std::uint8_t>> out;
  CellFrameMsg cell;
  std::size_t bytes = kCellFrameFixedBytes;
  std::unordered_map<std::uint32_t, std::size_t> slot;  // member -> index
  const auto cut = [&] {
    out.push_back(encode(Message(std::move(cell))));
    cell = {};
    slot.clear();
    bytes = kCellFrameFixedBytes;
  };
  const auto open_body = [&](const DataMsg& body) {
    cell.bodies.push_back(body);
    bytes += cell_body_bytes(body);
  };
  std::size_t end = 0;
  for (std::size_t b = 0; b < bodies.size(); ++b) {
    const std::size_t begin = end;
    std::size_t need = cell_body_bytes(bodies[b]);
    for (; end < links.size() && links[end].body == b; ++end) {
      need += kCellLinkBytes;
      if (slot.count(links[end].mh.v) == 0) need += kCellMemberBytes;
    }
    if (!cell.bodies.empty() && bytes + need > max_bytes) cut();
    open_body(bodies[b]);
    for (std::size_t l = begin; l < end; ++l) {
      auto at = slot.try_emplace(links[l].mh.v, cell.members.size());
      std::size_t add = kCellLinkBytes + (at.second ? kCellMemberBytes : 0);
      if (bytes + add > max_bytes) {
        cut();
        open_body(bodies[b]);
        at = slot.try_emplace(links[l].mh.v, cell.members.size());
        add = kCellLinkBytes + kCellMemberBytes;
      }
      if (at.second) cell.members.push_back({links[l].mh, {}});
      cell.members[at.first->second].links.push_back(CellFrameMsg::Link{
          static_cast<std::uint16_t>(cell.bodies.size() - 1),
          links[l].prev_chain});
      bytes += add;
    }
  }
  if (!cell.bodies.empty()) cut();
  return out;
}

std::optional<std::vector<MemberBatch>> split_cell(const std::uint8_t* data,
                                                   std::size_t size) {
  const auto msg = decode(data, size);
  if (!msg || msg->type() != MsgType::CellFrame) return std::nullopt;
  const CellFrameMsg& cell = msg->cell();
  // The strict decoder accepts only the canonical encoding, so each body's
  // slice of `data` (its length byte, then the body ending in its zero
  // chain link) is what encode_batch() writes for it: copy the slice and
  // write the member's link over the last eight bytes.
  std::vector<std::size_t> at;  // each body's slice: [at[b], at[b + 1])
  at.reserve(cell.bodies.size() + 1);
  at.push_back(3);  // past the tag and the body count
  for (const DataMsg& b : cell.bodies) {
    at.push_back(at.back() + cell_body_bytes(b));
  }
  std::vector<MemberBatch> out;
  out.reserve(cell.members.size());
  for (const CellFrameMsg::Member& mem : cell.members) {
    std::size_t n = 3;
    for (const CellFrameMsg::Link& l : mem.links) {
      n += at[l.body + 1] - at[l.body];
    }
    WireWriter w;
    w.reserve(n);
    w.u8(static_cast<std::uint8_t>(MsgType::DataBatch));
    w.u16(static_cast<std::uint16_t>(mem.links.size()));
    for (const CellFrameMsg::Link& l : mem.links) {
      w.raw(data + at[l.body], at[l.body + 1] - at[l.body] - 8);
      w.u64(l.prev_chain);
    }
    out.push_back(MemberBatch{mem.mh, w.take()});
  }
  return out;
}

std::optional<std::vector<BundlePart>> bundle_parts(const std::uint8_t* data,
                                                    std::size_t size) {
  WireReader r(data, size);
  const auto type = r.u8();
  if (!type || *type != static_cast<std::uint8_t>(MsgType::Bundle)) {
    return std::nullopt;
  }
  return read_parts(r);
}

std::vector<std::vector<std::uint8_t>> pack_bundles(
    std::vector<std::vector<std::uint8_t>> parts, std::size_t max_bytes) {
  std::vector<std::vector<std::uint8_t>> out;
  std::size_t first = 0;  // parts [first, end) make the next payload
  std::size_t bytes = kBundleFixedBytes;
  const auto cut = [&](std::size_t end) {
    if (end - first == 1) {
      out.push_back(std::move(parts[first]));
    } else {
      WireWriter w;
      w.reserve(bytes);
      w.u8(static_cast<std::uint8_t>(MsgType::Bundle));
      w.u16(static_cast<std::uint16_t>(end - first));
      for (std::size_t k = first; k < end; ++k) {
        w.u16(static_cast<std::uint16_t>(parts[k].size()));
        w.raw(parts[k].data(), parts[k].size());
      }
      out.push_back(w.take());
    }
    first = end;
    bytes = kBundleFixedBytes;
  };
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::size_t add = kBundlePartBytes + parts[i].size();
    if (i > first && bytes + add > max_bytes) cut(i);
    bytes += add;
  }
  if (first < parts.size()) cut(parts.size());
  return out;
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
    case MsgType::CellFrame:
      out = decode_cell(r);
      break;
    case MsgType::Bundle:
      out = decode_bundle(r);
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
  return message_bytes(msg, /*with_payload=*/true);
}

}  // namespace ringnet::proto
