// Codec round-trips for every message kind, plus malformed-input safety:
// decode() must reject truncation, trailing garbage and unknown tags
// rather than mis-parse.

#include <algorithm>
#include <optional>

#include "proto/messages.hpp"
#include "ringnet_test.hpp"

using namespace ringnet;

namespace {

proto::DataMsg sample_data() {
  proto::DataMsg m;
  m.gid = GroupId{7};
  m.source = NodeId{42};
  m.lseq = 123456789ull;
  m.ordering_node = NodeId::make(Tier::BR, 3);
  m.gseq = 987654321ull;
  m.epoch = 5;
  m.payload_size = 1024;
  return m;
}

}  // namespace

TEST(data_round_trip) {
  const proto::Message msg = sample_data();
  const auto bytes = proto::encode(msg);
  const auto decoded = proto::decode(bytes);
  CHECK(decoded.has_value());
  CHECK(decoded->type() == proto::MsgType::Data);
  const auto& d = decoded->data();
  const auto ref = sample_data();
  CHECK_EQ(d.gid.v, ref.gid.v);
  CHECK_EQ(d.source.v, ref.source.v);
  CHECK_EQ(d.lseq, ref.lseq);
  CHECK_EQ(d.ordering_node.v, ref.ordering_node.v);
  CHECK_EQ(d.gseq, ref.gseq);
  CHECK_EQ(d.epoch, ref.epoch);
  CHECK_EQ(d.payload_size, ref.payload_size);
}

TEST(ack_round_trip) {
  proto::DeliveryAckMsg a;
  a.gid = GroupId{1};
  a.member = NodeId::make(Tier::MH, 17);
  a.watermark = 5555;
  const auto decoded = proto::decode(proto::encode(proto::Message(a)));
  CHECK(decoded.has_value());
  CHECK(decoded->type() == proto::MsgType::DeliveryAck);
  CHECK_EQ(decoded->ack().member.v, a.member.v);
  CHECK_EQ(decoded->ack().watermark, a.watermark);
}

TEST(membership_round_trip) {
  proto::MembershipMsg m;
  m.gid = GroupId{1};
  m.origin = NodeId::make(Tier::BR, 0);
  m.events.push_back(
      {NodeId::make(Tier::MH, 1), NodeId::make(Tier::AP, 2)});
  m.events.push_back({NodeId::make(Tier::MH, 3), NodeId::invalid()});
  const auto decoded = proto::decode(proto::encode(proto::Message(m)));
  CHECK(decoded.has_value());
  CHECK(decoded->type() == proto::MsgType::Membership);
  CHECK_EQ(decoded->membership().events.size(), std::size_t{2});
  CHECK_EQ(decoded->membership().events[0].ap.v,
           NodeId::make(Tier::AP, 2).v);
  CHECK(!decoded->membership().events[1].ap.valid());
}

TEST(heartbeat_round_trip) {
  proto::HeartbeatMsg h;
  h.from = NodeId::make(Tier::BR, 2);
  h.beat = 99;
  const auto decoded = proto::decode(proto::encode(proto::Message(h)));
  CHECK(decoded.has_value());
  CHECK(decoded->type() == proto::MsgType::Heartbeat);
  CHECK_EQ(decoded->heartbeat().beat, std::uint64_t{99});
}

TEST(token_ack_round_trip) {
  proto::TokenAckMsg a;
  a.from = NodeId::make(Tier::BR, 1);
  a.serial = 314159;
  a.rotation = 27;
  const auto bytes = proto::encode(proto::Message(a));
  const auto decoded = proto::decode(bytes);
  CHECK(decoded.has_value());
  CHECK(decoded->type() == proto::MsgType::TokenAck);
  CHECK_EQ(decoded->token_ack().from.v, a.from.v);
  CHECK_EQ(decoded->token_ack().serial, a.serial);
  CHECK_EQ(decoded->token_ack().rotation, a.rotation);
  CHECK_EQ(proto::wire_size(proto::Message(a)), bytes.size());
  // Truncations at every prefix length must fail cleanly.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    CHECK(!proto::decode(prefix).has_value());
  }
}

TEST(malformed_rejected) {
  const auto bytes = proto::encode(proto::Message(sample_data()));
  // Truncations at every prefix length must fail cleanly.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + cut);
    CHECK(!proto::decode(prefix).has_value());
  }
  // Trailing garbage is rejected too.
  auto padded = bytes;
  padded.push_back(0xAB);
  CHECK(!proto::decode(padded).has_value());
  // Unknown type tag.
  auto bogus = bytes;
  bogus[0] = 0x7F;
  CHECK(!proto::decode(bogus).has_value());
  CHECK(!proto::decode({}).has_value());
}

TEST(wire_size_matches_encode) {
  // wire_size() must agree byte-for-byte with the materialized encoding
  // (modulo the data payload, which rides outside the descriptor).
  proto::DataMsg d = sample_data();
  d.payload_size = 0;
  CHECK_EQ(proto::wire_size(proto::Message(d)),
           proto::encode(proto::Message(d)).size());
  d.payload_size = 256;
  CHECK_EQ(proto::wire_size(proto::Message(d)),
           proto::encode(proto::Message(d)).size() + 256);

  proto::DeliveryAckMsg a;
  CHECK_EQ(proto::wire_size(proto::Message(a)),
           proto::encode(proto::Message(a)).size());

  proto::MembershipMsg m;
  m.events.push_back({NodeId{1}, NodeId{2}});
  m.events.push_back({NodeId{3}, NodeId{4}});
  CHECK_EQ(proto::wire_size(proto::Message(m)),
           proto::encode(proto::Message(m)).size());

  proto::HeartbeatMsg h;
  CHECK_EQ(proto::wire_size(proto::Message(h)),
           proto::encode(proto::Message(h)).size());

  proto::OrderingToken t(GroupId{1}, 1);
  t.append_range(NodeId{1}, NodeId{2}, 0, 9);
  t.append_range(NodeId{2}, NodeId{3}, 0, 9);
  CHECK_EQ(proto::wire_size(proto::Message(t)),
           proto::encode(proto::Message(t)).size());
}

TEST(wire_size_clamps_like_encode_on_oversized_group_sets) {
  // encode_body clamps the trailing section to kMaxDataGroups; wire_size
  // must apply the same clamp or a non-canonical DataMsg (a GroupSet wider
  // than the wire can name) would make the modeled frame size disagree
  // with the bytes actually emitted.
  proto::DataMsg m = sample_data();
  m.payload_size = 0;
  for (std::uint32_t g = 1; g <= 6; ++g) m.groups.insert(GroupId{g});
  for (std::size_t i = 0; i < proto::kMaxDataGroups; ++i) {
    m.group_seqs[i] = 100 + i;
  }
  m.prev_chain = 9;
  CHECK(m.groups.size() > proto::kMaxDataGroups);
  CHECK_EQ(proto::wire_size(proto::Message(m)),
           proto::encode(proto::Message(m)).size());
  // The emitted frame still decodes (to the clamped canonical prefix).
  const auto decoded = proto::decode(proto::encode(proto::Message(m)));
  CHECK(decoded.has_value());
  CHECK_EQ(decoded->data().groups.size(), proto::kMaxDataGroups);
}

TEST(wire_primitives) {
  proto::WireWriter w;
  w.u8(0x12);
  w.u16(0x3456);
  w.u32(0x789ABCDE);
  w.u64(0x1122334455667788ull);
  CHECK_EQ(w.size(), std::size_t{15});
  // Little-endian on the wire, least significant byte first. A writer and
  // a reader that agreed on the other order would still round-trip.
  const std::vector<std::uint8_t> le = {
      0x12,                                            // u8
      0x56, 0x34,                                      // u16
      0xDE, 0xBC, 0x9A, 0x78,                          // u32
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // u64
  };
  CHECK(w.bytes() == le);
  proto::WireReader r(w.bytes());
  CHECK_EQ(*r.u8(), 0x12);
  CHECK_EQ(*r.u16(), 0x3456);
  CHECK_EQ(*r.u32(), 0x789ABCDEu);
  CHECK_EQ(*r.u64(), 0x1122334455667788ull);
  CHECK(r.exhausted());
  CHECK(!r.u8().has_value());
}

namespace {

proto::DataMsg sample_grouped(std::initializer_list<std::uint32_t> gids) {
  proto::DataMsg m = sample_data();
  std::size_t i = 0;
  for (const std::uint32_t g : gids) {
    m.groups.insert(GroupId{g});
    m.group_seqs[i++] = 1000 + g;
  }
  m.prev_chain = 777;
  return m;
}

}  // namespace

TEST(group_set_round_trip) {
  const proto::DataMsg ref = sample_grouped({1, 3, 9});
  const auto bytes = proto::encode(proto::Message(ref));
  const auto decoded = proto::decode(bytes);
  CHECK(decoded.has_value());
  const auto& d = decoded->data();
  CHECK_EQ(d.groups.size(), std::size_t{3});
  for (std::size_t i = 0; i < d.groups.size(); ++i) {
    CHECK_EQ(d.groups[i].v, ref.groups[i].v);
    CHECK_EQ(d.group_seqs[i], ref.group_seqs[i]);
  }
  CHECK_EQ(d.prev_chain, ref.prev_chain);
  CHECK_EQ(d.gseq, ref.gseq);
  // wire_size agrees on the extended layout too (payload rides outside).
  proto::DataMsg sized = ref;
  sized.payload_size = 0;
  CHECK_EQ(proto::wire_size(proto::Message(sized)),
           proto::encode(proto::Message(sized)).size());
}

TEST(group_set_singleton_and_full) {
  for (const auto& gids : {std::vector<std::uint32_t>{5},
                           std::vector<std::uint32_t>{2, 4, 6, 8}}) {
    proto::DataMsg ref = sample_data();
    std::size_t i = 0;
    for (const std::uint32_t g : gids) {
      ref.groups.insert(GroupId{g});
      ref.group_seqs[i++] = 50 + g;
    }
    ref.prev_chain = 42;
    const auto decoded = proto::decode(proto::encode(proto::Message(ref)));
    CHECK(decoded.has_value());
    const auto& d = decoded->data();
    CHECK_EQ(d.groups.size(), gids.size());
    for (std::size_t j = 0; j < gids.size(); ++j) {
      CHECK_EQ(d.groups[j].v, gids[j]);
      CHECK_EQ(d.group_seqs[j], std::uint64_t{50} + gids[j]);
    }
    CHECK_EQ(d.prev_chain, std::uint64_t{42});
  }
}

TEST(group_set_empty_is_legacy_layout) {
  // An empty destination set must encode byte-identically to the pre-group
  // wire layout: single-group deployments stay interoperable with old
  // frames, and the fixed 41-byte Data descriptor is load-bearing for that.
  const auto legacy = proto::encode(proto::Message(sample_data()));
  CHECK_EQ(legacy.size(), std::size_t{41});
  proto::DataMsg cleared = sample_grouped({1, 3});
  cleared.groups.clear();
  cleared.group_seqs = {};
  cleared.prev_chain = 0;
  CHECK(proto::encode(proto::Message(cleared)) == legacy);
  const auto decoded = proto::decode(legacy);
  CHECK(decoded.has_value());
  CHECK(decoded->data().groups.empty());
  CHECK_EQ(decoded->data().prev_chain, std::uint64_t{0});
}

TEST(group_set_malformed_rejected) {
  const auto bytes = proto::encode(proto::Message(sample_grouped({1, 3, 9})));
  // Truncation at every prefix of the extended frame fails cleanly — except
  // the one intentional boundary: cutting the whole group section leaves a
  // well-formed legacy frame (the section is optional by design).
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + cut);
    const auto decoded = proto::decode(prefix);
    if (cut == 41) {
      CHECK(decoded.has_value());
      if (decoded) CHECK(decoded->data().groups.empty());
      continue;
    }
    CHECK(!decoded.has_value());
  }
  // Trailing garbage after the chain link is rejected.
  auto padded = bytes;
  padded.push_back(0x00);
  CHECK(!proto::decode(padded).has_value());

  // The group section starts right after the 41-byte Data descriptor:
  // count byte at 41, first little-endian u32 gid at 42.
  const std::size_t kCount = 41;
  const std::size_t kFirstGid = 42;
  // Zero or oversized counts are invalid (present sections carry 1..4).
  auto zero_count = bytes;
  zero_count[kCount] = 0;
  CHECK(!proto::decode(zero_count).has_value());
  auto big_count = bytes;
  big_count[kCount] = 5;
  CHECK(!proto::decode(big_count).has_value());
  // Gids must be strictly increasing (canonical GroupSet order): raise the
  // first gid to equal, then exceed, the second.
  for (const std::uint8_t first : {std::uint8_t{3}, std::uint8_t{4}}) {
    auto unsorted = bytes;
    unsorted[kFirstGid] = first;
    CHECK(!proto::decode(unsorted).has_value());
  }
}

TEST(group_set_fuzz_mutation_safe) {
  const auto bytes = proto::encode(proto::Message(sample_grouped({2, 7, 11})));
  // Single-byte mutations anywhere in the frame must never crash the
  // decoder, and anything that still decodes must be structurally sane.
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      auto mutated = bytes;
      mutated[pos] = static_cast<std::uint8_t>(mutated[pos] ^ mask);
      const auto decoded = proto::decode(mutated);
      if (!decoded.has_value()) continue;
      if (decoded->type() != proto::MsgType::Data) continue;
      const auto& d = decoded->data();
      CHECK(d.groups.size() <= proto::kMaxDataGroups);
      for (std::size_t i = 1; i < d.groups.size(); ++i) {
        CHECK(d.groups[i - 1].v < d.groups[i].v);
      }
    }
  }
}

// --- DataBatch: ordered data in bulk ---------------------------------------

namespace {

proto::DataBatchMsg sample_batch() {
  proto::DataBatchMsg b;
  b.entries.push_back(sample_data());  // single-group: the legacy layout
  b.entries.push_back(sample_grouped({1, 3, 9}));
  proto::DataMsg full = sample_grouped({2, 4, 6, 8});  // largest body
  full.gseq += 1;
  full.prev_chain = 987654322ull;
  b.entries.push_back(full);
  return b;
}

bool same_wire_fields(const proto::DataMsg& a, const proto::DataMsg& b) {
  if (a.gid.v != b.gid.v || a.source.v != b.source.v || a.lseq != b.lseq ||
      a.ordering_node.v != b.ordering_node.v || a.gseq != b.gseq ||
      a.epoch != b.epoch || a.payload_size != b.payload_size ||
      a.groups.size() != b.groups.size() || a.prev_chain != b.prev_chain) {
    return false;
  }
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    if (a.groups[i].v != b.groups[i].v) return false;
    if (a.group_seqs[i] != b.group_seqs[i]) return false;
  }
  return true;
}

}  // namespace

TEST(data_batch_round_trip) {
  const proto::DataBatchMsg ref = sample_batch();
  const auto bytes = proto::encode(proto::Message(ref));
  CHECK_EQ(bytes[0], static_cast<std::uint8_t>(proto::MsgType::DataBatch));
  // The runtime's direct encoder writes the same bytes from its buffer.
  CHECK(proto::encode_batch(ref.entries.data(), ref.entries.size()) == bytes);
  const auto decoded = proto::decode(bytes);
  CHECK(decoded.has_value());
  CHECK(decoded->type() == proto::MsgType::DataBatch);
  const auto& got = decoded->batch().entries;
  CHECK_EQ(got.size(), ref.entries.size());
  for (std::size_t i = 0; i < got.size() && i < ref.entries.size(); ++i) {
    CHECK(same_wire_fields(got[i], ref.entries[i]));
  }
  CHECK(got[0].groups.empty());
  CHECK_EQ(got[2].groups.size(), proto::kMaxDataGroups);
  CHECK_EQ(got[2].prev_chain, 987654322ull);
  // A one-entry batch is the smallest legal frame.
  const proto::DataBatchMsg one{{sample_data()}};
  const auto small = proto::encode(proto::Message(one));
  CHECK_EQ(small.size(), std::size_t{1 + 2 + 1 + 40});
  CHECK(proto::decode(small).has_value());
}

TEST(data_batch_wire_size_matches_encode) {
  // Unlike a single Data frame, a batch is sized exactly as encoded: the
  // entries are descriptors and payload bytes are not modelled.
  const proto::DataBatchMsg b = sample_batch();
  CHECK_EQ(proto::wire_size(proto::Message(b)),
           proto::encode(proto::Message(b)).size());
  // The largest entry body is the full four-group descriptor.
  const proto::DataMsg& full = b.entries[2];
  CHECK_EQ(proto::encode(proto::Message(full)).size(),
           1 + proto::kMaxDataBodyBytes);
}

TEST(data_batch_malformed_rejected) {
  const auto bytes = proto::encode(proto::Message(sample_batch()));
  // Every strict prefix (a truncated last entry, a missing entry, a cut
  // count) is rejected, and so is a trailing byte.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + cut);
    CHECK(!proto::decode(prefix).has_value());
  }
  auto padded = bytes;
  padded.push_back(0x00);
  CHECK(!proto::decode(padded).has_value());

  // Count 0 is not a batch.
  const std::vector<std::uint8_t> empty = {
      static_cast<std::uint8_t>(proto::MsgType::DataBatch), 0, 0};
  CHECK(!proto::decode(empty).has_value());

  // Layout: tag, u16 count, then the first entry's length byte at offset 3
  // and its 40-byte single-group body.
  const std::size_t kFirstLen = 3;
  CHECK_EQ(bytes[kFirstLen], std::uint8_t{40});
  // A length that disagrees with its body: one short truncates the body,
  // one long swallows the next entry's length byte.
  for (const std::uint8_t len : {std::uint8_t{39}, std::uint8_t{41}}) {
    auto wrong = bytes;
    wrong[kFirstLen] = len;
    CHECK(!proto::decode(wrong).has_value());
  }

  // An entry slice with bytes left after a valid body: a full four-group
  // body (nothing may follow its chain link) plus one byte, with the
  // length claiming both.
  proto::DataMsg full = sample_grouped({2, 4, 6, 8});
  auto body = proto::encode(proto::Message(full));
  body.erase(body.begin());  // drop the Data tag
  std::vector<std::uint8_t> slack(4 + body.size() + 1, 0x00);
  slack[0] = static_cast<std::uint8_t>(proto::MsgType::DataBatch);
  slack[1] = 1;  // count, little-endian
  slack[3] = static_cast<std::uint8_t>(body.size() + 1);
  std::copy(body.begin(), body.end(), slack.begin() + 4);
  CHECK(!proto::decode(slack).has_value());
  // The same slice without the extra byte is fine.
  slack.pop_back();
  slack[3] = static_cast<std::uint8_t>(body.size());
  CHECK(proto::decode(slack).has_value());
}

TEST(data_batch_fuzz_mutation_safe) {
  const auto bytes = proto::encode(proto::Message(sample_batch()));
  // Single-byte mutations anywhere must never crash the decoder; a batch
  // that still decodes is canonical, so it re-encodes to the same bytes.
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      auto mutated = bytes;
      mutated[pos] = static_cast<std::uint8_t>(mutated[pos] ^ mask);
      const auto decoded = proto::decode(mutated);
      if (!decoded.has_value()) continue;
      if (decoded->type() != proto::MsgType::DataBatch) continue;
      const auto& entries = decoded->batch().entries;
      CHECK(!entries.empty());
      for (const auto& d : entries) {
        CHECK(d.groups.size() <= proto::kMaxDataGroups);
        for (std::size_t i = 1; i < d.groups.size(); ++i) {
          CHECK(d.groups[i - 1].v < d.groups[i].v);
        }
      }
      CHECK(proto::encode(*decoded) == mutated);
    }
  }
}

// --- CellFrame: one AP's chain data, each body once ------------------------

namespace {

proto::DataMsg cell_body(GlobalSeq gseq,
                         std::initializer_list<std::uint32_t> gids) {
  proto::DataMsg m = sample_grouped(gids);
  m.gseq = gseq;
  m.prev_chain = 0;  // the links carry the chain
  return m;
}

/// Three bodies (one with a full group section); member 10 links all three,
/// member 11 the first and last, member 12 the middle one.
proto::CellFrameMsg sample_cell() {
  proto::CellFrameMsg c;
  c.bodies.push_back(cell_body(100, {1, 3}));
  c.bodies.push_back(cell_body(104, {2, 4, 6, 8}));
  c.bodies.push_back(cell_body(107, {3}));
  const auto mh = [](std::uint32_t i) { return NodeId::make(Tier::MH, i); };
  c.members.push_back({mh(10), {{0, 0}, {1, 101}, {2, 105}}});
  c.members.push_back({mh(11), {{0, 42}, {2, 101}}});
  c.members.push_back({mh(12), {{1, 7}}});
  return c;
}

/// Offsets in sample_cell()'s encoding: tag, u16 body count, then per body
/// a length byte and the body.
constexpr std::size_t kCellFirstBodyLen = 3;

std::size_t cell_members_at(const std::vector<std::uint8_t>& bytes) {
  std::size_t at = kCellFirstBodyLen;
  for (int b = 0; b < 3; ++b) at += 1 + bytes[at];
  return at;  // the u16 member count
}

void put_u16(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint16_t v) {
  bytes[at] = static_cast<std::uint8_t>(v);
  bytes[at + 1] = static_cast<std::uint8_t>(v >> 8);
}

/// decode() rejects the bytes, and does not throw on the way.
bool rejects_cleanly(const std::vector<std::uint8_t>& bytes) {
  try {
    return !proto::decode(bytes).has_value();
  } catch (...) {
    return false;
  }
}

/// Every single-byte mutation of `bytes` (three masks per byte): decode()
/// never throws, and anything that still decodes re-encodes to the mutant.
void mutation_fuzz(const std::vector<std::uint8_t>& bytes) {
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      auto mutated = bytes;
      mutated[pos] = static_cast<std::uint8_t>(mutated[pos] ^ mask);
      bool threw = false;
      std::optional<proto::Message> decoded;
      try {
        decoded = proto::decode(mutated);
      } catch (...) {
        threw = true;
      }
      CHECK(!threw);
      if (decoded) CHECK(proto::encode(*decoded) == mutated);
    }
  }
}

}  // namespace

TEST(cell_frame_round_trip) {
  const proto::CellFrameMsg ref = sample_cell();
  const auto bytes = proto::encode(proto::Message(ref));
  CHECK_EQ(bytes[0], static_cast<std::uint8_t>(proto::MsgType::CellFrame));
  CHECK_EQ(proto::wire_size(proto::Message(ref)), bytes.size());
  const auto decoded = proto::decode(bytes);
  CHECK(decoded.has_value());
  if (!decoded) return;
  CHECK(decoded->type() == proto::MsgType::CellFrame);
  const proto::CellFrameMsg& got = decoded->cell();
  CHECK_EQ(got.bodies.size(), ref.bodies.size());
  for (std::size_t i = 0; i < got.bodies.size() && i < ref.bodies.size(); ++i) {
    CHECK(same_wire_fields(got.bodies[i], ref.bodies[i]));
  }
  CHECK_EQ(got.members.size(), ref.members.size());
  for (std::size_t i = 0; i < got.members.size() && i < ref.members.size();
       ++i) {
    CHECK_EQ(got.members[i].mh.v, ref.members[i].mh.v);
    CHECK_EQ(got.members[i].links.size(), ref.members[i].links.size());
    for (std::size_t k = 0; k < got.members[i].links.size() &&
                            k < ref.members[i].links.size();
         ++k) {
      CHECK_EQ(got.members[i].links[k].body, ref.members[i].links[k].body);
      CHECK_EQ(got.members[i].links[k].prev_chain,
               ref.members[i].links[k].prev_chain);
    }
  }
  // Each body is on the wire once: three bodies, six links. A body takes
  // its length byte and its encoding, as many bytes as a Data frame of it.
  std::size_t body_bytes = 0;
  for (const auto& b : ref.bodies) {
    body_bytes += proto::encode(proto::Message(b)).size();
  }
  CHECK_EQ(bytes.size(), proto::kCellFrameFixedBytes + body_bytes +
                             3 * proto::kCellMemberBytes +
                             6 * proto::kCellLinkBytes);
}

TEST(cell_frame_malformed_rejected) {
  const auto bytes = proto::encode(proto::Message(sample_cell()));
  CHECK(proto::decode(bytes).has_value());
  // Truncation at every prefix, and a trailing byte.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + cut);
    CHECK(rejects_cleanly(prefix));
  }
  auto padded = bytes;
  padded.push_back(0x00);
  CHECK(rejects_cleanly(padded));

  const std::size_t members_at = cell_members_at(bytes);
  CHECK_EQ(members_at + 2 + 3 * proto::kCellMemberBytes +
               6 * proto::kCellLinkBytes,
           bytes.size());
  // Member 10: id at +2, link count at +6, links at +8 (u16 body, u64
  // prev); member 11 starts at +8 + 3 * 10.
  const std::size_t m10 = members_at + 2;
  const std::size_t m11 = m10 + proto::kCellMemberBytes +
                          3 * proto::kCellLinkBytes;

  // No bodies.
  auto no_bodies = bytes;
  put_u16(no_bodies, 1, 0);
  CHECK(rejects_cleanly(no_bodies));
  // No members: a frame that ends after its bodies with member count 0.
  std::vector<std::uint8_t> no_members(bytes.begin(),
                                       bytes.begin() + members_at + 2);
  put_u16(no_members, members_at, 0);
  CHECK(rejects_cleanly(no_members));
  // A member with no links.
  auto no_links = bytes;
  put_u16(no_links, m10 + 4, 0);
  CHECK(rejects_cleanly(no_links));
  // A body index out of range (three bodies: 0..2).
  auto out_of_range = bytes;
  put_u16(out_of_range, m10 + proto::kCellMemberBytes +
                            2 * proto::kCellLinkBytes,
          3);
  CHECK(rejects_cleanly(out_of_range));
  // A member's body indices must rise: member 10 links 0, 1, 2; make the
  // second link repeat body 0.
  auto repeated_link = bytes;
  put_u16(repeated_link, m10 + proto::kCellMemberBytes + proto::kCellLinkBytes,
          0);
  CHECK(rejects_cleanly(repeated_link));
  // A repeated member: member 11 renamed to member 10.
  auto repeated_member = bytes;
  std::copy(bytes.begin() + m10, bytes.begin() + m10 + 4,
            repeated_member.begin() + m11);
  CHECK(rejects_cleanly(repeated_member));
  // A body that does not parse to its stated length: one byte short cuts
  // its chain link, one long swallows the next body's length byte.
  for (const int delta : {-1, 1}) {
    auto wrong = bytes;
    wrong[kCellFirstBodyLen] =
        static_cast<std::uint8_t>(wrong[kCellFirstBodyLen] + delta);
    CHECK(rejects_cleanly(wrong));
  }
  // A body with a nonzero chain link of its own.
  auto own_link = bytes;
  const std::size_t first_len = bytes[kCellFirstBodyLen];
  own_link[kCellFirstBodyLen + first_len] = 1;  // low byte of its link
  CHECK(rejects_cleanly(own_link));
  // A body with no group section: a single-group descriptor.
  proto::CellFrameMsg plain = sample_cell();
  plain.bodies[2] = sample_data();
  const auto plain_bytes = proto::encode(proto::Message(plain));
  CHECK(rejects_cleanly(plain_bytes));
  plain.bodies[2] = cell_body(107, {3});
  CHECK(proto::decode(proto::encode(proto::Message(plain))).has_value());
}

TEST(cell_frame_fuzz_mutation_safe) {
  mutation_fuzz(proto::encode(proto::Message(sample_cell())));
}

TEST(split_cell_gives_each_member_its_stamped_batch) {
  const proto::CellFrameMsg cell = sample_cell();
  const auto bytes = proto::encode(proto::Message(cell));
  const auto batches = proto::split_cell(bytes.data(), bytes.size());
  CHECK(batches.has_value());
  if (!batches) return;
  CHECK_EQ(batches->size(), cell.members.size());
  for (std::size_t i = 0; i < batches->size() && i < cell.members.size();
       ++i) {
    const auto& mem = cell.members[i];
    std::vector<proto::DataMsg> entries;
    for (const auto& link : mem.links) {
      entries.push_back(cell.bodies[link.body]);
      entries.back().prev_chain = link.prev_chain;
    }
    CHECK_EQ((*batches)[i].mh.v, mem.mh.v);
    CHECK((*batches)[i].payload ==
          proto::encode_batch(entries.data(), entries.size()));
    // Never larger than the frame it came from.
    CHECK((*batches)[i].payload.size() < bytes.size());
  }
  // Not a CellFrame, or not a valid one: nothing to split.
  const auto batch = proto::encode(proto::Message(sample_batch()));
  CHECK(!proto::split_cell(batch.data(), batch.size()).has_value());
  const std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 1);
  CHECK(!proto::split_cell(cut.data(), cut.size()).has_value());
}

// --- Bundle: several messages in one datagram ------------------------------

namespace {

/// What a follower BR sends the next BR in one call: a token ack, its
/// batch, then the token; plus a member's ack.
proto::BundleMsg sample_bundle() {
  proto::BundleMsg b;
  b.parts.emplace_back(proto::TokenAckMsg{NodeId::make(Tier::BR, 1), 3, 4});
  b.parts.emplace_back(sample_batch());
  proto::OrderingToken t(GroupId{1}, 2);
  t.set_serial(3);
  t.append_range(NodeId::make(Tier::BR, 0), NodeId{5}, 10, 14);
  t.set_group_seq(GroupId{2}, 9);
  b.parts.emplace_back(t);
  b.parts.emplace_back(
      proto::DeliveryAckMsg{GroupId{1}, NodeId::make(Tier::MH, 4), 77});
  return b;
}

/// A Bundle's wire form written by hand: the tag, `count`, then each part's
/// u16 length and bytes.
std::vector<std::uint8_t> raw_bundle(
    const std::vector<std::vector<std::uint8_t>>& parts, std::uint16_t count) {
  proto::WireWriter w;
  w.u8(static_cast<std::uint8_t>(proto::MsgType::Bundle));
  w.u16(count);
  for (const auto& p : parts) {
    w.u16(static_cast<std::uint16_t>(p.size()));
    w.raw(p.data(), p.size());
  }
  return w.take();
}

std::vector<std::uint8_t> ack_bytes(GlobalSeq wm) {
  return proto::encode(proto::Message(
      proto::DeliveryAckMsg{GroupId{1}, NodeId::make(Tier::MH, 2), wm}));
}

}  // namespace

TEST(bundle_round_trip) {
  const proto::BundleMsg ref = sample_bundle();
  const auto bytes = proto::encode(proto::Message(ref));
  CHECK_EQ(bytes[0], static_cast<std::uint8_t>(proto::MsgType::Bundle));
  CHECK_EQ(proto::wire_size(proto::Message(ref)), bytes.size());
  std::vector<std::vector<std::uint8_t>> want;
  for (const proto::Message& m : ref.parts) want.push_back(proto::encode(m));
  CHECK(raw_bundle(want, static_cast<std::uint16_t>(want.size())) == bytes);

  const auto decoded = proto::decode(bytes);
  CHECK(decoded.has_value());
  if (!decoded) return;
  CHECK(decoded->type() == proto::MsgType::Bundle);
  const auto& parts = decoded->bundle().parts;
  CHECK_EQ(parts.size(), want.size());
  for (std::size_t i = 0; i < parts.size() && i < want.size(); ++i) {
    CHECK(parts[i].type() == ref.parts[i].type());
    CHECK(proto::encode(parts[i]) == want[i]);
  }
  // decode then encode reproduces the bundle's bytes.
  CHECK(proto::encode(*decoded) == bytes);

  // A relay's view: each slice is one part's encoding.
  const auto slices = proto::bundle_parts(bytes.data(), bytes.size());
  CHECK(slices.has_value());
  if (slices) {
    CHECK_EQ(slices->size(), want.size());
    for (std::size_t i = 0; i < slices->size() && i < want.size(); ++i) {
      const auto& sl = (*slices)[i];
      CHECK(std::vector<std::uint8_t>(sl.data, sl.data + sl.size) == want[i]);
    }
  }
  // The sender's packer writes the same bytes when everything fits.
  const auto packed = proto::pack_bundles(want, bytes.size());
  CHECK_EQ(packed.size(), 1u);
  if (!packed.empty()) CHECK(packed[0] == bytes);
}

TEST(bundle_malformed_rejected) {
  const auto ack = ack_bytes(5);
  const auto tack = proto::encode(
      proto::Message(proto::TokenAckMsg{NodeId::make(Tier::BR, 0), 1, 2}));
  const auto good = raw_bundle({ack, tack}, 2);
  CHECK(proto::decode(good).has_value());
  CHECK(proto::bundle_parts(good.data(), good.size()).has_value());
  const auto both_reject = [](const std::vector<std::uint8_t>& bytes) {
    return rejects_cleanly(bytes) &&
           !proto::bundle_parts(bytes.data(), bytes.size()).has_value();
  };
  // A count below two: one message travels unwrapped.
  CHECK(both_reject(raw_bundle({ack}, 1)));
  CHECK(both_reject(raw_bundle({}, 0)));
  // A count that disagrees with the parts.
  CHECK(both_reject(raw_bundle({ack, tack}, 3)));
  CHECK(both_reject(raw_bundle({ack, tack, ack}, 2)));
  // No nesting.
  CHECK(both_reject(raw_bundle({ack, good}, 2)));
  // A zero-length part.
  CHECK(both_reject(raw_bundle({ack, {}}, 2)));
  CHECK(both_reject(raw_bundle({{}, ack}, 2)));
  // A part that does not decode to exactly its length: one byte long, one
  // byte short, or not a message at all. The framing is sound, so only
  // decode() rejects these.
  auto longer = ack;
  longer.push_back(0);
  auto shorter = ack;
  shorter.pop_back();
  auto bogus = ack;
  bogus[0] = 0x7F;
  for (const auto& part : {longer, shorter, bogus}) {
    const auto bytes = raw_bundle({tack, part}, 2);
    CHECK(rejects_cleanly(bytes));
    CHECK(proto::bundle_parts(bytes.data(), bytes.size()).has_value());
  }
  // A trailing byte.
  auto padded = good;
  padded.push_back(0);
  CHECK(both_reject(padded));
  // Truncation at every offset, of a bundle with every kind of part.
  const auto full = proto::encode(proto::Message(sample_bundle()));
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(), full.begin() + cut);
    CHECK(both_reject(prefix));
  }
  // Not a bundle at all.
  CHECK(!proto::bundle_parts(ack.data(), ack.size()).has_value());
}

TEST(bundle_fuzz_mutation_safe) {
  mutation_fuzz(proto::encode(proto::Message(sample_bundle())));
}

TEST(pack_bundles_fills_each_payload_up_to_the_budget) {
  // Five 17-byte acks under a budget that holds two of them in a bundle
  // (3 + 2 * (2 + 17) = 41 bytes): two bundles of two, then the last ack
  // unwrapped. Order is kept throughout.
  std::vector<std::vector<std::uint8_t>> parts;
  for (GlobalSeq wm = 0; wm < 5; ++wm) parts.push_back(ack_bytes(wm));
  CHECK_EQ(parts[0].size(), 17u);
  const auto packed = proto::pack_bundles(parts, 41);
  CHECK_EQ(packed.size(), 3u);
  GlobalSeq next = 0;
  for (const auto& payload : packed) {
    CHECK(payload.size() <= 41);
    const auto msg = proto::decode(payload);
    CHECK(msg.has_value());
    if (!msg) continue;
    if (msg->type() == proto::MsgType::DeliveryAck) {
      CHECK_EQ(msg->ack().watermark, next++);
      continue;
    }
    CHECK_EQ(msg->bundle().parts.size(), 2u);
    for (const proto::Message& m : msg->bundle().parts) {
      CHECK_EQ(m.ack().watermark, next++);
    }
  }
  CHECK_EQ(next, 5u);
  CHECK(packed.back() == parts.back());
  // One byte less and every ack goes alone; a single part is never wrapped.
  CHECK_EQ(proto::pack_bundles(parts, 40).size(), 5u);
  const auto one = proto::pack_bundles({parts[0]}, 1000);
  CHECK_EQ(one.size(), 1u);
  if (!one.empty()) CHECK(one[0] == parts[0]);
  CHECK(proto::pack_bundles({}, 1000).empty());
}

// --- counts read off the wire ----------------------------------------------

TEST(huge_wire_counts_reject_without_throwing) {
  // A count of 0xFFFFFFFF with a few bytes behind it: the decoder must
  // bound its reservation by the bytes left, run out of them and return
  // nullopt, not try to reserve for four billion elements.
  const std::vector<std::uint8_t> all_ones = {0xFF, 0xFF, 0xFF, 0xFF};
  proto::MembershipMsg m;
  auto membership = proto::encode(proto::Message(m));  // count 0 at the end
  std::copy(all_ones.begin(), all_ones.end(), membership.end() - 4);
  membership.insert(membership.end(), {1, 2, 3, 4});
  CHECK_EQ(membership.size(), std::size_t{17});
  CHECK(rejects_cleanly(membership));

  proto::OrderingToken t(GroupId{1}, 1);
  auto entries = proto::encode(proto::Message(t));  // entry count at the end
  std::copy(all_ones.begin(), all_ones.end(), entries.end() - 4);
  entries.insert(entries.end(), {1, 2, 3, 4});
  CHECK_EQ(entries.size(), std::size_t{45});
  CHECK(rejects_cleanly(entries));

  t.set_group_seq(GroupId{2}, 5);
  auto counters = proto::encode(proto::Message(t));
  // The counter section: u32 count, then (u32 gid, u64 next) per group.
  const std::size_t count_at = counters.size() - 4 - 12;
  std::copy(all_ones.begin(), all_ones.end(), counters.begin() + count_at);
  CHECK(rejects_cleanly(counters));
}

TEST(token_and_membership_fuzz_mutation_safe) {
  proto::OrderingToken t(GroupId{1}, 3);
  t.append_range(NodeId::make(Tier::BR, 0), NodeId{9}, 0, 4);
  t.append_range(NodeId::make(Tier::BR, 1), NodeId{4}, 2, 3);
  t.set_group_seq(GroupId{2}, 10);
  t.set_group_seq(GroupId{5}, 42);
  mutation_fuzz(proto::encode(proto::Message(t)));

  proto::MembershipMsg m;
  m.gid = GroupId{1};
  m.origin = NodeId::make(Tier::AP, 1);
  m.events.push_back({NodeId::make(Tier::MH, 1), NodeId::make(Tier::AP, 2)});
  m.events.push_back({NodeId::make(Tier::MH, 3), NodeId::invalid()});
  mutation_fuzz(proto::encode(proto::Message(m)));
}

TEST(token_group_counters_round_trip) {
  proto::OrderingToken t(GroupId{1}, 3);
  t.append_range(NodeId::make(Tier::BR, 0), NodeId{9}, 0, 4);
  t.set_group_seq(GroupId{5}, 42);
  t.set_group_seq(GroupId{2}, 10);
  CHECK_EQ(t.bump_group_seq(GroupId{2}), std::uint64_t{10});
  CHECK_EQ(t.group_seq(GroupId{2}), std::uint64_t{11});
  const auto bytes = proto::encode(proto::Message(t));
  CHECK_EQ(proto::wire_size(proto::Message(t)), bytes.size());
  const auto decoded = proto::decode(bytes);
  CHECK(decoded.has_value());
  CHECK(decoded->type() == proto::MsgType::Token);
  const auto& rt = decoded->token();
  CHECK_EQ(rt.group_counters().size(), std::size_t{2});
  CHECK_EQ(rt.group_seq(GroupId{2}), std::uint64_t{11});
  CHECK_EQ(rt.group_seq(GroupId{5}), std::uint64_t{42});
  CHECK_EQ(rt.group_seq(GroupId{99}), std::uint64_t{0});
}

TEST_MAIN()
