// Codec round-trips for every message kind, plus malformed-input safety:
// decode() must reject truncation, trailing garbage and unknown tags
// rather than mis-parse.

#include <algorithm>

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
  // The zero-copy view reads the same counter section in place.
  const auto view = proto::TokenView::parse(bytes.data() + 1, bytes.size() - 1);
  CHECK(view.has_value());
  CHECK_EQ(view->group_counter_count(), std::size_t{2});
  CHECK_EQ(view->group_counter(0).first.v, std::uint32_t{2});
  CHECK_EQ(view->group_counter(0).second, std::uint64_t{11});
  CHECK_EQ(view->group_counter(1).first.v, std::uint32_t{5});
  CHECK_EQ(view->group_counter(1).second, std::uint64_t{42});
}

TEST_MAIN()
