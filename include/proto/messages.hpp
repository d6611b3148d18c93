#pragma once
// Wire-level protocol messages. The protocol's control vocabulary follows
// the paper: DataMsg multicast payload descriptors, the OrderingToken with
// its WTSNP table (With-Timestamp-Sequence-Number-Pairs: which ordering
// node mapped which (source, local-seq) range to which global sequence),
// delivery acks, membership updates and heartbeats. encode()/decode() give
// a length-checked little-endian codec; decode returns nullopt on any
// truncated or corrupt buffer instead of reading out of bounds.

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/types.hpp"
#include "proto/group_set.hpp"
#include "sim/time.hpp"

namespace ringnet::proto {

// ---------------------------------------------------------------------------
// Wire reader/writer

// Fixed-width fields are little-endian on the wire and copied whole, so the
// codec only builds where that is the native order.
static_assert(std::endian::native == std::endian::little,
              "the wire codec stores and loads fields in native byte order");

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append(v); }
  void u32(std::uint32_t v) { append(v); }
  void u64(std::uint64_t v) { append(v); }
  void node(NodeId id) { u32(id.v); }
  void raw(const std::uint8_t* p, std::size_t n) {
    buf_.insert(buf_.end(), p, p + n);
  }
  void reserve(std::size_t n) { buf_.reserve(n); }

  std::size_t size() const { return buf_.size(); }
  const std::uint8_t* data() const { return buf_.data(); }
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <typename T>
  void append(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof v);
    std::memcpy(buf_.data() + at, &v, sizeof v);
  }
  std::vector<std::uint8_t> buf_;
};

class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  std::optional<std::uint8_t> u8() { return read<std::uint8_t>(); }
  std::optional<std::uint16_t> u16() { return read<std::uint16_t>(); }
  std::optional<std::uint32_t> u32() { return read<std::uint32_t>(); }
  std::optional<std::uint64_t> u64() { return read<std::uint64_t>(); }
  std::optional<NodeId> node() {
    const auto v = u32();
    if (!v) return std::nullopt;
    return NodeId{*v};
  }

  /// Borrow the next `n` bytes and step past them; nullptr when fewer
  /// remain. The slice lives as long as the underlying buffer.
  const std::uint8_t* take(std::size_t n) {
    if (size_ - pos_ < n) return nullptr;
    const std::uint8_t* at = data_ + pos_;
    pos_ += n;
    return at;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  template <typename T>
  std::optional<T> read() {
    if (size_ - pos_ < sizeof(T)) return std::nullopt;
    T v = 0;
    std::memcpy(&v, data_ + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Message kinds

enum class MsgType : std::uint8_t {
  Data = 1,
  Token = 2,
  DeliveryAck = 3,
  Membership = 4,
  Heartbeat = 5,
  TokenAck = 6,
  DataBatch = 7,
  CellFrame = 8,
  Bundle = 9,
};

/// Destination-group cap for one data message. The wire extension stores a
/// per-group sequence next to every destination gid; four keeps that block
/// (and the in-memory stamp array) fixed-size without a heap spill.
constexpr std::size_t kMaxDataGroups = 4;

/// A multicast payload descriptor. `gseq`/`ordering_node`/`epoch` are
/// unassigned (zero / invalid) until the message passes through the token
/// holder's Message-Ordering step.
struct DataMsg {
  GroupId gid;
  NodeId source;
  LocalSeq lseq = 0;
  NodeId ordering_node = NodeId::invalid();
  GlobalSeq gseq = 0;
  std::uint64_t epoch = 0;
  std::uint32_t payload_size = 0;
  // Multi-group extension. An empty `groups` is the single-group degenerate
  // case and encodes byte-identically to the pre-group wire layout; a
  // non-empty set (at most kMaxDataGroups) appends a strictly-validated
  // trailing section: the destination set, one per-group sequence number
  // per destination (parallel to `groups`, stamped by the token holder),
  // and the per-member delivery chain link.
  GroupSet groups;
  std::array<std::uint64_t, kMaxDataGroups> group_seqs{};
  // Delivery chain: gseq+1 of the previous message the sending BR forwarded
  // to this member (0 = chain head). Stamped per downlink send, so a member
  // can tell an intentional hole (a gseq it is no destination of) from a
  // lost frame without ring-wide state.
  GlobalSeq prev_chain = 0;
  // Simulator-side bookkeeping, never serialized: stamped at submit(), read
  // by the assignment and end-to-end latency histograms.
  sim::SimTime submit_at = sim::SimTime::zero();
  // Message-lifecycle span stamps (never serialized; same piggyback
  // pattern as submit_at): uplink arrival at the ordering BR, gseq
  // assignment at the token pass, and ordered arrival at the delivering
  // member's BR (stamped by its MQ's store). The sim's deliver_at_mh()
  // turns consecutive stamps into per-stage latencies when span recording
  // is enabled.
  sim::SimTime uplink_rx_at = sim::SimTime::zero();
  sim::SimTime assigned_at = sim::SimTime::zero();
  sim::SimTime relay_rx_at = sim::SimTime::zero();
};

/// Largest encoded DataMsg body: the 40-byte descriptor plus a full
/// multi-group section (count byte, gids, per-group seqs, chain link).
constexpr std::size_t kMaxDataBodyBytes = 40 + 1 + kMaxDataGroups * 12 + 8;

/// Ordered data in bulk: everything one runtime handler call sends to one
/// destination, in send order. Wire form: u16 count (>= 1), then per entry
/// a u8 body length and a DataMsg body that must parse to exactly that
/// length. Plain Data frames carry uplink submissions only.
struct DataBatchMsg {
  std::vector<DataMsg> entries;
};

/// Multi-group chain data for one AP's cell: everything one BR handler call
/// sends to the chain members behind that AP. Each DataMsg body travels
/// once; each destined member lists its entries as links, in send order.
/// The AP sends member `mh` one DataBatch: for each link, bodies[body] with
/// prev_chain set to the link's.
///
/// Wire form: u16 body count (>= 1), then per body a u8 length and a
/// DataMsg body with a group section and a zero chain link, which must parse
/// to exactly that length; then u16 member count (>= 1), and per member its
/// u32 NodeId, a u16 link count (>= 1) and per link a u16 body index and a
/// u64 prev_chain. Strict: members are distinct, and each member's body
/// indices are in range and strictly increasing, so the batch the AP builds
/// for one member is never larger than the frame it came from.
struct CellFrameMsg {
  struct Link {
    std::uint16_t body = 0;
    GlobalSeq prev_chain = 0;
  };
  struct Member {
    NodeId mh;
    std::vector<Link> links;
  };
  std::vector<DataMsg> bodies;
  std::vector<Member> members;
};

/// CellFrame sizes, for a sender that splits at a byte budget: the tag and
/// both counts, each member's id and link count, and each link.
constexpr std::size_t kCellFrameFixedBytes = 1 + 2 + 2;
constexpr std::size_t kCellMemberBytes = 4 + 2;
constexpr std::size_t kCellLinkBytes = 2 + 8;

/// Periodic delivery watermark from an MH up its tree path: "I have
/// delivered every global sequence number <= watermark".
struct DeliveryAckMsg {
  GroupId gid;
  NodeId member;
  GlobalSeq watermark = 0;
};

/// Batched membership delta relayed around the top ring.
struct MembershipMsg {
  GroupId gid;
  NodeId origin;
  struct Event {
    NodeId mh;
    NodeId ap;  // invalid() == detach
  };
  std::vector<Event> events;
};

struct HeartbeatMsg {
  NodeId from;
  std::uint64_t beat = 0;
};

/// Per-hop receipt for a token frame. The simulator's channels deliver (or
/// lose) frames atomically so the sim never needs one, but the socket
/// runtime's token-forward ARQ does: the sender retransmits the token every
/// retx_timeout until the next ring node acknowledges (serial, rotation).
struct TokenAckMsg {
  NodeId from;
  std::uint64_t serial = 0;
  std::uint64_t rotation = 0;
};

// ---------------------------------------------------------------------------
// Ordering token (WTSNP)

/// One WTSNP table row: ordering node `ordering_node` assigned sources
/// `source`'s local sequences [first, last] the global range starting at
/// `gseq_first`.
struct WtsnpEntry {
  NodeId ordering_node;
  NodeId source;
  LocalSeq first = 0;
  LocalSeq last = 0;
  GlobalSeq gseq_first = 0;
};

class OrderingToken {
 public:
  OrderingToken() = default;
  OrderingToken(GroupId gid, std::uint64_t epoch) : gid_(gid), epoch_(epoch) {}

  GroupId gid() const { return gid_; }
  std::uint64_t epoch() const { return epoch_; }
  GlobalSeq next_gseq() const { return next_gseq_; }
  void set_next_gseq(GlobalSeq g) { next_gseq_ = g; }
  std::uint64_t rotation() const { return rotation_; }
  void bump_rotation() { ++rotation_; }
  std::uint64_t serial() const { return serial_; }
  void set_serial(std::uint64_t s) { serial_ = s; }

  const std::vector<WtsnpEntry>& entries() const { return entries_; }

  /// Record that `ordering_node` assigned `source`'s [first, last] the next
  /// (last - first + 1) global sequence numbers. Returns the first global
  /// sequence of the range.
  GlobalSeq append_range(NodeId ordering_node, NodeId source, LocalSeq first,
                         LocalSeq last);

  /// Drop every entry appended by `ordering_node`. Called when the token
  /// returns to that node: by then the entry has completed a full rotation
  /// and every ring member has seen it (the paper's WTSNP recycling rule).
  void prune_entries_of(NodeId ordering_node);

  /// Global sequence assigned to (source, lseq), if still tabled.
  std::optional<GlobalSeq> lookup(NodeId source, LocalSeq lseq) const;

  /// Per-group sequencer counters (multi-group mode): the token carries one
  /// next-sequence counter per group that has ever been a destination, so
  /// per-group numbering survives token hops exactly like next_gseq does.
  /// Empty in single-group mode (legacy wire layout). Returns the assigned
  /// (current) value and advances the counter.
  std::uint64_t bump_group_seq(GroupId g);
  /// Current next-sequence for `g` without advancing (0 when untracked).
  std::uint64_t group_seq(GroupId g) const;
  /// Restore a counter (token regeneration from the custodian's high-water
  /// marks). Keeps the table sorted by gid.
  void set_group_seq(GroupId g, std::uint64_t next);
  const std::vector<std::pair<GroupId, std::uint64_t>>& group_counters()
      const {
    return group_counters_;
  }

  void serialize(WireWriter& w) const;
  static std::optional<OrderingToken> deserialize(WireReader& r);

 private:
  GroupId gid_;
  std::uint64_t epoch_ = 0;
  std::uint64_t serial_ = 0;    // regeneration lineage (duplicate detection)
  std::uint64_t rotation_ = 0;  // completed trips around the ring
  GlobalSeq next_gseq_ = 0;
  std::vector<WtsnpEntry> entries_;
  // Sorted by gid; empty unless multi-group assignment has run.
  std::vector<std::pair<GroupId, std::uint64_t>> group_counters_;
};

// ---------------------------------------------------------------------------
// Message envelope + codec

class Message;

/// Several messages in one datagram: what one runtime handler call sends to
/// one next hop, when that is more than one message. Parts are handled in
/// order. Wire form: u16 part count (>= 2), then per part a u16 length
/// (>= 1) and exactly that many bytes, which must decode as one message
/// that is not itself a Bundle. Strict: no nesting and no trailing bytes.
struct BundleMsg {
  std::vector<Message> parts;
};

class Message {
 public:
  using Body = std::variant<DataMsg, OrderingToken, DeliveryAckMsg,
                            MembershipMsg, HeartbeatMsg, TokenAckMsg,
                            DataBatchMsg, CellFrameMsg, BundleMsg>;

  Message(DataMsg m) : body_(std::move(m)) {}                 // NOLINT
  Message(OrderingToken m) : body_(std::move(m)) {}           // NOLINT
  Message(DeliveryAckMsg m) : body_(std::move(m)) {}          // NOLINT
  Message(MembershipMsg m) : body_(std::move(m)) {}           // NOLINT
  Message(HeartbeatMsg m) : body_(std::move(m)) {}            // NOLINT
  Message(TokenAckMsg m) : body_(std::move(m)) {}             // NOLINT
  Message(DataBatchMsg m) : body_(std::move(m)) {}            // NOLINT
  Message(CellFrameMsg m) : body_(std::move(m)) {}            // NOLINT
  Message(BundleMsg m) : body_(std::move(m)) {}               // NOLINT

  MsgType type() const;
  const Body& body() const { return body_; }

  const DataMsg& data() const { return std::get<DataMsg>(body_); }
  const OrderingToken& token() const { return std::get<OrderingToken>(body_); }
  const DeliveryAckMsg& ack() const { return std::get<DeliveryAckMsg>(body_); }
  const MembershipMsg& membership() const {
    return std::get<MembershipMsg>(body_);
  }
  const HeartbeatMsg& heartbeat() const {
    return std::get<HeartbeatMsg>(body_);
  }
  const TokenAckMsg& token_ack() const {
    return std::get<TokenAckMsg>(body_);
  }
  const DataBatchMsg& batch() const { return std::get<DataBatchMsg>(body_); }
  const CellFrameMsg& cell() const { return std::get<CellFrameMsg>(body_); }
  const BundleMsg& bundle() const { return std::get<BundleMsg>(body_); }

 private:
  Body body_;
};

std::vector<std::uint8_t> encode(const Message& msg);
std::optional<Message> decode(const std::vector<std::uint8_t>& bytes);
/// Datagram form: decode straight out of a receive buffer without copying
/// into a vector first. Same contract: nullopt on truncation, trailing
/// bytes, or any corrupt field — never reads out of bounds.
std::optional<Message> decode(const std::uint8_t* data, std::size_t size);

/// DataBatch payload for `n` (1..65535) entries starting at `entries`,
/// encoded straight from the caller's buffer; encode() on a DataBatchMsg
/// produces the same bytes.
std::vector<std::uint8_t> encode_batch(const DataMsg* entries, std::size_t n);

/// One member's entry in a sender's queued cell data: the index of its
/// body among the queued bodies, the member, and the member's chain link.
struct CellLink {
  std::size_t body = 0;
  NodeId mh;
  GlobalSeq prev_chain = 0;
};

/// Pack queued cell data into CellFrame payloads of at most `max_bytes`
/// each: `bodies` in order, each with its `links` (grouped by body, in body
/// order, each member at most once per body). A frame ends only where the
/// next body and its links would not fit; a body with more links than a
/// whole frame holds goes on in the next one.
std::vector<std::vector<std::uint8_t>> pack_cells(
    const std::vector<DataMsg>& bodies, const std::vector<CellLink>& links,
    std::size_t max_bytes);

/// One member's share of a CellFrame: the DataBatch payload its AP sends it.
struct MemberBatch {
  NodeId mh;
  std::vector<std::uint8_t> payload;
};

/// Split a CellFrame payload the way an AP does: for each member, in frame
/// order, the DataBatch of its entries stamped with its links, byte for
/// byte encode_batch() of them. nullopt when decode() rejects the payload
/// or it is not a CellFrame.
std::optional<std::vector<MemberBatch>> split_cell(const std::uint8_t* data,
                                                   std::size_t size);

/// One part of a Bundle: a slice of the buffer the bundle was read from.
struct BundlePart {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

/// A Bundle payload's parts, in order, without decoding them: nullopt when
/// the payload is not a Bundle or its framing is not as decode() requires
/// (count, lengths, no part tagged Bundle, nothing trailing). Lets a relay
/// route each part by its tag; decode() also checks every part's body.
std::optional<std::vector<BundlePart>> bundle_parts(const std::uint8_t* data,
                                                    std::size_t size);

/// Pack encoded messages, in order, into datagram payloads of at most
/// `max_bytes` each: as many to a payload as fit. A payload of one message
/// is that message's own bytes, one of several a Bundle. Each message must
/// be non-empty, not a Bundle, and fit `max_bytes` on its own.
std::vector<std::vector<std::uint8_t>> pack_bundles(
    std::vector<std::vector<std::uint8_t>> parts, std::size_t max_bytes);

/// Wire size of a message without materializing the buffer (used by the
/// simulator to charge link serialization time). A DataBatch or CellFrame
/// is sized exactly as encoded; a single Data frame also counts its payload
/// bytes, and a Bundle is its framing plus the wire size of each part.
std::size_t wire_size(const Message& msg);

}  // namespace ringnet::proto
