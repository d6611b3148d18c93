#pragma once
// Wire-level protocol messages. The protocol's control vocabulary follows
// the paper: DataMsg multicast payload descriptors, the OrderingToken with
// its WTSNP table (With-Timestamp-Sequence-Number-Pairs: which ordering
// node mapped which (source, local-seq) range to which global sequence),
// delivery acks, membership updates and heartbeats. encode()/decode() give
// a length-checked little-endian codec; decode returns nullopt on any
// truncated or corrupt buffer instead of reading out of bounds.

#include <array>
#include <cstdint>
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

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append(v); }
  void u32(std::uint32_t v) { append(v); }
  void u64(std::uint64_t v) { append(v); }
  void node(NodeId id) { u32(id.v); }
  void reserve(std::size_t n) { buf_.reserve(n); }

  std::size_t size() const { return buf_.size(); }
  const std::uint8_t* data() const { return buf_.data(); }
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <typename T>
  void append(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
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
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
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
  // Simulator-side bookkeeping, never serialized: stamped at submit() so
  // latency accounting reads the message instead of the (possibly remote)
  // source's submit log.
  sim::SimTime submit_at = sim::SimTime::zero();
  // Message-lifecycle span stamps (sim only, never serialized; same
  // piggyback pattern as submit_at): uplink arrival at the ordering BR,
  // gseq assignment at the token pass, and ordered arrival at the
  // delivering member's BR. deliver_at_mh() turns consecutive stamps into
  // per-stage latencies when span recording is enabled.
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
  void set_epoch(std::uint64_t e) { epoch_ = e; }
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

/// Zero-copy view over a serialized OrderingToken body. parse() validates
/// the length once; header fields are decoded eagerly but the WTSNP rows
/// stay in the borrowed buffer and are read in place on demand, so a
/// relay/lookup pass over a token frame never materializes a
/// vector<WtsnpEntry>. The view borrows the buffer: it must not outlive it.
class TokenView {
 public:
  /// Parse a token *body* (the layout OrderingToken::serialize writes,
  /// without the 1-byte envelope tag). nullopt on truncation or a row
  /// count that disagrees with the buffer length. A trailing per-group
  /// counter section (multi-group mode) is length-validated here and read
  /// on demand via group_counter().
  static std::optional<TokenView> parse(const std::uint8_t* data,
                                        std::size_t size);
  static std::optional<TokenView> parse(const std::vector<std::uint8_t>& buf) {
    return parse(buf.data(), buf.size());
  }

  GroupId gid() const { return gid_; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t serial() const { return serial_; }
  std::uint64_t rotation() const { return rotation_; }
  GlobalSeq next_gseq() const { return next_gseq_; }
  std::size_t entry_count() const { return entry_count_; }

  /// Decode row `i` in place (no bounds check beyond the parse-time one).
  WtsnpEntry entry(std::size_t i) const;

  /// Same newest-first supersession rule as OrderingToken::lookup, without
  /// deserializing the table.
  std::optional<GlobalSeq> lookup(NodeId source, LocalSeq lseq) const;

  /// Per-group counter section (0 entries on a legacy-layout token).
  std::size_t group_counter_count() const { return group_counter_count_; }
  std::pair<GroupId, std::uint64_t> group_counter(std::size_t i) const;

 private:
  const std::uint8_t* rows_ = nullptr;  // first WTSNP row
  std::size_t entry_count_ = 0;
  const std::uint8_t* group_rows_ = nullptr;  // first (gid, next) pair
  std::size_t group_counter_count_ = 0;
  GroupId gid_;
  std::uint64_t epoch_ = 0;
  std::uint64_t serial_ = 0;
  std::uint64_t rotation_ = 0;
  GlobalSeq next_gseq_ = 0;
};

// ---------------------------------------------------------------------------
// Message envelope + codec

class Message {
 public:
  using Body = std::variant<DataMsg, OrderingToken, DeliveryAckMsg,
                            MembershipMsg, HeartbeatMsg, TokenAckMsg,
                            DataBatchMsg>;

  Message(DataMsg m) : body_(std::move(m)) {}                 // NOLINT
  Message(OrderingToken m) : body_(std::move(m)) {}           // NOLINT
  Message(DeliveryAckMsg m) : body_(std::move(m)) {}          // NOLINT
  Message(MembershipMsg m) : body_(std::move(m)) {}           // NOLINT
  Message(HeartbeatMsg m) : body_(std::move(m)) {}            // NOLINT
  Message(TokenAckMsg m) : body_(std::move(m)) {}             // NOLINT
  Message(DataBatchMsg m) : body_(std::move(m)) {}            // NOLINT

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

/// Wire size of a message without materializing the buffer (used by the
/// simulator to charge link serialization time). A DataBatch is sized
/// exactly as encoded; a single Data frame also counts its payload bytes.
std::size_t wire_size(const Message& msg);

}  // namespace ringnet::proto
