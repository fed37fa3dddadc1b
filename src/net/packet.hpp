// On-air packet representation.
//
// All protocols in this repository (MNP and the Deluge / MOAP / XNP
// baselines) exchange small TinyOS-style radio packets. A Packet is a
// value type: a typed payload variant plus addressing metadata. The
// payload structs mirror the fields the papers describe and each knows its
// wire size, from which the channel derives airtime at 19.2 kbps.
//
// Physical transmission is always broadcast; `dest` is the *logical*
// destination some messages carry (e.g. MNP download requests are
// "destined" to one source but deliberately overheard by everyone — that
// overhearing is how MNP fights the hidden terminal problem).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/bitmap.hpp"

namespace mnp::net {

using NodeId = std::uint16_t;
inline constexpr NodeId kBroadcastId = 0xFFFF;
inline constexpr NodeId kNoNode = 0xFFFE;

// ---------------------------------------------------------------------------
// MNP messages (paper section 3)
// ---------------------------------------------------------------------------

/// Advertisement: announces a program (+ the segment currently offered)
/// and the advertiser's requester count, which drives sender selection.
struct AdvertisementMsg {
  std::uint16_t program_id = 0;
  std::uint32_t program_bytes = 0;     // total image size in bytes
  std::uint16_t program_segments = 0;  // total size, in segments
  std::uint16_t seg_id = 0;            // segment being advertised (1-based)
  std::uint8_t req_ctr = 0;            // # distinct requesters so far
  static constexpr std::size_t kWireBytes = 2 + 4 + 2 + 2 + 1;
};

/// Download request: destined to one advertiser but broadcast so third
/// parties learn (source, ReqCtr) pairs; carries the requester's
/// MissingVector so the source can build its ForwardVector.
///
/// Large-segment variant (section 3.3): when the segment exceeds 128
/// packets the requester ships one 128-bit *window* of its EEPROM-backed
/// missing set, anchored at `window_base`; `request_all` short-circuits
/// the common everything-missing case.
struct DownloadRequestMsg {
  NodeId dest = kBroadcastId;     // the advertiser this request is for
  std::uint16_t program_id = 0;   // program the segment belongs to
  std::uint16_t seg_id = 0;       // segment the requester needs next
  std::uint8_t req_ctr_echo = 0;  // advertiser's ReqCtr, relayed verbatim
  std::uint16_t window_base = 0;  // first packet the window refers to
  bool request_all = false;       // "I have nothing of this segment"
  util::Bitmap missing;           // 128-bit missing window at window_base
  static constexpr std::size_t kWireBytes =
      2 + 2 + 2 + 1 + 2 + 1 + util::Bitmap::kMaxBytes;
};

/// StartDownload: the selected sender announces it is about to stream a
/// segment; receivers expecting this segment set the sender as parent.
struct StartDownloadMsg {
  std::uint16_t program_id = 0;
  std::uint16_t seg_id = 0;
  std::uint16_t packet_count = 0;  // packets in this segment
  static constexpr std::size_t kWireBytes = 2 + 2 + 2;
};

/// One code packet. `pkt_id` is unique within the segment (16 bits to
/// cover the basic protocol's large segments).
struct DataMsg {
  std::uint16_t program_id = 0;
  std::uint16_t seg_id = 0;
  std::uint16_t pkt_id = 0;
  std::vector<std::uint8_t> payload;
  static constexpr std::size_t kHeaderBytes = 2 + 2 + 2;
  std::size_t wire_bytes() const { return kHeaderBytes + payload.size(); }
};

/// EndDownload: sender finished streaming the requested packets.
struct EndDownloadMsg {
  std::uint16_t seg_id = 0;
  static constexpr std::size_t kWireBytes = 2;
};

/// Query: sender polls its children for residual loss (optional phase).
struct QueryMsg {
  std::uint16_t seg_id = 0;
  static constexpr std::size_t kWireBytes = 2;
};

/// Repair request: child asks its parent for one missing packet (update
/// phase requests packets one at a time, per the paper's state machine).
struct RepairRequestMsg {
  NodeId dest = kBroadcastId;  // the parent
  std::uint16_t seg_id = 0;
  std::uint16_t pkt_id = 0;
  static constexpr std::size_t kWireBytes = 2 + 2 + 2;
};

// ---------------------------------------------------------------------------
// Deluge baseline messages (Hui & Culler, SenSys'04)
// ---------------------------------------------------------------------------

/// Trickle-style summary: version + number of complete pages. Also carries
/// the object profile (total pages / bytes), which real Deluge ships in a
/// separate profile message.
struct DelugeSummaryMsg {
  std::uint16_t version = 0;
  std::uint16_t total_pages = 0;
  std::uint16_t complete_pages = 0;
  std::uint32_t program_bytes = 0;
  static constexpr std::size_t kWireBytes = 2 + 2 + 2 + 4;
};

/// Page request (NACK) with the bit vector of needed packets.
struct DelugeRequestMsg {
  NodeId dest = kBroadcastId;
  std::uint16_t page = 0;  // 1-based
  util::Bitmap missing;
  static constexpr std::size_t kWireBytes = 2 + 2 + util::Bitmap::kMaxBytes;
};

struct DelugeDataMsg {
  std::uint16_t version = 0;
  std::uint16_t page = 0;
  std::uint8_t pkt_id = 0;
  std::vector<std::uint8_t> payload;
  static constexpr std::size_t kHeaderBytes = 2 + 2 + 1;
  std::size_t wire_bytes() const { return kHeaderBytes + payload.size(); }
};

// ---------------------------------------------------------------------------
// MOAP baseline messages (Stathopoulos et al.)
// ---------------------------------------------------------------------------

struct MoapPublishMsg {
  std::uint16_t version = 0;
  std::uint16_t total_packets = 0;
  std::uint32_t program_bytes = 0;
  static constexpr std::size_t kWireBytes = 2 + 2 + 4;
};

struct MoapSubscribeMsg {
  NodeId dest = kBroadcastId;  // publisher being subscribed to
  static constexpr std::size_t kWireBytes = 2;
};

struct MoapDataMsg {
  std::uint16_t version = 0;
  std::uint16_t pkt_id = 0;  // linear index over the whole image
  std::vector<std::uint8_t> payload;
  static constexpr std::size_t kHeaderBytes = 2 + 2;
  std::size_t wire_bytes() const { return kHeaderBytes + payload.size(); }
};

/// Unicast retransmission request for one packet (sliding-window NACK).
struct MoapNackMsg {
  NodeId dest = kBroadcastId;
  std::uint16_t pkt_id = 0;
  static constexpr std::size_t kWireBytes = 2 + 2;
};

// ---------------------------------------------------------------------------
// XNP baseline messages (TinyOS single-hop reprogramming)
// ---------------------------------------------------------------------------

struct XnpDataMsg {
  std::uint16_t pkt_id = 0;
  std::uint16_t total_packets = 0;
  std::vector<std::uint8_t> payload;
  static constexpr std::size_t kHeaderBytes = 2 + 2;
  std::size_t wire_bytes() const { return kHeaderBytes + payload.size(); }
};

struct XnpQueryMsg {
  std::uint16_t total_packets = 0;
  static constexpr std::size_t kWireBytes = 2;
};

struct XnpFixRequestMsg {
  std::uint16_t pkt_id = 0;
  static constexpr std::size_t kWireBytes = 2;
};

// ---------------------------------------------------------------------------
// NCast baseline messages (rateless RLNC dissemination, DESIGN.md §13)
// ---------------------------------------------------------------------------

/// Advertisement: program geometry plus decode progress — complete
/// generations and working-generation rank. Rank, not a missing bitmap,
/// is the advertised currency: any `gen_size` independent coded packets
/// rebuild a generation, so "how many more" is all a peer needs to know.
struct NcastAdvMsg {
  std::uint16_t program_id = 0;
  std::uint32_t program_bytes = 0;
  std::uint16_t total_gens = 0;
  std::uint16_t complete_gens = 0;
  std::uint8_t gen_size = 0;  // source packets per generation (k)
  std::uint8_t cur_rank = 0;  // decoder rank of generation complete_gens+1
  static constexpr std::size_t kWireBytes = 2 + 4 + 2 + 2 + 1 + 1;
};

/// Request: "stream generation `gen`; my decoder rank is `rank`". The
/// server sizes its burst from the rank deficit — there is no per-packet
/// bookkeeping to echo back.
struct NcastReqMsg {
  NodeId dest = kBroadcastId;  // the advertiser this request is for
  std::uint16_t gen = 0;       // 1-based generation id
  std::uint8_t rank = 0;
  static constexpr std::size_t kWireBytes = 2 + 2 + 1;
};

/// One coded packet: a random linear combination of the generation's k
/// source packets. The coefficient vector is not shipped — both sides
/// expand (gen, coeff_seed) through the same deterministic generator
/// (ncast_node.hpp), so the wire overhead is 2 bytes regardless of k.
struct NcastCodedMsg {
  std::uint16_t gen = 0;
  std::uint16_t coeff_seed = 0;
  std::vector<std::uint8_t> payload;  // coded symbol, full payload length
  static constexpr std::size_t kHeaderBytes = 2 + 2;
  std::size_t wire_bytes() const { return kHeaderBytes + payload.size(); }
};

// ---------------------------------------------------------------------------

enum class PacketType : std::uint8_t {
  kAdvertisement,
  kDownloadRequest,
  kStartDownload,
  kData,
  kEndDownload,
  kQuery,
  kRepairRequest,
  kDelugeSummary,
  kDelugeRequest,
  kDelugeData,
  kMoapPublish,
  kMoapSubscribe,
  kMoapData,
  kMoapNack,
  kXnpData,
  kXnpQuery,
  kXnpFixRequest,
  kNcastAdv,
  kNcastRequest,
  kNcastCoded,
};

/// Number of PacketType values: per-type counters are dense arrays of
/// this size, indexed by the enumerator.
inline constexpr std::size_t kPacketTypeCount = 20;
static_assert(static_cast<std::size_t>(PacketType::kNcastCoded) + 1 ==
                  kPacketTypeCount,
              "kPacketTypeCount must follow the last PacketType");

/// Human-readable type tag for reports.
std::string to_string(PacketType type);

/// Same tag as a static string — the allocation-free spelling the trace
/// hot path records (EventLog stores details inline).
const char* type_name(PacketType type);

/// True for bulk code-carrying packets (used by the channel's concurrent-
/// sender monitor and by message accounting).
bool is_bulk_data(PacketType type);

using Payload =
    std::variant<AdvertisementMsg, DownloadRequestMsg, StartDownloadMsg,
                 DataMsg, EndDownloadMsg, QueryMsg, RepairRequestMsg,
                 DelugeSummaryMsg, DelugeRequestMsg, DelugeDataMsg,
                 MoapPublishMsg, MoapSubscribeMsg, MoapDataMsg, MoapNackMsg,
                 XnpDataMsg, XnpQueryMsg, XnpFixRequestMsg, NcastAdvMsg,
                 NcastReqMsg, NcastCodedMsg>;

struct Packet {
  NodeId src = kNoNode;
  Payload payload;
  /// Transmit power as a fraction of the node's configured range
  /// (battery-aware extension advertises at reduced power).
  double power_scale = 1.0;

  PacketType type() const;

  /// Logical destination, kBroadcastId when the message has none.
  NodeId logical_dest() const;

  /// Bytes on air: preamble/sync + MAC header + typed payload + CRC.
  std::size_t wire_bytes() const;

  template <typename T>
  const T* as() const {
    return std::get_if<T>(&payload);
  }
};

/// MAC-layer framing overhead: 8 B preamble + 2 B sync + 5 B header
/// (dest, src, type) + 2 B CRC, mirroring the TinyOS Mica-2 stack.
inline constexpr std::size_t kFramingBytes = 8 + 2 + 5 + 2;

}  // namespace mnp::net
