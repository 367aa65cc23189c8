// Wire format of the live (asynchronous) Polystyrene runtime.
//
// The simulator exchanges state through direct calls; the async runtime
// (net/runtime.hpp) sends real framed messages.  This module defines the
// message types and their binary encoding (util/codec).  All encodings are
// little-endian, length-prefixed where variable, and validated on decode
// (truncated or oversized frames raise util::CodecError).
//
// Protocol summary (one message kind per protocol step):
//   kRpsShuffleReq/Resp — Cyclon shuffle buffers (id, age, pos, ver)
//   kTmanReq/Resp       — T-Man descriptor buffers (id, pos, ver)
//   kBackupPush         — origin's full guest set (doubles as a liveness
//                         heartbeat from origin to backup holder)
//   kMigrateReq         — initiator's guests + position (pull phase)
//   kMigrateResp        — accepted? + the initiator's new guest set (push
//                         phase), or a busy rejection
//
// Peers are node ids only: the header names the sender by id, and list
// entries are fixed-size records (RPS 45 B, T-Man 41 B, point 33 B), so a
// gossip frame of N entries is exactly 13 + N × entry bytes (9-byte
// header, 4-byte count).  Routing an id is the transport's job
// (net/transport.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "net/transport.hpp"
#include "space/point.hpp"
#include "util/codec.hpp"

namespace poly::net {

enum class MsgType : std::uint8_t {
  kRpsShuffleReq = 1,
  kRpsShuffleResp = 2,
  kTmanReq = 3,
  kTmanResp = 4,
  kBackupPush = 5,
  kMigrateReq = 6,
  kMigrateResp = 7,
};

/// A peer reference gossiped by the RPS layer.  Besides the Cyclon
/// (id, age) pair, a peer carries its last known topology
/// descriptor (position + version): the RPS layer is T-Man's supply of
/// uniformly random merge candidates (as in the T-Man paper), which is
/// what lets two spatial neighbourhoods that have stopped gossiping
/// with each other rediscover the links between them.  `version == 0`
/// means the position is unknown (bootstrap seeds) and must not be
/// used as a descriptor.
struct WirePeer {
  LiveNodeId id = 0;
  std::uint32_t age = 0;
  space::Point pos;
  std::uint64_t version = 0;
};

/// A topology descriptor gossiped by the T-Man layer.
struct WireDescriptor {
  LiveNodeId id = 0;
  space::Point pos;
  std::uint64_t version = 0;
};

/// A data point on the wire.
struct WirePoint {
  space::PointId id = 0;
  space::Point pos;
};

/// Common frame header: type + sender id (replies go to `sender`).
struct Header {
  MsgType type{};
  LiveNodeId sender = 0;
};

// ---- encode -----------------------------------------------------------------

void encode_point(util::ByteWriter& w, const space::Point& p);
void encode_header(util::ByteWriter& w, const Header& h);
void encode_peers(util::ByteWriter& w, const std::vector<WirePeer>& peers);
void encode_descriptors(util::ByteWriter& w,
                        const std::vector<WireDescriptor>& descriptors);
void encode_points(util::ByteWriter& w, const std::vector<WirePoint>& points);

// Whole-frame encoders come in two forms: in-place (write into a caller
// ByteWriter — the hot path, which encodes into a pooled buffer) and
// allocating convenience wrappers.

/// RPS shuffle request/response: header + peer list.
void encode_rps(util::ByteWriter& w, const Header& h,
                const std::vector<WirePeer>& peers);
std::vector<std::uint8_t> encode_rps(const Header& h,
                                     const std::vector<WirePeer>& peers);

/// T-Man request/response: header + descriptor list (sender's own
/// descriptor travels as the first list entry).
void encode_tman(util::ByteWriter& w, const Header& h,
                 const std::vector<WireDescriptor>& descriptors);
std::vector<std::uint8_t> encode_tman(
    const Header& h, const std::vector<WireDescriptor>& descriptors);

/// Backup push: header + the origin's full guest set.
void encode_backup_push(util::ByteWriter& w, const Header& h,
                        const std::vector<WirePoint>& guests);
std::vector<std::uint8_t> encode_backup_push(
    const Header& h, const std::vector<WirePoint>& guests);

/// Migration request: header + initiator position + guests.
void encode_migrate_req(util::ByteWriter& w, const Header& h,
                        const space::Point& pos,
                        const std::vector<WirePoint>& guests);
std::vector<std::uint8_t> encode_migrate_req(
    const Header& h, const space::Point& pos,
    const std::vector<WirePoint>& guests);

/// Migration response: header + accepted + the initiator's new guests.
void encode_migrate_resp(util::ByteWriter& w, const Header& h, bool accepted,
                         const std::vector<WirePoint>& guests);
std::vector<std::uint8_t> encode_migrate_resp(
    const Header& h, bool accepted, const std::vector<WirePoint>& guests);

// ---- decode -----------------------------------------------------------------

space::Point decode_point(util::ByteReader& r);
Header decode_header(util::ByteReader& r);
std::vector<WirePeer> decode_peers(util::ByteReader& r);
std::vector<WireDescriptor> decode_descriptors(util::ByteReader& r);
std::vector<WirePoint> decode_points(util::ByteReader& r);

// In-place decoders (clear + fill `out`): the hot path decodes every
// message into per-node scratch vectors, so steady-state receive does not
// allocate once the scratch capacity reaches the message-size high-water
// mark.
void decode_peers_into(util::ByteReader& r, std::vector<WirePeer>& out);
void decode_descriptors_into(util::ByteReader& r,
                             std::vector<WireDescriptor>& out);
void decode_points_into(util::ByteReader& r, std::vector<WirePoint>& out);

/// Peeks the message type of a raw frame (throws CodecError when empty).
MsgType peek_type(const std::vector<std::uint8_t>& frame);

}  // namespace poly::net
