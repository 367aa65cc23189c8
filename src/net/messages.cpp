#include "net/messages.hpp"

#include <cmath>

namespace poly::net {

namespace {
/// Sanity bound on decoded list lengths: a frame cannot plausibly carry
/// more elements than bytes, so anything larger is a corrupt length prefix.
constexpr std::uint32_t kMaxListLength = 1u << 20;

std::uint32_t checked_length(util::ByteReader& r) {
  const std::uint32_t n = r.u32();
  if (n > kMaxListLength || n > r.remaining())
    throw util::CodecError("messages: implausible list length");
  return n;
}
}  // namespace

void encode_point(util::ByteWriter& w, const space::Point& p) {
  w.u8(p.dim);
  for (double c : p.c) w.f64(c);
}

space::Point decode_point(util::ByteReader& r) {
  space::Point p;
  p.dim = r.u8();
  if (p.dim < 1 || p.dim > 3) throw util::CodecError("point: bad dimension");
  for (double& c : p.c) {
    c = r.f64();
    // A NaN/Inf coordinate from a corrupted frame would poison every
    // distance it ever enters (NaN comparisons are false, so ranking and
    // medoid selection silently misorder).  Reject at the trust boundary;
    // corrupted-but-finite positions are ordinary gray noise the gossip
    // repair absorbs.
    if (!std::isfinite(c)) throw util::CodecError("point: non-finite coord");
  }
  return p;
}

void encode_header(util::ByteWriter& w, const Header& h) {
  w.u8(static_cast<std::uint8_t>(h.type));
  w.u64(h.sender);
}

Header decode_header(util::ByteReader& r) {
  Header h;
  const auto t = r.u8();
  if (t < static_cast<std::uint8_t>(MsgType::kRpsShuffleReq) ||
      t > static_cast<std::uint8_t>(MsgType::kMigrateResp))
    throw util::CodecError("header: unknown message type");
  h.type = static_cast<MsgType>(t);
  h.sender = r.u64();
  return h;
}

void encode_peers(util::ByteWriter& w, const std::vector<WirePeer>& peers) {
  w.u32(static_cast<std::uint32_t>(peers.size()));
  for (const auto& p : peers) {
    w.u64(p.id);
    w.u32(p.age);
    encode_point(w, p.pos);
    w.u64(p.version);
  }
}

void decode_peers_into(util::ByteReader& r, std::vector<WirePeer>& out) {
  const std::uint32_t n = checked_length(r);
  out.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    WirePeer& p = out[i];
    p.id = r.u64();
    p.age = r.u32();
    p.pos = decode_point(r);
    p.version = r.u64();
  }
}

std::vector<WirePeer> decode_peers(util::ByteReader& r) {
  std::vector<WirePeer> out;
  decode_peers_into(r, out);
  return out;
}

void encode_descriptors(util::ByteWriter& w,
                        const std::vector<WireDescriptor>& descriptors) {
  w.u32(static_cast<std::uint32_t>(descriptors.size()));
  for (const auto& d : descriptors) {
    w.u64(d.id);
    encode_point(w, d.pos);
    w.u64(d.version);
  }
}

void decode_descriptors_into(util::ByteReader& r,
                             std::vector<WireDescriptor>& out) {
  const std::uint32_t n = checked_length(r);
  out.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    WireDescriptor& d = out[i];
    d.id = r.u64();
    d.pos = decode_point(r);
    d.version = r.u64();
  }
}

std::vector<WireDescriptor> decode_descriptors(util::ByteReader& r) {
  std::vector<WireDescriptor> out;
  decode_descriptors_into(r, out);
  return out;
}

void encode_points(util::ByteWriter& w, const std::vector<WirePoint>& points) {
  w.u32(static_cast<std::uint32_t>(points.size()));
  for (const auto& p : points) {
    w.u64(p.id);
    encode_point(w, p.pos);
  }
}

void decode_points_into(util::ByteReader& r, std::vector<WirePoint>& out) {
  const std::uint32_t n = checked_length(r);
  out.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    WirePoint& p = out[i];
    p.id = r.u64();
    p.pos = decode_point(r);
  }
}

std::vector<WirePoint> decode_points(util::ByteReader& r) {
  std::vector<WirePoint> out;
  decode_points_into(r, out);
  return out;
}

void encode_rps(util::ByteWriter& w, const Header& h,
                const std::vector<WirePeer>& peers) {
  encode_header(w, h);
  encode_peers(w, peers);
}

std::vector<std::uint8_t> encode_rps(const Header& h,
                                     const std::vector<WirePeer>& peers) {
  util::ByteWriter w;
  encode_rps(w, h, peers);
  return w.take();
}

void encode_tman(util::ByteWriter& w, const Header& h,
                 const std::vector<WireDescriptor>& descriptors) {
  encode_header(w, h);
  encode_descriptors(w, descriptors);
}

std::vector<std::uint8_t> encode_tman(
    const Header& h, const std::vector<WireDescriptor>& descriptors) {
  util::ByteWriter w;
  encode_tman(w, h, descriptors);
  return w.take();
}

void encode_backup_push(util::ByteWriter& w, const Header& h,
                        const std::vector<WirePoint>& guests) {
  encode_header(w, h);
  encode_points(w, guests);
}

std::vector<std::uint8_t> encode_backup_push(
    const Header& h, const std::vector<WirePoint>& guests) {
  util::ByteWriter w;
  encode_backup_push(w, h, guests);
  return w.take();
}

void encode_migrate_req(util::ByteWriter& w, const Header& h,
                        const space::Point& pos,
                        const std::vector<WirePoint>& guests) {
  encode_header(w, h);
  encode_point(w, pos);
  encode_points(w, guests);
}

std::vector<std::uint8_t> encode_migrate_req(
    const Header& h, const space::Point& pos,
    const std::vector<WirePoint>& guests) {
  util::ByteWriter w;
  encode_migrate_req(w, h, pos, guests);
  return w.take();
}

void encode_migrate_resp(util::ByteWriter& w, const Header& h, bool accepted,
                         const std::vector<WirePoint>& guests) {
  encode_header(w, h);
  w.u8(accepted ? 1 : 0);
  encode_points(w, guests);
}

std::vector<std::uint8_t> encode_migrate_resp(
    const Header& h, bool accepted, const std::vector<WirePoint>& guests) {
  util::ByteWriter w;
  encode_migrate_resp(w, h, accepted, guests);
  return w.take();
}

MsgType peek_type(const std::vector<std::uint8_t>& frame) {
  if (frame.empty()) throw util::CodecError("peek_type: empty frame");
  const auto t = frame[0];
  if (t < static_cast<std::uint8_t>(MsgType::kRpsShuffleReq) ||
      t > static_cast<std::uint8_t>(MsgType::kMigrateResp))
    throw util::CodecError("peek_type: unknown message type");
  return static_cast<MsgType>(t);
}

}  // namespace poly::net
