#include "dist/message.h"

#include "util/wire.h"

namespace s2::dist {

void EncodePacketBatch(const std::vector<dp::WirePacket>& frames,
                       std::vector<uint8_t>& payload) {
  util::WireWriter out(payload);
  out.U32(static_cast<uint32_t>(frames.size()));
  for (const dp::WirePacket& frame : frames) {
    out.U32(frame.at);
    out.U32(frame.from);
    out.U32(frame.src);
    out.U32(static_cast<uint32_t>(frame.hops));
    out.U32List(frame.path);
    out.Blob(frame.set);
  }
}

std::vector<dp::WirePacket> DecodePacketBatch(
    std::span<const uint8_t> payload) {
  util::WireReader in(payload);
  // Each frame is at least 6 u32s.
  std::vector<dp::WirePacket> frames(in.Count(24));
  for (dp::WirePacket& frame : frames) {
    frame.at = in.U32();
    frame.from = in.U32();
    frame.src = in.U32();
    frame.hops = static_cast<int>(in.U32());
    frame.path = in.U32List();
    frame.set = in.Blob();
  }
  return frames;
}

void EncodeMessage(const Message& message, std::vector<uint8_t>& out) {
  util::WireWriter w(out);
  w.U8(static_cast<uint8_t>(message.type));
  w.U32(message.to_node);
  w.U32(message.from_node);
  w.U32(message.packet_src);
  w.U32(static_cast<uint32_t>(message.packet_hops));
  w.U32List(message.packet_path);
  w.Blob(message.payload);
}

Message DecodeMessage(std::span<const uint8_t> bytes) {
  util::WireReader in(bytes);
  Message message;
  message.type = in.Enum(MessageType::kPacketBatch);
  message.to_node = in.U32();
  message.from_node = in.U32();
  message.packet_src = in.U32();
  message.packet_hops = static_cast<int>(in.U32());
  message.packet_path = in.U32List();
  message.payload = in.Blob();
  in.ExpectEnd("message frame");
  return message;
}

}  // namespace s2::dist
