// The wire codec (util/wire.h): writer/reader primitives, the bounds rule,
// and one corpus for the frame reader shared by the control channel and
// the socket transport.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <span>
#include <string>
#include <vector>

#include "dist/process.h"
#include "util/status.h"
#include "util/wire.h"

namespace s2::util {
namespace {

TEST(WireCodecTest, PrimitivesRoundTripLittleEndian) {
  std::vector<uint8_t> out;
  WireWriter w(out);
  w.U8(0xAB);
  w.U32(0x01020304);
  w.U64(0x1122334455667788ull);
  w.F64(-0.5);
  w.Bool(true);
  w.Blob(std::vector<uint8_t>{9, 8});
  w.String("hi");
  ASSERT_EQ(out.size(), 1u + 4 + 8 + 8 + 1 + 6 + 6);
  EXPECT_EQ(out[1], 0x04);  // least significant byte first
  EXPECT_EQ(out[5], 0x88);

  WireReader in(out);
  EXPECT_EQ(in.U8(), 0xAB);
  EXPECT_EQ(in.U32(), 0x01020304u);
  EXPECT_EQ(in.U64(), 0x1122334455667788ull);
  EXPECT_EQ(in.F64(), -0.5);
  EXPECT_TRUE(in.Bool());
  EXPECT_EQ(in.Blob(), (std::vector<uint8_t>{9, 8}));
  EXPECT_EQ(in.String(), "hi");
  EXPECT_NO_THROW(in.ExpectEnd("sample"));
}

TEST(WireCodecTest, SectionPatchesItsLengthLikeABlob) {
  std::vector<uint8_t> patched;
  WireWriter w(patched);
  size_t slot = w.BeginSection();
  w.U32(7);
  w.U8(1);
  w.EndSection(slot);

  std::vector<uint8_t> body;
  WireWriter(body).U32(7);
  body.push_back(1);
  std::vector<uint8_t> blob;
  WireWriter(blob).Blob(body);
  EXPECT_EQ(patched, blob);

  // A section reads as a sub-reader confined to its own bytes.
  patched.push_back(0xEE);
  WireReader in(patched);
  WireReader section = in.Section();
  EXPECT_EQ(section.U32(), 7u);
  EXPECT_EQ(section.U8(), 1u);
  EXPECT_THROW(section.U8(), WireFormatError);
  EXPECT_EQ(in.U8(), 0xEE);
}

TEST(WireCodecTest, ReadsPastTheEndThrow) {
  std::vector<uint8_t> three = {1, 2, 3};
  EXPECT_THROW(WireReader(three).U32(), WireFormatError);
  EXPECT_THROW(WireReader(three).U64(), WireFormatError);
  EXPECT_THROW(WireReader(three).Bytes(4), WireFormatError);
  EXPECT_THROW(WireReader(std::span<const uint8_t>()).U8(), WireFormatError);
  WireReader in(three);
  in.U8();
  EXPECT_THROW(in.ExpectEnd("two bytes early"), WireFormatError);
}

TEST(WireCodecTest, LengthsAndCountsAreCheckedAgainstRemainingBytes) {
  // A blob claiming more bytes than follow.
  std::vector<uint8_t> blob;
  WireWriter(blob).U32(5);
  blob.insert(blob.end(), {1, 2, 3, 4});
  EXPECT_THROW(WireReader(blob).Blob(), WireFormatError);
  EXPECT_THROW(WireReader(blob).Section(), WireFormatError);

  // A count of 4-byte entries: 2 fit in 8 bytes, 3 do not.
  std::vector<uint8_t> counted;
  WireWriter w(counted);
  w.U32(2);
  w.U64(0);
  EXPECT_EQ(WireReader(counted).Count(4), 2u);
  counted[0] = 3;
  EXPECT_THROW(WireReader(counted).Count(4), WireFormatError);
  counted[0] = 0xFF;
  counted[3] = 0xFF;
  EXPECT_THROW(WireReader(counted).Count(1), WireFormatError);
}

enum class Color : uint8_t { kRed = 1, kGreen = 2, kBlue = 3 };

TEST(WireCodecTest, EnumAndBoolRejectOutOfRangeBytes) {
  for (int v = 0; v < 256; ++v) {
    std::vector<uint8_t> byte = {static_cast<uint8_t>(v)};
    if (v >= 1 && v <= 3) {
      EXPECT_EQ(WireReader(byte).Enum(Color::kBlue, Color::kRed),
                static_cast<Color>(v));
    } else {
      EXPECT_THROW(WireReader(byte).Enum(Color::kBlue, Color::kRed),
                   WireFormatError)
          << v;
    }
    if (v <= 1) {
      EXPECT_EQ(WireReader(byte).Bool(), v == 1);
    } else {
      EXPECT_THROW(WireReader(byte).Bool(), WireFormatError) << v;
    }
  }
}

TEST(WireCodecTest, BlobMapRoundTripsInKeyOrder) {
  std::map<uint32_t, std::vector<uint8_t>> map;
  map[9] = {};
  map[3] = {1, 2};
  std::vector<uint8_t> out;
  WireWriter(out).BlobMap(map);
  WireReader in(out);
  EXPECT_EQ(in.BlobMap(), map);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(out[4], 3);  // the smaller key comes first
}

// ---------------------------------------------------------- frame reader

std::vector<uint8_t> Framed(const std::vector<std::vector<uint8_t>>& frames) {
  std::vector<uint8_t> stream;
  WireWriter w(stream);
  for (const std::vector<uint8_t>& frame : frames) w.Blob(frame);
  return stream;
}

std::vector<std::vector<uint8_t>> Drain(FrameReader& reader) {
  std::vector<std::vector<uint8_t>> out;
  std::span<const uint8_t> payload;
  while (reader.Next(&payload)) {
    out.emplace_back(payload.begin(), payload.end());
  }
  return out;
}

const std::vector<std::vector<uint8_t>> kCorpus = {
    {1, 2, 3}, {}, {0xFF}, std::vector<uint8_t>(300, 0x5A), {}, {7, 7}};

TEST(FrameReaderTest, PayloadsFedOneByteAtATime) {
  std::vector<uint8_t> stream = Framed(kCorpus);
  FrameReader reader(1024);
  std::vector<std::vector<uint8_t>> got;
  for (uint8_t byte : stream) {
    reader.Feed(&byte, 1);
    for (auto& frame : Drain(reader)) got.push_back(std::move(frame));
  }
  EXPECT_EQ(got, kCorpus);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, SeveralFramesInOneRead) {
  std::vector<uint8_t> stream = Framed(kCorpus);
  FrameReader reader(1024);
  reader.Feed(stream.data(), stream.size());
  EXPECT_EQ(Drain(reader), kCorpus);
  // A second batch after the first was consumed reuses the buffer.
  reader.Feed(stream.data(), stream.size());
  EXPECT_EQ(Drain(reader), kCorpus);
}

TEST(FrameReaderTest, ZeroLengthFrameIsAFrame) {
  std::vector<uint8_t> stream = Framed({{}});
  ASSERT_EQ(stream.size(), 4u);
  FrameReader reader(16);
  reader.Feed(stream.data(), 3);
  std::span<const uint8_t> payload;
  EXPECT_FALSE(reader.Next(&payload));
  reader.Feed(stream.data() + 3, 1);
  ASSERT_TRUE(reader.Next(&payload));
  EXPECT_TRUE(payload.empty());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, LengthAboveTheCapThrowsBeforeThePayloadArrives) {
  FrameReader reader(1024);
  // Only the header is fed: the cap is enforced before any payload byte
  // is waited for or buffered.
  std::vector<uint8_t> header;
  WireWriter(header).U32(1025);
  reader.Feed(header.data(), header.size());
  std::span<const uint8_t> payload;
  EXPECT_THROW(reader.Next(&payload), WireFormatError);

  FrameReader at_cap(4);
  std::vector<uint8_t> ok = Framed({{1, 2, 3, 4}});
  at_cap.Feed(ok.data(), ok.size());
  EXPECT_TRUE(at_cap.Next(&payload));

  FrameReader huge(dist::kMaxCtrlFramePayload);
  std::vector<uint8_t> absurd = {0xFF, 0xFF, 0xFF, 0xFF};
  huge.Feed(absurd.data(), absurd.size());
  EXPECT_THROW(huge.Next(&payload), WireFormatError);
}

TEST(FrameReaderTest, EofMidFrameLeavesBufferedBytes) {
  std::vector<uint8_t> stream = Framed({{1, 2, 3}, {4, 5, 6}});
  FrameReader reader(16);
  reader.Feed(stream.data(), stream.size() - 2);
  EXPECT_EQ(Drain(reader).size(), 1u);
  EXPECT_EQ(reader.buffered(), 5u);  // the cut frame's header + 1 byte

  // Over a real stream: a clean EOF at a frame boundary ends the stream,
  // an EOF inside a frame is malformed.
  for (size_t cut : {stream.size(), stream.size() - 2, size_t{2}}) {
    int sv[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_EQ(write(sv[0], stream.data(), cut), static_cast<ssize_t>(cut));
    close(sv[0]);
    FrameReader fd_reader(16);
    std::vector<uint8_t> payload;
    if (cut == stream.size()) {
      EXPECT_TRUE(dist::ReadFrameFd(sv[1], fd_reader, &payload));
      EXPECT_TRUE(dist::ReadFrameFd(sv[1], fd_reader, &payload));
      EXPECT_EQ(payload, (std::vector<uint8_t>{4, 5, 6}));
      EXPECT_FALSE(dist::ReadFrameFd(sv[1], fd_reader, &payload));
    } else {
      if (cut > 7) {
        EXPECT_TRUE(dist::ReadFrameFd(sv[1], fd_reader, &payload));
      }
      EXPECT_THROW(dist::ReadFrameFd(sv[1], fd_reader, &payload),
                   WireFormatError)
          << "cut at " << cut;
    }
    close(sv[1]);
  }
}

TEST(FrameReaderTest, TakeReadsAnUnframedPreamble) {
  std::vector<uint8_t> stream = {0xAA, 0xBB};
  std::vector<uint8_t> frames = Framed({{1}});
  stream.insert(stream.end(), frames.begin(), frames.end());
  FrameReader reader(16);
  reader.Feed(stream.data(), 1);
  std::span<const uint8_t> preamble;
  EXPECT_FALSE(reader.Take(2, &preamble));
  reader.Feed(stream.data() + 1, stream.size() - 1);
  ASSERT_TRUE(reader.Take(2, &preamble));
  EXPECT_EQ(preamble[1], 0xBB);
  EXPECT_EQ(Drain(reader), (std::vector<std::vector<uint8_t>>{{1}}));
}

}  // namespace
}  // namespace s2::util
