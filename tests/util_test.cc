// Tests for byte order, checksums, hexdump, RNG determinism, and the pcap
// writer's file format.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/util/byte_order.h"
#include "src/util/checksum.h"
#include "src/util/hexdump.h"
#include "src/util/pcap_writer.h"
#include "src/util/rng.h"

namespace {

TEST(ByteOrderTest, LoadStoreRoundTrip) {
  uint8_t buf[4];
  pfutil::StoreBe16(buf, 0xbeef);
  EXPECT_EQ(buf[0], 0xbe);
  EXPECT_EQ(buf[1], 0xef);
  EXPECT_EQ(pfutil::LoadBe16(buf), 0xbeef);

  pfutil::StoreBe32(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
  EXPECT_EQ(pfutil::LoadBe32(buf), 0x01020304u);
}

TEST(ByteOrderTest, LoadPacketWordBounds) {
  const std::vector<uint8_t> packet = {0x12, 0x34, 0x56, 0x78, 0x9a};
  uint16_t word = 0;
  EXPECT_TRUE(pfutil::LoadPacketWord(packet, 0, &word));
  EXPECT_EQ(word, 0x1234);
  EXPECT_TRUE(pfutil::LoadPacketWord(packet, 1, &word));
  EXPECT_EQ(word, 0x5678);
  // Word 2 would need bytes 4..5; byte 5 does not exist.
  EXPECT_FALSE(pfutil::LoadPacketWord(packet, 2, &word));
  EXPECT_FALSE(pfutil::LoadPacketWord(packet, 1000, &word));
}

TEST(ByteOrderTest, LoadPacketWordAtByteUnaligned) {
  const std::vector<uint8_t> packet = {0x12, 0x34, 0x56};
  uint16_t word = 0;
  EXPECT_TRUE(pfutil::LoadPacketWordAtByte(packet, 1, &word));
  EXPECT_EQ(word, 0x3456);
  EXPECT_FALSE(pfutil::LoadPacketWordAtByte(packet, 2, &word));
}

TEST(ChecksumTest, InternetChecksumKnownVector) {
  // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2 -> checksum 220d.
  const std::vector<uint8_t> data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(pfutil::InternetChecksum(data), 0x220d);
}

TEST(ChecksumTest, InternetChecksumVerifiesToZero) {
  // Sum including the stored checksum folds to 0 (the standard check).
  std::vector<uint8_t> header = {0x45, 0x00, 0x00, 0x1c, 0x00, 0x01, 0x00, 0x00, 0x40, 0x11,
                                 0x00, 0x00, 0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x02};
  const uint16_t checksum = pfutil::InternetChecksum(header);
  pfutil::StoreBe16(&header[10], checksum);
  EXPECT_EQ(pfutil::InternetChecksum(header), 0);
}

TEST(ChecksumTest, InternetChecksumOddLength) {
  const std::vector<uint8_t> data = {0xab};
  EXPECT_EQ(pfutil::InternetChecksum(data), static_cast<uint16_t>(~0xab00 & 0xffff));
}

TEST(ChecksumTest, PupChecksumNeverProducesFFFF) {
  // 0xFFFF means "no checksum"; the algorithm maps it to 0.
  for (int pattern = 0; pattern < 256; ++pattern) {
    std::vector<uint8_t> data(64, static_cast<uint8_t>(pattern));
    EXPECT_NE(pfutil::PupChecksum(data), pfutil::kPupNoChecksum);
  }
}

TEST(ChecksumTest, PupChecksumDetectsCorruption) {
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  const uint16_t good = pfutil::PupChecksum(data);
  data[42] ^= 0x01;
  EXPECT_NE(pfutil::PupChecksum(data), good);
}

TEST(ChecksumTest, PupChecksumOrderSensitive) {
  // The add-and-cycle makes it position-dependent, unlike a plain sum.
  const std::vector<uint8_t> ab = {0x01, 0x00, 0x02, 0x00};
  const std::vector<uint8_t> ba = {0x02, 0x00, 0x01, 0x00};
  EXPECT_NE(pfutil::PupChecksum(ab), pfutil::PupChecksum(ba));
}

// The IEEE 802.3 CRC-32 computed one bit at a time, the reference that
// Crc32 must reproduce exactly. Feeds `byte` into the running
// (pre-inversion) register.
uint32_t Crc32RefStep(uint32_t reg, uint8_t byte) {
  reg ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    reg = (reg & 1) != 0 ? (reg >> 1) ^ 0xedb88320u : reg >> 1;
  }
  return reg;
}

TEST(ChecksumTest, Crc32CheckValue) {
  // The standard CRC-32 check value over the ASCII digits "123456789".
  const std::string digits = "123456789";
  const std::vector<uint8_t> data(digits.begin(), digits.end());
  EXPECT_EQ(pfutil::Crc32(data), 0xcbf43926u);
  EXPECT_EQ(pfutil::Crc32({}), 0u);
}

TEST(ChecksumTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..2048 from every start offset 0..15 cover the 16-byte body,
  // every tail length and every alignment of the word loads.
  constexpr size_t kMaxLen = 2048;
  constexpr size_t kOffsets = 16;
  pfutil::Rng rng(0xfc5);
  std::vector<uint8_t> buffer(kMaxLen + kOffsets);
  for (uint8_t& byte : buffer) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    uint32_t reg = 0xffffffffu;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) {
        reg = Crc32RefStep(reg, buffer[offset + len - 1]);
      }
      const std::span<const uint8_t> slice(buffer.data() + offset, len);
      ASSERT_EQ(pfutil::Crc32(slice), reg ^ 0xffffffffu)
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(ChecksumTest, Crc32DetectsEverySingleBitFlipInAFullFrame) {
  std::vector<uint8_t> frame(1514);
  for (size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const uint32_t good = pfutil::Crc32(frame);
  for (size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      frame[i] ^= static_cast<uint8_t>(1u << bit);
      ASSERT_NE(pfutil::Crc32(frame), good) << "byte " << i << " bit " << bit;
      frame[i] ^= static_cast<uint8_t>(1u << bit);
    }
  }
}

TEST(HexdumpTest, FormatsCanonically) {
  std::vector<uint8_t> data(20);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>('A' + i);
  }
  const std::string dump = pfutil::Hexdump(data);
  EXPECT_NE(dump.find("00000000"), std::string::npos);
  EXPECT_NE(dump.find("41 42 43"), std::string::npos);
  EXPECT_NE(dump.find("|ABCDEFGHIJKLMNOP|"), std::string::npos);
  EXPECT_NE(dump.find("00000010"), std::string::npos);
}

TEST(HexdumpTest, NonPrintableAsDots) {
  const std::vector<uint8_t> data = {0x00, 0x1f, 'x'};
  EXPECT_NE(pfutil::Hexdump(data).find("|..x|"), std::string::npos);
}

TEST(RngTest, DeterministicForSeed) {
  pfutil::Rng a(42);
  pfutil::Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  pfutil::Rng c(43);
  EXPECT_NE(pfutil::Rng(42).Next(), c.Next());
}

TEST(RngTest, BelowAndRangeStayInBounds) {
  pfutil::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(10), 10u);
    const uint64_t v = rng.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, ChanceIsRoughlyCalibrated) {
  pfutil::Rng rng(99);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Chance(0.25) ? 1 : 0;
  }
  EXPECT_GT(hits, 2200);
  EXPECT_LT(hits, 2800);
}

TEST(PcapWriterTest, GlobalHeaderLayout) {
  pfutil::PcapWriter writer(pfutil::PcapWriter::kLinktypeEthernet);
  const auto& buf = writer.buffer();
  ASSERT_EQ(buf.size(), 24u);
  // Little-endian magic 0xa1b2c3d4.
  EXPECT_EQ(buf[0], 0xd4);
  EXPECT_EQ(buf[1], 0xc3);
  EXPECT_EQ(buf[2], 0xb2);
  EXPECT_EQ(buf[3], 0xa1);
  // Linktype at offset 20.
  EXPECT_EQ(buf[20], 1);
}

TEST(PcapWriterTest, RecordsCarryTimestampAndLength) {
  pfutil::PcapWriter writer(pfutil::PcapWriter::kLinktypeEthernet);
  const std::vector<uint8_t> frame = {1, 2, 3, 4, 5};
  writer.AddRecord(3000001000ull, frame);  // 3.000001 s
  ASSERT_EQ(writer.record_count(), 1u);
  const auto& buf = writer.buffer();
  ASSERT_EQ(buf.size(), 24u + 16u + 5u);
  // ts_sec = 3, ts_usec = 1.
  EXPECT_EQ(buf[24], 3);
  EXPECT_EQ(buf[28], 1);
  // caplen = origlen = 5.
  EXPECT_EQ(buf[32], 5);
  EXPECT_EQ(buf[36], 5);
  EXPECT_EQ(buf[40], 1);  // frame data
}

TEST(PcapWriterTest, SnaplenTruncatesCaplenOnly) {
  pfutil::PcapWriter writer(pfutil::PcapWriter::kLinktypeEthernet, 4);
  const std::vector<uint8_t> frame(10, 0xcc);
  writer.AddRecord(0, frame);
  const auto& buf = writer.buffer();
  EXPECT_EQ(buf[32], 4);   // caplen
  EXPECT_EQ(buf[36], 10);  // original length preserved
  EXPECT_EQ(buf.size(), 24u + 16u + 4u);
}

TEST(PcapWriterTest, WritesFile) {
  pfutil::PcapWriter writer(pfutil::PcapWriter::kLinktypeEthernet);
  writer.AddRecord(0, std::vector<uint8_t>{1, 2, 3});
  const std::string path = ::testing::TempDir() + "/pf_test.pcap";
  ASSERT_TRUE(writer.WriteFile(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(static_cast<size_t>(std::ftell(f)), writer.buffer().size());
  std::fclose(f);
}

uint32_t ReadU32(const std::vector<uint8_t>& buf, size_t at) {
  uint32_t v;
  std::memcpy(&v, buf.data() + at, sizeof(v));
  return v;
}

TEST(PcapngWriterTest, SectionHeaderOpensTheStream) {
  pfutil::PcapngWriter writer;
  const auto& buf = writer.buffer();
  ASSERT_EQ(buf.size(), 28u);  // minimal SHB, no options
  EXPECT_EQ(ReadU32(buf, 0), pfutil::PcapngWriter::kBlockSectionHeader);
  EXPECT_EQ(ReadU32(buf, 4), 28u);               // leading total length
  EXPECT_EQ(ReadU32(buf, 8), pfutil::PcapngWriter::kByteOrderMagic);
  EXPECT_EQ(ReadU32(buf, 24), 28u);              // trailing duplicate length
  EXPECT_EQ(buf[12], 1);                         // version 1.0
  EXPECT_EQ(buf[14], 0);
}

TEST(PcapngWriterTest, InterfaceBlocksCarryNameAndResolution) {
  pfutil::PcapngWriter writer;
  const uint32_t id0 = writer.AddInterface(1, 64, "nic-rx");
  const uint32_t id1 = writer.AddInterface(1, 128, "drop:overflow");
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id1, 1u);
  EXPECT_EQ(writer.interface_count(), 2u);
  const auto& buf = writer.buffer();
  // The first IDB sits right after the 28-byte SHB.
  EXPECT_EQ(ReadU32(buf, 28), pfutil::PcapngWriter::kBlockInterface);
  const uint32_t total = ReadU32(buf, 32);
  EXPECT_EQ(total % 4, 0u);
  EXPECT_EQ(ReadU32(buf, 28 + total - 4), total);  // trailing length agrees
  EXPECT_EQ(ReadU32(buf, 40), 64u);                // snaplen field
  const std::string blob(reinterpret_cast<const char*>(buf.data()), buf.size());
  EXPECT_NE(blob.find("nic-rx"), std::string::npos);
  EXPECT_NE(blob.find("drop:overflow"), std::string::npos);
}

TEST(PcapngWriterTest, PacketBlocksAlignAndKeepComments) {
  pfutil::PcapngWriter writer;
  const uint32_t iface = writer.AddInterface(1, 65535, "t");
  const std::vector<uint8_t> data = {0xAA, 0xBB, 0xCC};  // odd: needs padding
  writer.AddPacket(iface, 1234567890ull, data, 90, "sig=0xdeadbeef");
  EXPECT_EQ(writer.record_count(), 1u);
  const auto& buf = writer.buffer();
  EXPECT_EQ(buf.size() % 4, 0u);  // every block 32-bit aligned
  const std::string blob(reinterpret_cast<const char*>(buf.data()), buf.size());
  EXPECT_NE(blob.find("sig=0xdeadbeef"), std::string::npos);
  // Walk to the EPB (SHB, then one IDB) and check its fixed fields.
  size_t at = 28;
  at += ReadU32(buf, at + 4);  // skip the IDB
  ASSERT_EQ(ReadU32(buf, at), pfutil::PcapngWriter::kBlockEnhancedPacket);
  EXPECT_EQ(ReadU32(buf, at + 8), iface);
  const uint64_t ts = (static_cast<uint64_t>(ReadU32(buf, at + 12)) << 32) |
                      ReadU32(buf, at + 16);
  EXPECT_EQ(ts, 1234567890ull);  // nanosecond resolution, no division
  EXPECT_EQ(ReadU32(buf, at + 20), 3u);   // captured length
  EXPECT_EQ(ReadU32(buf, at + 24), 90u);  // original length preserved
  const uint32_t total = ReadU32(buf, at + 4);
  EXPECT_EQ(ReadU32(buf, at + total - 4), total);
}

TEST(PcapngWriterTest, WritesFile) {
  pfutil::PcapngWriter writer;
  writer.AddPacket(writer.AddInterface(1, 256, "x"), 0, std::vector<uint8_t>{1, 2, 3, 4}, 4);
  const std::string path = ::testing::TempDir() + "/pf_test.pcapng";
  ASSERT_TRUE(writer.WriteFile(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(static_cast<size_t>(std::ftell(f)), writer.buffer().size());
  std::fclose(f);
}

}  // namespace
