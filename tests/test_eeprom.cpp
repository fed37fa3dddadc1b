// Unit tests for the EEPROM model, including its paged storage: pages are
// allocated on first write, so a node pays for what it stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "boot/progress_journal.hpp"
#include "mnp/mnp_node.hpp"
#include "mnp/program_image.hpp"
#include "net/link_model.hpp"
#include "node/network.hpp"
#include "sim/simulator.hpp"
#include "storage/eeprom.hpp"

namespace mnp::storage {
namespace {

TEST(Eeprom, WriteThenReadRoundTrips) {
  Eeprom e(1024);
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  EXPECT_TRUE(e.write(100, data));
  EXPECT_EQ(e.read(100, 5), data);
}

TEST(Eeprom, FreshBytesReadAsZero) {
  Eeprom e(64);
  const auto bytes = e.read(0, 64);
  ASSERT_EQ(bytes.size(), 64u);
  for (auto b : bytes) EXPECT_EQ(b, 0);
}

TEST(Eeprom, RangeChecksRejectOutOfBounds) {
  Eeprom e(32);
  EXPECT_FALSE(e.write(30, {1, 2, 3}));         // runs past the end
  EXPECT_FALSE(e.write(33, {1}));               // offset past the end
  EXPECT_TRUE(e.write(29, {1, 2, 3}));          // exactly fits
  EXPECT_TRUE(e.read(33, 1).empty());
  EXPECT_TRUE(e.read(0, 33).empty());
  EXPECT_EQ(e.read(0, 32).size(), 32u);
}

TEST(Eeprom, CountsOperations) {
  Eeprom e(256);
  e.write(0, {1, 2, 3});
  e.write(16, {4});
  (void)e.read(0, 3);  // only the counter matters here
  EXPECT_EQ(e.total_writes(), 2u);
  EXPECT_EQ(e.total_reads(), 1u);
  EXPECT_EQ(e.bytes_written(), 4u);
}

TEST(Eeprom, ChargesTheEnergyMeter) {
  energy::EnergyMeter meter;
  Eeprom e(256, &meter);
  e.write(0, std::vector<std::uint8_t>(22, 7));  // 2 lines
  (void)e.read(0, 22);                           // 2 lines
  EXPECT_EQ(meter.eeprom_writes(), 1u);
  EXPECT_EQ(meter.eeprom_reads(), 1u);
  EXPECT_DOUBLE_EQ(meter.total_nah(0), 2 * 83.333 + 2 * 1.111);
}

TEST(Eeprom, WriteOnceTrackingFlagsDoubleWrites) {
  Eeprom e(128);
  e.set_track_write_once(true);
  EXPECT_TRUE(e.write(0, {1, 2, 3, 4}));
  EXPECT_EQ(e.double_writes(), 0u);
  EXPECT_TRUE(e.write(4, {5, 6}));  // disjoint: fine
  EXPECT_EQ(e.double_writes(), 0u);
  EXPECT_TRUE(e.write(2, {9}));  // overlaps byte 2
  EXPECT_EQ(e.double_writes(), 1u);
}

TEST(Eeprom, EraseResetsContentAndWriteMarks) {
  Eeprom e(64);
  e.set_track_write_once(true);
  e.write(0, {1, 2, 3});
  e.erase();
  EXPECT_EQ(e.read(0, 3), (std::vector<std::uint8_t>{0, 0, 0}));
  e.write(0, {7});  // not a double write after erase
  EXPECT_EQ(e.double_writes(), 0u);
}

TEST(Eeprom, DefaultCapacityIsMicaFlash) {
  Eeprom e;
  EXPECT_EQ(e.capacity(), 512u * 1024u);
  EXPECT_EQ(e.resident_pages(), 0u);  // capacity is a bound, not storage
}

// --- paged storage ---------------------------------------------------------

constexpr std::size_t kPage = Eeprom::kPageBytes;

TEST(EepromPages, WritesAndReadsStraddleAPageBoundary) {
  Eeprom e;
  std::vector<std::uint8_t> data(20);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i + 1);
  }
  ASSERT_TRUE(e.write(kPage - 7, data));  // 7 bytes in page 0, 13 in page 1
  EXPECT_EQ(e.resident_pages(), 2u);
  EXPECT_EQ(e.read(kPage - 7, data.size()), data);
  // A read across the boundary that also covers unwritten bytes.
  const auto wide = e.read(kPage - 9, 24);
  ASSERT_EQ(wide.size(), 24u);
  EXPECT_EQ(wide[0], 0);
  EXPECT_EQ(wide[1], 0);
  EXPECT_EQ(std::vector<std::uint8_t>(wide.begin() + 2, wide.begin() + 22), data);
  EXPECT_EQ(wide[22], 0);
  EXPECT_EQ(e.bytes_written(), 20u);
  EXPECT_EQ(e.total_writes(), 1u);
}

TEST(EepromPages, UntouchedBytesReadAsZeroAroundResidentPages) {
  Eeprom e;
  ASSERT_TRUE(e.write(3 * kPage + 10, {0xAB, 0xCD}));
  EXPECT_EQ(e.resident_pages(), 1u);
  // Pages 0..5: only two bytes of page 3 were ever written.
  const auto bytes = e.read(0, 6 * kPage);
  ASSERT_EQ(bytes.size(), 6 * kPage);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::uint8_t want =
        i == 3 * kPage + 10 ? 0xAB : i == 3 * kPage + 11 ? 0xCD : 0;
    ASSERT_EQ(bytes[i], want) << "byte " << i;
  }
  // Reading never allocates.
  (void)e.read(e.capacity() - kPage, kPage);
  EXPECT_EQ(e.resident_pages(), 1u);
}

TEST(EepromPages, PagesStayOrderedWhenWrittenOutOfOrder) {
  Eeprom e;
  ASSERT_TRUE(e.write(5 * kPage, {5}));
  ASSERT_TRUE(e.write(1 * kPage, {1}));
  ASSERT_TRUE(e.write(3 * kPage, {3}));
  EXPECT_EQ(e.resident_pages(), 3u);
  const auto bytes = e.read(0, 6 * kPage);
  EXPECT_EQ(bytes[1 * kPage], 1);
  EXPECT_EQ(bytes[3 * kPage], 3);
  EXPECT_EQ(bytes[5 * kPage], 5);
}

TEST(EepromPages, DoubleWriteAcrossPagesCountsOncePerWrite) {
  Eeprom e;
  e.set_track_write_once(true);
  ASSERT_TRUE(e.write(kPage - 4, std::vector<std::uint8_t>(8, 1)));
  EXPECT_EQ(e.double_writes(), 0u);
  // Overlaps the first write on both sides of the boundary: one violation.
  ASSERT_TRUE(e.write(kPage - 2, std::vector<std::uint8_t>(4, 2)));
  EXPECT_EQ(e.double_writes(), 1u);
  // Adjacent on both pages, overlapping nothing.
  ASSERT_TRUE(e.write(kPage - 6, {3, 3}));
  ASSERT_TRUE(e.write(kPage + 4, {4, 4}));
  EXPECT_EQ(e.double_writes(), 1u);
  // A write that overlaps only in its last page still counts.
  ASSERT_TRUE(e.write(kPage - 20, std::vector<std::uint8_t>(15, 5)));
  EXPECT_EQ(e.double_writes(), 2u);
  EXPECT_EQ(e.read(kPage - 6, 12),
            (std::vector<std::uint8_t>{5, 3, 1, 1, 2, 2, 2, 2, 1, 1, 4, 4}));
}

TEST(EepromPages, JournalTailAtDefaultCapacityResidesInOnePage) {
  Eeprom e;
  boot::ProgressJournal journal(e);
  EXPECT_EQ(journal.region_offset(), e.capacity() - 4096);
  EXPECT_EQ(journal.region_offset() % kPage, 0u);
  for (std::uint16_t unit = 1; unit <= 5; ++unit) {
    ASSERT_TRUE(journal.append(7, 5632, unit));
  }
  EXPECT_EQ(e.resident_pages(), 1u);
  const auto rec = journal.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->units, (std::vector<std::uint16_t>{1, 2, 3, 4, 5}));
}

TEST(EepromPages, TwoSegmentMnpRunKeepsImagePagesPlusTheJournal) {
  sim::Simulator sim(3);
  node::Network network(sim, net::Topology::grid(3, 3, 10.0),
                        [](const net::Topology& topo) {
                          return std::make_unique<net::DiskLinkModel>(topo, 15.0);
                        });
  core::MnpConfig cfg;
  cfg.journal_progress = true;
  const std::size_t bytes =
      std::size_t{2} * cfg.packets_per_segment * cfg.payload_bytes;
  auto image = std::make_shared<const core::ProgramImage>(
      7, bytes, cfg.packets_per_segment, cfg.payload_bytes);
  for (net::NodeId id = 0; id < network.size(); ++id) {
    network.node(id).set_application(
        id == 0 ? std::make_unique<core::MnpNode>(cfg, image)
                : std::make_unique<core::MnpNode>(cfg));
  }
  network.boot_all(sim::msec(50));
  ASSERT_TRUE(sim.run_until_condition(sim::hours(1), [&network] {
    return network.complete_image_count() == network.size();
  }));
  const std::size_t image_pages = (bytes + kPage - 1) / kPage;
  for (net::NodeId id = 1; id < network.size(); ++id) {
    SCOPED_TRACE("node " + std::to_string(id));
    Eeprom& e = network.node(id).eeprom();
    boot::ProgressJournal journal(e);
    EXPECT_EQ(journal.entries(), 2u);  // one record per segment
    EXPECT_GT(e.resident_pages(), image_pages);  // the journal page is there
    EXPECT_LE(e.resident_pages(), image_pages + 1);
    // Sized once when the advertisement named the image, never regrown.
    EXPECT_EQ(e.reserved_pages(), image_pages + 1);
    EXPECT_TRUE(image->matches(e.read(0, bytes)));
  }
}

TEST(EepromPages, ReserveImageSizesTheDirectoryForImageAndJournal) {
  Eeprom e;
  const std::size_t bytes = 22 * kPage - 10;  // 22 pages, the last partial
  e.reserve_image(bytes);
  const std::size_t reserved = e.reserved_pages();
  EXPECT_GE(reserved, 23u);
  // Writing the whole image and a journal slot fills it without regrowth.
  for (std::size_t at = 0; at < bytes; at += 100) {
    const std::size_t len = std::min<std::size_t>(100, bytes - at);
    ASSERT_TRUE(e.write(at, std::vector<std::uint8_t>(len, 0x5A)));
  }
  ASSERT_TRUE(e.write(e.capacity() - 4096, std::vector<std::uint8_t>(16, 1)));
  EXPECT_EQ(e.resident_pages(), 23u);
  EXPECT_EQ(e.reserved_pages(), reserved);
  // An image larger than the capacity reserves no more than the capacity.
  Eeprom small(4 * kPage);
  small.reserve_image(1 << 20);
  EXPECT_LE(small.reserved_pages(), 5u);
}

}  // namespace
}  // namespace mnp::storage
