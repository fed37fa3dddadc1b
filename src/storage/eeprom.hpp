// External flash (EEPROM) model of a Mica-2 mote.
//
// Mica-2/XSM motes carry a 512 KB external flash used as the staging area
// for incoming code images. The model stores bytes, charges the energy
// meter per access, and — because MNP guarantees every packet is written
// exactly once — can be armed to detect double writes to the same range.
//
// Storage is paged: a 256-byte page (with its own 256-bit written mask,
// so write-once detection stays byte-granular) is allocated on the first
// write that touches it, and the page directory is a sorted vector, so a
// node holding a ~6 KiB image plus its progress journal costs ~7 KiB, not
// the full capacity. Untouched bytes read as 0; capacity() is only the
// bound that range checks (and the journal's tail offset) use.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "energy/energy_meter.hpp"

namespace mnp::storage {

class Eeprom {
 public:
  static constexpr std::size_t kDefaultCapacity = 512 * 1024;
  static constexpr std::size_t kPageBytes = 256;

  /// `meter` may be null (no energy accounting). Not owned.
  explicit Eeprom(std::size_t capacity = kDefaultCapacity,
                  energy::EnergyMeter* meter = nullptr);

  std::size_t capacity() const { return capacity_; }

  /// Writes `bytes` at `offset`. Returns false (and writes nothing) if the
  /// range falls outside capacity.
  bool write(std::size_t offset, const std::vector<std::uint8_t>& bytes);

  /// Reads `length` bytes at `offset` into a fresh vector; empty on a
  /// range error.
  [[nodiscard]] std::vector<std::uint8_t> read(std::size_t offset,
                                               std::size_t length);

  /// Allocation-free variant: fills `out` (typically a pooled buffer) with
  /// the bytes; leaves it empty on a range error.
  void read_into(std::size_t offset, std::size_t length,
                 std::vector<std::uint8_t>& out);

  /// Sizes the page directory for an image of `image_bytes` stored from
  /// offset 0 plus the journal's first tail page, so a download fills it
  /// without regrowing it (growth by doubling left up to half of it
  /// unused). Protocols call it when they learn the image size; contents
  /// and counters are untouched.
  void reserve_image(std::size_t image_bytes);

  /// Erases all content and per-byte write marks (new reprogramming round).
  void erase();

  /// With write-once tracking on, a second write overlapping a previously
  /// written byte bumps `double_writes()` — the MNP invariant violation
  /// counter asserted on in tests.
  void set_track_write_once(bool on) { track_write_once_ = on; }
  std::uint64_t double_writes() const { return double_writes_; }

  std::uint64_t total_writes() const { return total_writes_; }
  std::uint64_t total_reads() const { return total_reads_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

  /// Pages allocated so far (each kPageBytes of content plus its mask).
  std::size_t resident_pages() const { return pages_.size(); }
  /// Page records the directory holds room for.
  std::size_t reserved_pages() const { return pages_.capacity(); }

 private:
  struct Page {
    std::size_t index = 0;  // covers [index * kPageBytes, +kPageBytes)
    std::array<std::uint8_t, kPageBytes> data{};
    std::array<std::uint64_t, kPageBytes / 64> written{};
  };

  /// First page whose index is >= `index`.
  std::vector<Page>::iterator lower_page(std::size_t index);
  /// The page covering `index`, allocated zero-filled on first touch.
  Page& touch_page(std::size_t index);

  std::size_t capacity_;
  std::vector<Page> pages_;  // ascending index
  energy::EnergyMeter* meter_;
  bool track_write_once_ = false;
  std::uint64_t double_writes_ = 0;
  std::uint64_t total_writes_ = 0;
  std::uint64_t total_reads_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace mnp::storage
