#include "storage/eeprom.hpp"

#include <algorithm>

namespace mnp::storage {

Eeprom::Eeprom(std::size_t capacity, energy::EnergyMeter* meter)
    : capacity_(capacity), meter_(meter) {}

std::vector<Eeprom::Page>::iterator Eeprom::lower_page(std::size_t index) {
  return std::lower_bound(
      pages_.begin(), pages_.end(), index,
      [](const Page& p, std::size_t i) { return p.index < i; });
}

Eeprom::Page& Eeprom::touch_page(std::size_t index) {
  auto it = lower_page(index);
  if (it == pages_.end() || it->index != index) {
    it = pages_.insert(it, Page{});
    it->index = index;
  }
  return *it;
}

bool Eeprom::write(std::size_t offset, const std::vector<std::uint8_t>& bytes) {
  if (offset > capacity_ || bytes.size() > capacity_ - offset) return false;
  bool overlap = false;
  for (std::size_t done = 0; done < bytes.size();) {
    const std::size_t at = offset + done;
    const std::size_t in = at % kPageBytes;
    const std::size_t len = std::min(bytes.size() - done, kPageBytes - in);
    Page& page = touch_page(at / kPageBytes);
    for (std::size_t b = in; b < in + len; ++b) {
      std::uint64_t& word = page.written[b / 64];
      const std::uint64_t bit = std::uint64_t{1} << (b % 64);
      overlap = overlap || (word & bit) != 0;
      word |= bit;
    }
    std::copy_n(bytes.begin() + static_cast<long>(done), len,
                page.data.begin() + static_cast<long>(in));
    done += len;
  }
  if (track_write_once_ && overlap) ++double_writes_;
  ++total_writes_;
  bytes_written_ += bytes.size();
  if (meter_) meter_->count_eeprom_write(bytes.size());
  return true;
}

std::vector<std::uint8_t> Eeprom::read(std::size_t offset, std::size_t length) {
  std::vector<std::uint8_t> out;
  read_into(offset, length, out);
  return out;
}

void Eeprom::read_into(std::size_t offset, std::size_t length,
                       std::vector<std::uint8_t>& out) {
  out.clear();
  if (offset > capacity_ || length > capacity_ - offset) return;
  ++total_reads_;
  if (meter_) meter_->count_eeprom_read(length);
  out.assign(length, 0);
  // Pages are ascending, so one probe finds the first resident page in
  // range and the rest follow in order; gaps stay zero.
  const std::size_t end = offset + length;
  for (auto it = lower_page(offset / kPageBytes);
       it != pages_.end() && it->index * kPageBytes < end; ++it) {
    const std::size_t base = it->index * kPageBytes;
    const std::size_t from = std::max(offset, base);
    const std::size_t to = std::min(end, base + kPageBytes);
    std::copy(it->data.begin() + static_cast<long>(from - base),
              it->data.begin() + static_cast<long>(to - base),
              out.begin() + static_cast<long>(from - offset));
  }
}

void Eeprom::reserve_image(std::size_t image_bytes) {
  const std::size_t bytes = std::min(image_bytes, capacity_);
  pages_.reserve((bytes + kPageBytes - 1) / kPageBytes + 1);
}

void Eeprom::erase() { pages_.clear(); }

}  // namespace mnp::storage
