#include "net/packet.h"

#include <algorithm>

#include "common/assert.h"

namespace netco::net {

Packet::Buffer& Packet::detach() {
  if (buffer_ == nullptr) {
    buffer_ = std::make_shared<Buffer>(std::vector<std::byte>{});
  } else if (buffer_.use_count() > 1) {
    // Shared: clone the bytes into a private buffer. The clone starts with
    // no memoized hashes — the caller is about to change the payload.
    buffer_ = std::make_shared<Buffer>(buffer_->bytes);
  } else {
    // Already unique: mutate in place, but the memos describe the
    // pre-mutation payload and must die with it.
    buffer_->invalidate_hashes();
  }
  return *buffer_;
}

std::span<std::byte> Packet::bytes_mut() { return detach().bytes; }

std::span<const std::byte> Packet::slice(std::size_t offset,
                                         std::size_t len) const {
  NETCO_ASSERT(offset + len <= size());
  return bytes().subspan(offset, len);
}

std::uint8_t Packet::u8(std::size_t offset) const {
  NETCO_ASSERT(offset < size());
  return static_cast<std::uint8_t>(buffer_->bytes[offset]);
}

std::uint16_t Packet::u16be(std::size_t offset) const {
  NETCO_ASSERT(offset + 2 <= size());
  return static_cast<std::uint16_t>((u8(offset) << 8) | u8(offset + 1));
}

std::uint32_t Packet::u32be(std::size_t offset) const {
  NETCO_ASSERT(offset + 4 <= size());
  return (std::uint32_t{u8(offset)} << 24) | (std::uint32_t{u8(offset + 1)} << 16) |
         (std::uint32_t{u8(offset + 2)} << 8) | std::uint32_t{u8(offset + 3)};
}

void Packet::set_u8(std::size_t offset, std::uint8_t value) {
  Buffer& buffer = detach();
  NETCO_ASSERT(offset < buffer.bytes.size());
  buffer.bytes[offset] = static_cast<std::byte>(value);
}

void Packet::set_u16be(std::size_t offset, std::uint16_t value) {
  set_u8(offset, static_cast<std::uint8_t>(value >> 8));
  set_u8(offset + 1, static_cast<std::uint8_t>(value & 0xFF));
}

void Packet::set_u32be(std::size_t offset, std::uint32_t value) {
  set_u8(offset, static_cast<std::uint8_t>(value >> 24));
  set_u8(offset + 1, static_cast<std::uint8_t>((value >> 16) & 0xFF));
  set_u8(offset + 2, static_cast<std::uint8_t>((value >> 8) & 0xFF));
  set_u8(offset + 3, static_cast<std::uint8_t>(value & 0xFF));
}

MacAddress Packet::mac_at(std::size_t offset) const {
  NETCO_ASSERT(offset + 6 <= size());
  std::array<std::uint8_t, 6> octets{};
  for (std::size_t i = 0; i < 6; ++i) octets[i] = u8(offset + i);
  return MacAddress(octets);
}

void Packet::set_mac_at(std::size_t offset, const MacAddress& mac) {
  NETCO_ASSERT(offset + 6 <= size());
  for (std::size_t i = 0; i < 6; ++i) set_u8(offset + i, mac.octets()[i]);
}

void Packet::append(std::span<const std::byte> data) {
  Buffer& buffer = detach();
  buffer.bytes.insert(buffer.bytes.end(), data.begin(), data.end());
}

void Packet::resize(std::size_t new_size) {
  if (new_size == size()) return;
  detach().bytes.resize(new_size);
}

void Packet::insert_zeros(std::size_t offset, std::size_t count) {
  NETCO_ASSERT(offset <= size());
  Buffer& buffer = detach();
  buffer.bytes.insert(buffer.bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                      count, std::byte{0});
}

void Packet::erase(std::size_t offset, std::size_t count) {
  NETCO_ASSERT(offset + count <= size());
  Buffer& buffer = detach();
  const auto first =
      buffer.bytes.begin() + static_cast<std::ptrdiff_t>(offset);
  buffer.bytes.erase(first, first + static_cast<std::ptrdiff_t>(count));
}

std::uint64_t Packet::content_hash() const noexcept {
  if (buffer_ == nullptr) return kFnvOffset;  // fnv1a over zero bytes
  if (!buffer_->content_hash_valid) {
    buffer_->content_hash = fnv1a(buffer_->bytes);
    buffer_->content_hash_valid = true;
  }
  return buffer_->content_hash;
}

std::uint64_t Packet::prefix_hash(std::size_t prefix_len) const noexcept {
  if (buffer_ == nullptr) return kFnvOffset;
  const std::size_t n = std::min(prefix_len, buffer_->bytes.size());
  if (n == buffer_->bytes.size()) return content_hash();  // whole-buffer prefix
  if (!buffer_->prefix_hash_valid || buffer_->prefix_len != n) {
    buffer_->prefix_hash =
        fnv1a(std::span<const std::byte>(buffer_->bytes).first(n));
    buffer_->prefix_len = n;
    buffer_->prefix_hash_valid = true;
  }
  return buffer_->prefix_hash;
}

bool operator==(const Packet& a, const Packet& b) noexcept {
  if (a.buffer_ == b.buffer_) return true;  // shared payload (or both empty)
  const auto pa = a.bytes();
  const auto pb = b.bytes();
  if (pa.size() != pb.size()) return false;
  if (a.buffer_ != nullptr && b.buffer_ != nullptr &&
      a.buffer_->content_hash_valid && b.buffer_->content_hash_valid &&
      a.buffer_->content_hash != b.buffer_->content_hash) {
    return false;  // memoized hashes disagree — contents must differ
  }
  return std::equal(pa.begin(), pa.end(), pb.begin());
}

}  // namespace netco::net
