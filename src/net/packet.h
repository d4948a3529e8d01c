// Packet: the unit of data exchanged by every simulated component.
//
// A Packet is a value type with copy-on-write payload sharing: the wire
// bytes (network byte order, starting at the Ethernet header, no
// preamble/FCS) live in a refcounted immutable buffer, so copying a
// Packet — the hub's k-fold fan-out, link transmission, compare cache
// entries — is a refcount bump, not a deep copy. Any mutator detaches a
// private buffer first, which preserves exact value semantics: mutating
// one copy never affects its siblings.
//
// The buffer also memoizes the FNV-1a content hash (and the last prefix
// hash), computed at most once per payload *generation* — every copy that
// shares the buffer shares the hash, and any mutation invalidates it. The
// compare element's "bit-by-bit" comparison from the paper is literally
// `a == b` over the byte buffers, i.e. memcmp semantics; two packets
// sharing one buffer short-circuit to pointer equality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/hash.h"
#include "net/address.h"

namespace netco::net {

/// Comparable, hashable byte buffer with big-endian accessors and
/// copy-on-write payload sharing.
class Packet {
 public:
  /// Empty packet (size 0). Rarely useful except as a placeholder.
  Packet() = default;

  /// Takes ownership of raw wire bytes.
  explicit Packet(std::vector<std::byte> bytes)
      : buffer_(std::make_shared<Buffer>(std::move(bytes))) {}

  /// A packet of `size` zero bytes.
  static Packet zeroed(std::size_t size) {
    return Packet(std::vector<std::byte>(size));
  }

  /// Number of wire bytes (Ethernet header through end of payload).
  [[nodiscard]] std::size_t size() const noexcept {
    return buffer_ == nullptr ? 0 : buffer_->bytes.size();
  }

  /// True for a zero-length buffer.
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Read-only view of all wire bytes. The view stays valid while any
  /// Packet (or copy) keeps the underlying buffer alive and unmutated.
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return buffer_ == nullptr ? std::span<const std::byte>{}
                              : std::span<const std::byte>(buffer_->bytes);
  }

  /// Mutable view of all wire bytes. Detaches from any shared buffer and
  /// invalidates the memoized hashes — treat every call as a mutation.
  [[nodiscard]] std::span<std::byte> bytes_mut();

  /// Read-only view of a sub-range; bounds-checked by assertion.
  [[nodiscard]] std::span<const std::byte> slice(std::size_t offset,
                                                 std::size_t len) const;

  // --- big-endian scalar accessors -------------------------------------
  [[nodiscard]] std::uint8_t u8(std::size_t offset) const;
  [[nodiscard]] std::uint16_t u16be(std::size_t offset) const;
  [[nodiscard]] std::uint32_t u32be(std::size_t offset) const;
  void set_u8(std::size_t offset, std::uint8_t value);
  void set_u16be(std::size_t offset, std::uint16_t value);
  void set_u32be(std::size_t offset, std::uint32_t value);

  /// Reads/writes a 6-byte MAC address at `offset`.
  [[nodiscard]] MacAddress mac_at(std::size_t offset) const;
  void set_mac_at(std::size_t offset, const MacAddress& mac);

  /// Appends raw bytes at the tail (used by builders).
  void append(std::span<const std::byte> data);

  /// Grows/shrinks to `size`, zero-filling new bytes.
  void resize(std::size_t size);

  /// Inserts `count` zero bytes at `offset` (used to push a VLAN tag in).
  void insert_zeros(std::size_t offset, std::size_t count);

  /// Removes `count` bytes at `offset` (used to strip a VLAN tag).
  void erase(std::size_t offset, std::size_t count);

  /// FNV-1a hash over all wire bytes (the compare's "hashed" mode key and
  /// the tracer's stable packet id). Memoized: computed once per payload
  /// generation and shared by every copy aliasing the buffer.
  [[nodiscard]] std::uint64_t content_hash() const noexcept;

  /// FNV-1a hash over the first `prefix_len` bytes (header-only mode).
  /// The most recent prefix length is memoized alongside the content hash
  /// (the compare always asks for its one configured prefix).
  [[nodiscard]] std::uint64_t prefix_hash(std::size_t prefix_len) const noexcept;

  /// Bitwise equality — the paper's memcmp() compare. Copies sharing one
  /// buffer compare equal in O(1); distinct buffers with both hashes
  /// memoized and different short-circuit to unequal.
  friend bool operator==(const Packet& a, const Packet& b) noexcept;

  /// True when both packets alias the same payload buffer (COW fast-path
  /// introspection for tests and benches; equality is implied).
  [[nodiscard]] bool shares_payload_with(const Packet& other) const noexcept {
    return buffer_ != nullptr && buffer_ == other.buffer_;
  }

 private:
  /// The refcounted payload. Immutable while shared; the hash memos are
  /// logically part of the payload value (mutable because memoization must
  /// work through const packets).
  struct Buffer {
    explicit Buffer(std::vector<std::byte> b) : bytes(std::move(b)) {}
    std::vector<std::byte> bytes;
    mutable std::uint64_t content_hash = 0;
    mutable std::uint64_t prefix_hash = 0;
    mutable std::size_t prefix_len = 0;
    mutable bool content_hash_valid = false;
    mutable bool prefix_hash_valid = false;

    void invalidate_hashes() const noexcept {
      content_hash_valid = false;
      prefix_hash_valid = false;
    }
  };

  /// Ensures a uniquely owned buffer (cloning if shared, allocating if
  /// null) and invalidates the memoized hashes. Every mutator funnels
  /// through here — that is the whole COW invariant.
  Buffer& detach();

  std::shared_ptr<Buffer> buffer_;
};

}  // namespace netco::net
