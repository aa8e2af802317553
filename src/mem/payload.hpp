// Bytes in flight between memories: the data of one DMA, RDMA message or
// media access.
//
// A payload is a sequence of pieces, each the leading `len` bytes of one
// page. A run that covers a whole aligned page of its source travels as a
// reference to that page; any other run is copied, packed into pages the
// payload owns. So a payload carries whole pages without reading their
// bytes, and a destination page that lines up with a whole piece takes the
// page by reference too (PhysMem::write, nvme::BlockStore::write). Pages
// are copy-on-write (mem/page.hpp): the payload keeps the bytes its source
// held when it was built, whatever the source stores afterwards.
//
// A payload is one pointer, cheap to move into an engine event. Its pieces
// live in a record from sim::pool with room for one MDTS transfer (32
// pages plus one unaligned edge), so a warm simulator builds payloads
// without calling the global allocator.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/bytes.hpp"
#include "mem/page.hpp"

namespace nvmeshare::mem {

class PayloadReader;

class Payload {
 public:
  /// Pieces a payload holds before its record grows: 128 KiB that starts
  /// inside a page spans 33 pages.
  static constexpr std::uint32_t kInlinePieces = 33;

  Payload() = default;
  Payload(Payload&& other) noexcept : rec_(std::exchange(other.rec_, nullptr)) {}
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      clear();
      rec_ = std::exchange(other.rec_, nullptr);
    }
    return *this;
  }
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;
  ~Payload() { clear(); }

  /// A payload holding a copy of `bytes`.
  [[nodiscard]] static Payload copy_of(ConstByteSpan bytes);

  [[nodiscard]] std::uint64_t size() const noexcept { return rec_ == nullptr ? 0 : rec_->size; }

  /// Append one whole page by reference; a null page appends kPageSize
  /// zeros.
  void append_page(const PageRef& page);
  void append_zeros(std::uint64_t n);
  /// Append a copy of `bytes`.
  void append_bytes(ConstByteSpan bytes);

  /// Copy [off, off + out.size()) out; the range must lie inside size().
  void copy_out(std::uint64_t off, ByteSpan out) const noexcept;
  [[nodiscard]] Bytes to_bytes() const;

  // --- fault damage: changes this in-flight copy only --------------------------

  /// Invert one bit; the page it lies in stops being shared.
  void flip_bit(std::uint64_t bit);
  /// Keep only the leading `n` bytes (a torn transfer).
  void truncate(std::uint64_t n) noexcept;
  /// Make every byte zero, keeping the size (a stale read).
  void zero() noexcept;

 private:
  friend class PayloadReader;

  struct Piece {
    PageRef page;  ///< null: `len` zeros
    std::uint32_t len = 0;
  };
  struct Rec {
    std::uint64_t size = 0;
    std::uint32_t count = 0;
    std::uint32_t cap = 0;
    /// The pieces follow the record in its allocation.
    [[nodiscard]] Piece* pieces() noexcept { return reinterpret_cast<Piece*>(this + 1); }
  };

  [[nodiscard]] static std::size_t rec_bytes(std::uint32_t cap) noexcept {
    return sizeof(Rec) + std::size_t{cap} * sizeof(Piece);
  }
  /// The piece the next appended bytes may extend: the last one, when it
  /// is shorter than a page. Null otherwise.
  [[nodiscard]] Piece* open_tail() noexcept;
  void push(PageRef page, std::uint32_t len);
  /// Release every page and the record.
  void clear() noexcept;

  Rec* rec_ = nullptr;
};

/// Reads a payload front to back, the way an install into memory or media
/// consumes it. A plain cursor: copying it copies the position.
class PayloadReader {
 public:
  explicit PayloadReader(const Payload& p) noexcept;

  [[nodiscard]] std::uint64_t remaining() const noexcept { return remaining_; }
  /// The page holding the next kPageSize bytes when they are exactly one
  /// whole piece, else nullptr. The page may be null: kPageSize zeros.
  [[nodiscard]] const PageRef* whole_page() const noexcept {
    return remaining_ >= kPageSize && at_ == 0 && piece_->len == kPageSize ? &piece_->page
                                                                           : nullptr;
  }
  /// Copy the next out.size() (at most remaining()) bytes and move past them.
  void read(ByteSpan out) noexcept;
  void skip(std::uint64_t n) noexcept;

 private:
  const Payload::Piece* piece_ = nullptr;
  std::uint32_t at_ = 0;  ///< offset into *piece_
  std::uint64_t remaining_ = 0;
};

}  // namespace nvmeshare::mem

namespace nvmeshare {

/// Copy a trivially-copyable value out of a payload, like load_pod() on a
/// byte range.
template <typename T>
[[nodiscard]] T load_pod(const mem::Payload& src, std::size_t offset = 0) {
  static_assert(std::is_trivially_copyable_v<T>);
  T out{};
  src.copy_out(offset, as_writable_bytes_of(out));
  return out;
}

}  // namespace nvmeshare
