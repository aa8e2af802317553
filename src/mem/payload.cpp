#include "mem/payload.hpp"

#include <cstring>
#include <new>

#include "sim/pool.hpp"

namespace nvmeshare::mem {

Payload Payload::copy_of(ConstByteSpan bytes) {
  Payload p;
  p.append_bytes(bytes);
  return p;
}

Payload::Piece* Payload::open_tail() noexcept {
  if (rec_ == nullptr || rec_->count == 0) return nullptr;
  Piece& tail = rec_->pieces()[rec_->count - 1];
  return tail.len < kPageSize ? &tail : nullptr;
}

void Payload::push(PageRef page, std::uint32_t len) {
  if (rec_ == nullptr || rec_->count == rec_->cap) {
    const std::uint32_t cap = rec_ == nullptr ? kInlinePieces : 2 * rec_->cap;
    void* block = sim::pool::allocate(rec_bytes(cap));
    Rec* grown = ::new (block) Rec{rec_ == nullptr ? 0 : rec_->size, 0, cap};
    if (rec_ != nullptr) {
      for (std::uint32_t i = 0; i < rec_->count; ++i) {
        Piece& old = rec_->pieces()[i];
        ::new (&grown->pieces()[i]) Piece{std::move(old.page), old.len};
        old.~Piece();
      }
      grown->count = rec_->count;
      rec_->count = 0;
      clear();
    }
    rec_ = grown;
  }
  ::new (&rec_->pieces()[rec_->count]) Piece{std::move(page), len};
  ++rec_->count;
  rec_->size += len;
}

void Payload::append_page(const PageRef& page) {
  push(page, static_cast<std::uint32_t>(kPageSize));
}

void Payload::append_zeros(std::uint64_t n) {
  while (n > 0) {
    if (Piece* tail = open_tail()) {
      const auto take = static_cast<std::uint32_t>(std::min(n, kPageSize - tail->len));
      if (tail->page) std::memset(tail->page.writable(false) + tail->len, 0, take);
      tail->len += take;
      rec_->size += take;
      n -= take;
    } else {
      const auto take = static_cast<std::uint32_t>(std::min(n, kPageSize));
      push(PageRef(), take);
      n -= take;
    }
  }
}

void Payload::append_bytes(ConstByteSpan bytes) {
  while (!bytes.empty()) {
    if (Piece* tail = open_tail()) {
      const auto take =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(bytes.size(), kPageSize - tail->len));
      std::memcpy(tail->page.writable(false) + tail->len, bytes.data(), take);
      tail->len += take;
      rec_->size += take;
      bytes = bytes.subspan(take);
    } else {
      const auto take =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(bytes.size(), kPageSize));
      PageRef page;
      std::memcpy(page.writable(/*overwrite=*/true), bytes.data(), take);
      push(std::move(page), take);
      bytes = bytes.subspan(take);
    }
  }
}

void Payload::copy_out(std::uint64_t off, ByteSpan out) const noexcept {
  if (out.empty()) return;
  PayloadReader in(*this);
  in.skip(off);
  in.read(out);
}

Bytes Payload::to_bytes() const {
  Bytes out(size());
  copy_out(0, out);
  return out;
}

void Payload::flip_bit(std::uint64_t bit) {
  std::uint64_t at = bit / 8;
  for (std::uint32_t i = 0; rec_ != nullptr && i < rec_->count; ++i) {
    Piece& piece = rec_->pieces()[i];
    if (at < piece.len) {
      piece.page.writable(false)[at] ^= std::byte{1} << (bit % 8);
      return;
    }
    at -= piece.len;
  }
}

void Payload::truncate(std::uint64_t n) noexcept {
  if (n >= size()) return;
  std::uint64_t start = 0;
  std::uint32_t keep = 0;
  Piece* pieces = rec_->pieces();
  for (; keep < rec_->count && start + pieces[keep].len <= n; ++keep) start += pieces[keep].len;
  if (start < n) {
    pieces[keep].len = static_cast<std::uint32_t>(n - start);
    ++keep;
  }
  for (std::uint32_t i = keep; i < rec_->count; ++i) pieces[i].~Piece();
  rec_->count = keep;
  rec_->size = n;
}

void Payload::zero() noexcept {
  for (std::uint32_t i = 0; rec_ != nullptr && i < rec_->count; ++i) {
    rec_->pieces()[i].page.reset();
  }
}

void Payload::clear() noexcept {
  if (rec_ == nullptr) return;
  for (std::uint32_t i = 0; i < rec_->count; ++i) rec_->pieces()[i].~Piece();
  const std::uint32_t cap = rec_->cap;
  rec_->~Rec();
  sim::pool::deallocate(rec_, rec_bytes(cap));
  rec_ = nullptr;
}

// --- PayloadReader ---------------------------------------------------------------

PayloadReader::PayloadReader(const Payload& p) noexcept
    : piece_(p.rec_ == nullptr ? nullptr : p.rec_->pieces()), remaining_(p.size()) {}

void PayloadReader::read(ByteSpan out) noexcept {
  std::byte* to = out.data();
  std::uint64_t n = std::min<std::uint64_t>(out.size(), remaining_);
  remaining_ -= n;
  while (n > 0) {
    const auto take = static_cast<std::uint32_t>(std::min<std::uint64_t>(n, piece_->len - at_));
    if (piece_->page) {
      std::memcpy(to, piece_->page.data() + at_, take);
    } else {
      std::memset(to, 0, take);
    }
    to += take;
    n -= take;
    at_ += take;
    if (at_ == piece_->len) {
      ++piece_;
      at_ = 0;
    }
  }
}

void PayloadReader::skip(std::uint64_t n) noexcept {
  n = std::min(n, remaining_);
  remaining_ -= n;
  while (n > 0) {
    const auto take = static_cast<std::uint32_t>(std::min<std::uint64_t>(n, piece_->len - at_));
    n -= take;
    at_ += take;
    if (at_ == piece_->len) {
      ++piece_;
      at_ = 0;
    }
  }
}

}  // namespace nvmeshare::mem
