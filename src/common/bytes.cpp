#include "common/bytes.hpp"

#include <algorithm>
#include <cstdio>

namespace nvmeshare {

namespace {
// Cheap counter-mode mixer: word w of stream `seed` is mix(seed, w), and
// byte i is byte i % 8 of word i / 8, least significant first.
std::uint64_t pattern_word(std::uint64_t seed, std::size_t w) {
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (w + 1));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

void fill_pattern(ByteSpan dst, std::uint64_t seed) {
  for (std::size_t i = 0; i < dst.size(); i += 8) {
    const std::uint64_t x = pattern_word(seed, i / 8);
    const std::size_t n = std::min<std::size_t>(8, dst.size() - i);
    for (std::size_t k = 0; k < n; ++k) dst[i + k] = static_cast<std::byte>(x >> (k * 8));
  }
}

bool check_pattern(ConstByteSpan buf, std::uint64_t seed) {
  for (std::size_t i = 0; i < buf.size(); i += 8) {
    const std::uint64_t x = pattern_word(seed, i / 8);
    const std::size_t n = std::min<std::size_t>(8, buf.size() - i);
    for (std::size_t k = 0; k < n; ++k) {
      if (buf[i + k] != static_cast<std::byte>(x >> (k * 8))) return false;
    }
  }
  return true;
}

Bytes make_pattern(std::size_t n, std::uint64_t seed) {
  Bytes out(n);
  fill_pattern(out, seed);
  return out;
}

std::string hexdump(ConstByteSpan buf, std::size_t max_bytes) {
  std::string out;
  const std::size_t n = buf.size() < max_bytes ? buf.size() : max_bytes;
  for (std::size_t base = 0; base < n; base += 16) {
    char line[80];
    int pos = std::snprintf(line, sizeof(line), "%08zx: ", base);
    for (std::size_t i = base; i < base + 16 && i < n; ++i) {
      pos += std::snprintf(line + pos, sizeof(line) - static_cast<std::size_t>(pos), "%02x ",
                           static_cast<unsigned>(buf[i]));
    }
    out += line;
    out += '\n';
  }
  if (n < buf.size()) out += "...\n";
  return out;
}

}  // namespace nvmeshare
