// Minimal byte-buffer writer/reader for same-machine binary artifacts.
//
// The multi-process campaign path moves two kinds of bytes around:
// replication summaries over the coordinator/worker sockets, and journal
// records on disk. Both are written and read by processes of one build on
// one machine, so the encoding is deliberately plain: fixed-width
// host-endian PODs, memcpy'd — a double round-trips bitwise, which is what
// the byte-identity contract of the process lanes rests on. Nothing here is
// a wire format for foreign machines; the enclosing files/messages carry
// magic + version fields so a mismatched reader fails loudly instead of
// misparsing.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace dg::util {

/// FNV-1a 64-bit over a raw byte range — the checksum of journal records.
/// Chainable via the `h` parameter.
[[nodiscard]] inline std::uint64_t fnv1a64_bytes(const void* data, std::size_t size,
                                                 std::uint64_t h = 0xcbf29ce484222325ULL) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Appends the raw bytes of a trivially-copyable value to `out`.
template <typename T>
void put_pod(std::vector<std::uint8_t>& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>, "put_pod needs a trivially copyable type");
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

/// Bounds-checked reader over a byte range. Every underrun throws
/// std::runtime_error — a truncated journal tail surfaces as an exception
/// the caller turns into "treat as absent".
class ByteReader {
 public:
  ByteReader(const std::uint8_t* begin, const std::uint8_t* end) : cur_(begin), end_(end) {}
  ByteReader(const void* data, std::size_t size)
      : ByteReader(static_cast<const std::uint8_t*>(data),
                   static_cast<const std::uint8_t*>(data) + size) {}

  template <typename T>
  [[nodiscard]] T pod() {
    static_assert(std::is_trivially_copyable_v<T>, "pod() needs a trivially copyable type");
    T value;
    std::memcpy(&value, skip(sizeof(T)), sizeof(T));
    return value;
  }

  /// The current read position (e.g. to parse a nested record in place) —
  /// advanced past `bytes` without copying. Throws on underrun.
  [[nodiscard]] const std::uint8_t* skip(std::size_t bytes) {
    if (remaining() < bytes) throw std::runtime_error("ByteReader: truncated input");
    const std::uint8_t* at = cur_;
    cur_ += bytes;
    return at;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - cur_);
  }
  [[nodiscard]] bool exhausted() const noexcept { return cur_ == end_; }

 private:
  const std::uint8_t* cur_;
  const std::uint8_t* end_;
};

}  // namespace dg::util
