// Byte-buffer primitives: a shared immutable Buffer, an append-only
// BufferWriter, and little-endian and varint readers/writers. These
// underlie every serialization path in the repo (columnar IPC,
// Parquet-lite pages, Substrait wire format, RPC frames), so they are
// kept allocation-frugal and bounds-checked.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace pocs {

using Bytes = std::vector<uint8_t>;
using ByteSpan = std::span<const uint8_t>;

// A read-only byte range that shares ownership of the bytes it views: a
// slice of an RPC response frame or of a decoded page, or bytes a column
// built for itself. Slices of one owner keep the whole owner alive, so
// handing a slice on copies no bytes. Append grows the buffer in place
// only while it alone holds bytes it built; otherwise it first copies the
// view into bytes of its own (copy on write).
class Buffer {
 public:
  Buffer() = default;
  // A view of `size` bytes at `data`, which `owner` keeps alive.
  Buffer(std::shared_ptr<const void> owner, const uint8_t* data, size_t size)
      : owner_(std::move(owner)), data_(data), size_(size) {}
  // Adopts a contiguous container (Bytes, a typed vector, a string)
  // without copying its elements.
  template <typename Container>
  static Buffer Adopt(Container container) {
    if (container.empty()) return Buffer();
    auto owner = std::make_shared<const Container>(std::move(container));
    const auto* data = reinterpret_cast<const uint8_t*>(owner->data());
    const size_t size = owner->size() * sizeof(typename Container::value_type);
    return Buffer(std::move(owner), data, size);
  }
  static Buffer Copy(ByteSpan bytes) {
    if (bytes.empty()) return Buffer();
    auto owner = std::make_shared<const Bytes>(bytes.begin(), bytes.end());
    const uint8_t* data = owner->data();
    return Buffer(std::move(owner), data, bytes.size());
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  ByteSpan span() const { return ByteSpan(data_, size_); }
  // The bytes as `T`s; the caller guarantees the alignment of T.
  template <typename T>
  std::span<const T> As() const {
    POCS_DCHECK_EQ(reinterpret_cast<uintptr_t>(data_) % alignof(T), 0u);
    return std::span<const T>(reinterpret_cast<const T*>(data_),
                              size_ / sizeof(T));
  }
  // `size` bytes from `offset`, sharing this buffer's owner.
  Buffer Slice(size_t offset, size_t size) const {
    POCS_DCHECK_LE(offset + size, size_);
    return Buffer(owner_, data_ + offset, size);
  }
  const std::shared_ptr<const void>& owner() const { return owner_; }

  // Appends `n` bytes and returns where they go; the bytes are the
  // caller's to fill.
  uint8_t* Append(size_t n) {
    if (!Writable()) Own(std::max(size_ + n, 2 * size_));
    growable_->resize(size_ + n);
    data_ = growable_->data();
    size_ += n;
    return growable_->data() + size_ - n;
  }
  // Room for `n` bytes in all without reallocating.
  void Reserve(size_t n) {
    if (n > size_) Own(n);
  }

  bool operator==(const Buffer& other) const {
    return std::ranges::equal(span(), other.span());
  }

 private:
  bool Writable() const {
    return growable_ != nullptr && owner_.use_count() == 1;
  }
  // Makes the bytes this buffer's own, with room for `capacity`.
  void Own(size_t capacity) {
    if (!Writable()) {
      auto own = std::make_shared<Bytes>();
      own->reserve(capacity);
      own->assign(data_, data_ + size_);
      growable_ = own.get();
      owner_ = std::move(own);
    }
    growable_->reserve(capacity);
    data_ = growable_->data();
  }

  std::shared_ptr<const void> owner_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  // The Bytes behind owner_ when this buffer built them; written in place
  // only while owner_ has no other holder.
  Bytes* growable_ = nullptr;
};

// Growable output buffer with typed little-endian appends.
class BufferWriter {
 public:
  BufferWriter() = default;
  explicit BufferWriter(size_t reserve) { data_.reserve(reserve); }

  void WriteBytes(const void* src, size_t n) {
    const auto* p = static_cast<const uint8_t*>(src);
    data_.insert(data_.end(), p, p + n);
  }
  void WriteBytes(ByteSpan span) { WriteBytes(span.data(), span.size()); }

  template <typename T>
  void WriteLE(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(&value, sizeof(T));  // host is little-endian (x86-64/aarch64)
  }

  void WriteU8(uint8_t v) { data_.push_back(v); }

  // LEB128 unsigned varint.
  void WriteVarint(uint64_t v) {
    while (v >= 0x80) {
      data_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    data_.push_back(static_cast<uint8_t>(v));
  }

  // ZigZag-encoded signed varint.
  void WriteSVarint(int64_t v) {
    WriteVarint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }

  void WriteString(std::string_view s) {
    WriteVarint(s.size());
    WriteBytes(s.data(), s.size());
  }

  // Zero bytes up to the next multiple of 8 from the writer's start.
  void Align8() { data_.resize((data_.size() + 7) & ~size_t{7}); }

  // Patch a previously written fixed-width little-endian value.
  template <typename T>
  void PatchLE(size_t offset, T value) {
    POCS_DCHECK_LE(offset + sizeof(T), data_.size());
    std::memcpy(data_.data() + offset, &value, sizeof(T));
  }

  size_t size() const { return data_.size(); }
  const Bytes& data() const { return data_; }
  Bytes&& Take() { return std::move(data_); }
  ByteSpan span() const { return ByteSpan(data_.data(), data_.size()); }

 private:
  Bytes data_;
};

// Bounds-checked reader over a byte span. All reads return Status on
// underflow so corrupt inputs surface as Corruption, never UB.
class BufferReader {
 public:
  explicit BufferReader(ByteSpan data) : data_(data) {}
  BufferReader(const void* data, size_t n)
      : data_(static_cast<const uint8_t*>(data), n) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ >= data_.size(); }

  Status ReadBytes(void* dst, size_t n) {
    if (remaining() < n) {
      return Status::Corruption("buffer underflow: need " + std::to_string(n) +
                                " bytes, have " + std::to_string(remaining()));
    }
    // n == 0 is a valid read (e.g. an empty column payload) where dst may
    // be null; memcpy requires non-null pointers even for zero lengths.
    if (n > 0) std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Result<ByteSpan> ReadSpan(size_t n) {
    if (remaining() < n) {
      return Status::Corruption("buffer underflow reading span of " +
                                std::to_string(n));
    }
    ByteSpan out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  template <typename T>
  Result<T> ReadLE() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    POCS_RETURN_NOT_OK(ReadBytes(&v, sizeof(T)));
    return v;
  }

  Result<uint8_t> ReadU8() { return ReadLE<uint8_t>(); }

  Result<uint64_t> ReadVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (exhausted()) return Status::Corruption("truncated varint");
      if (shift >= 64) return Status::Corruption("varint overflow");
      uint8_t b = data_[pos_++];
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) break;
      shift += 7;
    }
    return v;
  }

  Result<int64_t> ReadSVarint() {
    POCS_ASSIGN_OR_RETURN(uint64_t raw, ReadVarint());
    return static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  }

  Result<std::string> ReadString() {
    POCS_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
    if (remaining() < n) return Status::Corruption("truncated string");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  // Skips the zero bytes up to the next multiple of 8 from the start of
  // the reader's span; a nonzero padding byte is Corruption.
  Status Align8() {
    const size_t to = (pos_ + 7) & ~size_t{7};
    if (to > data_.size()) return Status::Corruption("truncated padding");
    for (; pos_ < to; ++pos_) {
      if (data_[pos_] != 0) return Status::Corruption("nonzero padding");
    }
    return Status::OK();
  }

  Status Skip(size_t n) {
    if (remaining() < n) return Status::Corruption("skip past end");
    pos_ += n;
    return Status::OK();
  }

  Status SeekTo(size_t pos) {
    if (pos > data_.size()) return Status::Corruption("seek past end");
    pos_ = pos;
    return Status::OK();
  }

 private:
  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace pocs
