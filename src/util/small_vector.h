#ifndef FIVM_UTIL_SMALL_VECTOR_H_
#define FIVM_UTIL_SMALL_VECTOR_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace fivm::util {

/// A vector with inline storage for up to `N` elements. Falls back to the
/// heap once the inline capacity is exceeded. Used pervasively for tuples,
/// schemas, and adjacency lists, where the common case is a handful of
/// elements and heap allocation per object would dominate.
///
/// Layout: the inline buffer and the heap pointer share one union, and the
/// vector is inline iff `capacity_ <= N` (a heap buffer is always larger
/// than N). The header beside the storage is two 32-bit counts, 8 bytes, so
/// `SmallVector<Value, 3>` is 56 bytes and a Tuple key fits one 64-byte
/// cache line. Sizes are capped below 2^32 elements.
template <typename T, size_t N>
class SmallVector {
  static_assert(N < std::numeric_limits<uint32_t>::max(),
                "inline capacity must fit the 32-bit capacity field");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() {}

  explicit SmallVector(size_t n) { resize(n); }

  SmallVector(size_t n, const T& value) {
    reserve(n);
    for (size_t i = 0; i < n; ++i) push_back(value);
  }

  SmallVector(std::initializer_list<T> init) {
    reserve(init.size());
    for (const T& v : init) push_back(v);
  }

  template <typename It>
  SmallVector(It first, It last) {
    for (; first != last; ++first) push_back(*first);
  }

  SmallVector(const SmallVector& other) {
    reserve(other.size_);
    CopyAppend(other.data(), other.size_);
  }

  SmallVector(SmallVector&& other) noexcept { MoveFrom(std::move(other)); }

  SmallVector& operator=(const SmallVector& other) {
    if (this == &other) return *this;
    clear();
    reserve(other.size_);
    CopyAppend(other.data(), other.size_);
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this == &other) return *this;
    Destroy();
    MoveFrom(std::move(other));
    return *this;
  }

  ~SmallVector() { Destroy(); }

  T* data() { return IsInline() ? InlineData() : heap_; }
  const T* data() const {
    return IsInline() ? reinterpret_cast<const T*>(inline_storage_) : heap_;
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  T& operator[](size_t i) {
    assert(i < size_);
    return data()[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return data()[i];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  void push_back(const T& v) { emplace_back(v); }

  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      return GrowAndAppend(T(std::forward<Args>(args)...));
    }
    T* p = new (data() + size_) T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

  void pop_back() {
    assert(size_ > 0);
    --size_;
    data()[size_].~T();
  }

  void clear() {
    T* d = data();
    for (size_t i = 0; i < size_; ++i) d[i].~T();
    size_ = 0;
  }

  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }

  void resize(size_t n) {
    if (n < size_) {
      T* d = data();
      for (size_t i = n; i < size_; ++i) d[i].~T();
    } else {
      reserve(n);
      T* d = data();
      for (size_t i = size_; i < n; ++i) new (d + i) T();
    }
    size_ = static_cast<uint32_t>(n);
  }

  /// Sets the size to `n` without value-initializing grown elements —
  /// callers promise to overwrite every new element before reading it.
  /// Only meaningful for trivial element types (the double payload buffers
  /// of the ring kernels, which fill the whole buffer with one pass and
  /// must not pay a zero-fill first); falls back to value-initializing
  /// resize otherwise.
  void resize_uninitialized(size_t n) {
    if constexpr (std::is_trivially_default_constructible_v<T> &&
                  std::is_trivially_destructible_v<T>) {
      reserve(n);
      size_ = static_cast<uint32_t>(n);
    } else {
      resize(n);
    }
  }

  iterator erase(iterator pos) {
    assert(pos >= begin() && pos < end());
    std::move(pos + 1, end(), pos);
    pop_back();
    return pos;
  }

  bool operator==(const SmallVector& other) const {
    if (size_ != other.size_) return false;
    return std::equal(begin(), end(), other.begin());
  }

  bool operator!=(const SmallVector& other) const { return !(*this == other); }

  bool operator<(const SmallVector& other) const {
    return std::lexicographical_compare(begin(), end(), other.begin(),
                                        other.end());
  }

 private:
  static constexpr size_t kMaxCapacity = std::numeric_limits<uint32_t>::max();

  bool IsInline() const { return capacity_ <= N; }
  T* InlineData() { return reinterpret_cast<T*>(inline_storage_); }

  // Bulk copy into the tail; requires reserved capacity. memcpy for
  // trivially copyable element types (e.g. Value), which is the hot path of
  // tuple key copies.
  void CopyAppend(const T* src, size_t n) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      std::memcpy(data() + size_, src, n * sizeof(T));
      size_ += static_cast<uint32_t>(n);
    } else {
      for (size_t i = 0; i < n; ++i) push_back(src[i]);
    }
  }

  // The full-vector append. `v` is built before growing because the
  // arguments may refer into this vector: Grow frees a heap buffer, and
  // the heap pointer it stores overwrites the inline storage.
  T& GrowAndAppend(T&& v) {
    Grow(size_t{capacity_} * 2);
    T* p = new (data() + size_) T(std::move(v));
    ++size_;
    return *p;
  }

  // Moves the elements to a fresh heap buffer of at least `new_capacity`.
  // The size check stays in every build: the 32-bit counts must not wrap.
  void Grow(size_t new_capacity) {
    new_capacity = std::max<size_t>(new_capacity, N + 1);
    if (new_capacity <= capacity_) return;
    if (new_capacity > kMaxCapacity) {
      throw std::length_error("SmallVector: capacity exceeds 2^32 - 1");
    }
    T* new_data =
        static_cast<T*>(::operator new(new_capacity * sizeof(T),
                                       std::align_val_t(alignof(T))));
    T* old_data = data();
    if constexpr (std::is_trivially_copyable_v<T>) {
      std::memcpy(new_data, old_data, size_ * sizeof(T));
    } else {
      for (size_t i = 0; i < size_; ++i) {
        new (new_data + i) T(std::move(old_data[i]));
        old_data[i].~T();
      }
    }
    if (!IsInline()) {
      ::operator delete(heap_, std::align_val_t(alignof(T)));
    }
    heap_ = new_data;
    capacity_ = static_cast<uint32_t>(new_capacity);
  }

  void Destroy() {
    clear();
    if (!IsInline()) {
      ::operator delete(heap_, std::align_val_t(alignof(T)));
      capacity_ = N;
    }
  }

  // Takes `other`'s elements into this (empty, inline) vector and leaves
  // `other` empty and inline.
  void MoveFrom(SmallVector&& other) {
    if (other.IsInline()) {
      if constexpr (std::is_trivially_copyable_v<T>) {
        std::memcpy(InlineData(), other.InlineData(), other.size_ * sizeof(T));
      } else {
        T* src = other.InlineData();
        for (size_t i = 0; i < other.size_; ++i) {
          new (InlineData() + i) T(std::move(src[i]));
          src[i].~T();
        }
      }
    } else {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.capacity_ = N;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  union {
    alignas(T) unsigned char inline_storage_[N ? N * sizeof(T) : 1];
    T* heap_;
  };
  uint32_t size_ = 0;
  uint32_t capacity_ = N;
};

}  // namespace fivm::util

#endif  // FIVM_UTIL_SMALL_VECTOR_H_
