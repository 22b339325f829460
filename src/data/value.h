#ifndef FIVM_DATA_VALUE_H_
#define FIVM_DATA_VALUE_H_

#include <cstdint>
#include <string>
#include <type_traits>

#include "src/util/hash.h"

namespace fivm {

/// A typed scalar key value: either a 64-bit integer or a double. Strings are
/// dictionary-encoded to integers before they become keys, so the key space
/// stays fixed-width.
///
/// Values appear in tuple keys and feed lifting functions; they are compared
/// and hashed bitwise (two doubles are equal iff their bit patterns match,
/// which is the right semantics for group-by keys).
class Value {
 public:
  enum class Kind : uint8_t { kInt = 0, kDouble = 1 };

  constexpr Value() : kind_(Kind::kInt), i_(0) {}

  static constexpr Value Int(int64_t v) {
    Value x;
    x.kind_ = Kind::kInt;
    x.i_ = v;
    return x;
  }

  static constexpr Value Double(double v) {
    Value x;
    x.kind_ = Kind::kDouble;
    x.d_ = v;
    return x;
  }

  Kind kind() const { return kind_; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }

  /// Integer view; only valid for kInt values.
  int64_t AsInt() const { return i_; }

  /// Numeric view; converts integers to double. This is what lifting
  /// functions use, so SUM(B) works regardless of the column type.
  double AsDouble() const {
    return kind_ == Kind::kInt ? static_cast<double>(i_) : d_;
  }

  bool operator==(const Value& o) const {
    return kind_ == o.kind_ && i_ == o.i_;  // bitwise compare via the union
  }
  bool operator!=(const Value& o) const { return !(*this == o); }

  bool operator<(const Value& o) const {
    if (kind_ != o.kind_) return kind_ < o.kind_;
    if (kind_ == Kind::kInt) return i_ < o.i_;
    return d_ < o.d_;
  }

  constexpr uint64_t Hash() const {
    return util::Mix64(static_cast<uint64_t>(i_) ^
                       (static_cast<uint64_t>(kind_) << 62));
  }

  std::string ToString() const;

 private:
  Kind kind_;
  union {
    int64_t i_;
    double d_;
  };
};

// Tuples copy keys with memcpy fast paths (util::SmallVector) and Relation
// snapshots entry vectors wholesale; both rely on Value staying trivially
// copyable.
static_assert(std::is_trivially_copyable_v<Value>);

}  // namespace fivm

#endif  // FIVM_DATA_VALUE_H_
