// The Checkpointable "trait" and its inductive derivation (§5).
//
// The paper introduces a trait with checkpoint()/restore() and "a compiler
// plugin that inductively generates an implementation of this trait for
// types comprised of scalar values and references to other checkpointable
// types". C++ has no compiler plugins; the equivalent machinery here is
// template induction:
//   * scalars           -> byte copy
//   * std::string       -> length + bytes
//   * std::vector<T>    -> length + per-element induction
//   * std::unique_ptr<T>, lin::Own<T> -> presence flag + pointee induction
//   * user structs      -> declare fields once with LINSYS_CHECKPOINT_FIELDS
//                          (the "derive" macro); induction recurses per field
//   * lin::Rc<T>/Arc<T> -> rc_ckpt.h (the aliasing-aware special case)
//
// The Checkpointable concept makes "this type cannot be checkpointed" a
// readable compile error at the call site instead of a template backtrace.
#ifndef LINSYS_SRC_CKPT_TRAITS_H_
#define LINSYS_SRC_CKPT_TRAITS_H_

#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ckpt/snapshot.h"
#include "src/lin/own.h"

namespace ckpt {

template <typename T, typename Enable = void>
struct Traits;  // specialized per checkpointable shape

template <typename T>
concept Checkpointable = requires(const T& value, Writer& w, Reader& r) {
  { Traits<T>::Save(value, w) };
  { Traits<T>::Load(r) } -> std::same_as<T>;
};

namespace internal {

// A container's element count, read from an untrusted image. Every element
// encodes to at least one byte, so a count above the bytes left is corrupt:
// refused here as a PanicError (which a Domain contains) before it can size
// an allocation and throw bad_alloc or length_error instead.
inline std::uint64_t ReadCount(Reader& r) {
  const auto n = r.ReadPod<std::uint64_t>();
  LINSYS_ASSERT(n <= r.remaining(), "snapshot length prefix exceeds its bytes");
  return n;
}

}  // namespace internal

// ---- Scalars --------------------------------------------------------------

template <typename T>
struct Traits<T, std::enable_if_t<std::is_arithmetic_v<T> ||
                                  std::is_enum_v<T>>> {
  static void Save(const T& value, Writer& w) { w.WritePod(value); }
  static T Load(Reader& r) { return r.ReadPod<T>(); }
};

// ---- std::string ------------------------------------------------------------

template <>
struct Traits<std::string> {
  static void Save(const std::string& s, Writer& w) {
    w.WritePod<std::uint64_t>(s.size());
    w.WriteBytes(s.data(), s.size());
  }
  static std::string Load(Reader& r) {
    const auto n = internal::ReadCount(r);
    std::string s(n, '\0');
    r.ReadBytes(s.data(), n);
    return s;
  }
};

// ---- std::vector<T> ---------------------------------------------------------

template <typename T>
struct Traits<std::vector<T>> {
  static void Save(const std::vector<T>& v, Writer& w) {
    w.WritePod<std::uint64_t>(v.size());
    for (const T& item : v) {
      Traits<T>::Save(item, w);
    }
  }
  static std::vector<T> Load(Reader& r) {
    const auto n = internal::ReadCount(r);
    std::vector<T> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      v.push_back(Traits<T>::Load(r));
    }
    return v;
  }
};

// ---- Pairs and maps (flow tables, routing state, ...) ----------------------

template <typename A, typename B>
struct Traits<std::pair<A, B>> {
  static void Save(const std::pair<A, B>& p, Writer& w) {
    Traits<A>::Save(p.first, w);
    Traits<B>::Save(p.second, w);
  }
  static std::pair<A, B> Load(Reader& r) {
    // Sequenced explicitly: evaluation order inside a braced init of pair
    // members would be fine, but this reads unambiguously.
    A first = Traits<A>::Load(r);
    B second = Traits<B>::Load(r);
    return {std::move(first), std::move(second)};
  }
};

template <typename K, typename V>
struct Traits<std::map<K, V>> {
  static void Save(const std::map<K, V>& m, Writer& w) {
    w.WritePod<std::uint64_t>(m.size());
    for (const auto& entry : m) {
      Traits<std::pair<K, V>>::Save(
          std::pair<K, V>(entry.first, entry.second), w);
    }
  }
  static std::map<K, V> Load(Reader& r) {
    const auto n = internal::ReadCount(r);
    std::map<K, V> m;
    for (std::uint64_t i = 0; i < n; ++i) {
      m.insert(Traits<std::pair<K, V>>::Load(r));
    }
    return m;
  }
};

template <typename K, typename V>
struct Traits<std::unordered_map<K, V>> {
  static void Save(const std::unordered_map<K, V>& m, Writer& w) {
    w.WritePod<std::uint64_t>(m.size());
    for (const auto& entry : m) {
      Traits<std::pair<K, V>>::Save(
          std::pair<K, V>(entry.first, entry.second), w);
    }
  }
  static std::unordered_map<K, V> Load(Reader& r) {
    const auto n = internal::ReadCount(r);
    std::unordered_map<K, V> m;
    m.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      m.insert(Traits<std::pair<K, V>>::Load(r));
    }
    return m;
  }
};

// ---- Unique pointers (unique ownership: plain recursion, no dedup needed,
// which is the §5 point: "all references ... are unique owners of the object
// they point to and can be safely traversed without extra checks") ----------

template <typename T>
struct Traits<std::unique_ptr<T>> {
  static void Save(const std::unique_ptr<T>& p, Writer& w) {
    w.WritePod<std::uint8_t>(p != nullptr ? 1 : 0);
    if (p != nullptr) {
      Traits<T>::Save(*p, w);
    }
  }
  static std::unique_ptr<T> Load(Reader& r) {
    if (r.ReadPod<std::uint8_t>() == 0) {
      return nullptr;
    }
    return std::make_unique<T>(Traits<T>::Load(r));
  }
};

template <typename T>
struct Traits<lin::Own<T>> {
  static void Save(const lin::Own<T>& own, Writer& w) {
    w.WritePod<std::uint8_t>(own.has_value() ? 1 : 0);
    if (own.has_value()) {
      Traits<T>::Save(*own.Borrow(), w);
    }
  }
  static lin::Own<T> Load(Reader& r) {
    if (r.ReadPod<std::uint8_t>() == 0) {
      return lin::Own<T>();
    }
    return lin::Own<T>::Make(Traits<T>::Load(r));
  }
};

// ---- Structs with LINSYS_CHECKPOINT_FIELDS ---------------------------------

// Detection: the macro defines SaveFields/LoadFields.
template <typename T>
concept HasCheckpointFields =
    requires(const T& value, T& out, Writer& w, Reader& r) {
      { value.SaveFields(w) };
      { out.LoadFields(r) };
    };

template <typename T>
struct Traits<T, std::enable_if_t<HasCheckpointFields<T>>> {
  static void Save(const T& value, Writer& w) { value.SaveFields(w); }
  static T Load(Reader& r) {
    T out{};
    out.LoadFields(r);
    return out;
  }
};

namespace internal {

inline void SaveAll(Writer&) {}
template <typename First, typename... Rest>
void SaveAll(Writer& w, const First& first, const Rest&... rest) {
  Traits<First>::Save(first, w);
  SaveAll(w, rest...);
}

inline void LoadAll(Reader&) {}
template <typename First, typename... Rest>
void LoadAll(Reader& r, First& first, Rest&... rest) {
  first = Traits<First>::Load(r);
  LoadAll(r, rest...);
}

}  // namespace internal

}  // namespace ckpt

// The "derive": list the fields once inside the struct body. Generates the
// member functions the HasCheckpointFields specialization dispatches to.
// Field order is the wire order — append new fields at the end.
#define LINSYS_CHECKPOINT_FIELDS(...)                          \
  void SaveFields(::ckpt::Writer& ckpt_writer) const {        \
    ::ckpt::internal::SaveAll(ckpt_writer, __VA_ARGS__);       \
  }                                                            \
  void LoadFields(::ckpt::Reader& ckpt_reader) {              \
    ::ckpt::internal::LoadAll(ckpt_reader, __VA_ARGS__);       \
  }

#endif  // LINSYS_SRC_CKPT_TRAITS_H_
