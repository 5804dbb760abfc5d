//===- support/FlatTables.h - Flat tables reset by generation --*- C++ -*-===//
///
/// \file
/// Flat tables for the compile path's per-block and per-pass scratch.
/// They live in contiguous vectors that keep their capacity, and they
/// forget their contents in O(1) by bumping a generation stamp: an entry
/// counts only when its stamp equals the table's current generation. A
/// pass keeps one table for its whole run and clears it per block instead
/// of building a node-based std::map or std::unordered_map each time.
///
/// When the generation counter wraps, every stamp is zeroed once, so a
/// table may live for any number of clears.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_SUPPORT_FLATTABLES_H
#define JITML_SUPPORT_FLATTABLES_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace jitml {

/// A map from small non-negative integers (node ids, local slots, field
/// or global indices) to values; a key never set reads as T(). Grows on
/// demand; \p Size pre-sizes it for keys a pass is sure to touch.
template <typename T> class StampedArray {
public:
  explicit StampedArray(size_t Size = 0) : Rows(Size) {}

  /// Forgets every entry.
  void clear() {
    if (++Gen == 0) {
      for (Row &R : Rows)
        R.Gen = 0;
      Gen = 1;
    }
  }

  bool has(size_t Key) const {
    return Key < Rows.size() && Rows[Key].Gen == Gen;
  }
  T get(size_t Key) const { return has(Key) ? Rows[Key].Value : T(); }
  void set(size_t Key, T Value) {
    if (Key >= Rows.size())
      Rows.resize(Key + 1 > 2 * Rows.size() ? Key + 1 : 2 * Rows.size());
    Rows[Key] = {Gen, Value};
  }
  void erase(size_t Key) {
    if (Key < Rows.size())
      Rows[Key].Gen = 0; // never a current generation
  }

private:
  struct Row {
    uint32_t Gen = 0;
    T Value{};
  };
  std::vector<Row> Rows;
  uint32_t Gen = 1;
};

/// A multimap from 64-bit hashes to values, each hash's values kept in
/// insertion order: open addressing over the hashes, every hash heading a
/// chain through one shared entry vector. Callers walk a chain with
/// first()/next() and pick the first entry that really matches, so two
/// values whose hashes collide only share a chain when the full 64-bit
/// hashes are equal.
template <typename V> class HashChains {
public:
  static constexpr uint32_t None = UINT32_MAX;

  HashChains() : Slots(16) {}

  /// Forgets every chain.
  void clear() {
    Entries.clear();
    Used = 0;
    if (++Gen == 0) {
      for (Slot &S : Slots)
        S.Gen = 0;
      Gen = 1;
    }
  }

  /// The first entry of \p Hash's chain, or None.
  uint32_t first(uint64_t Hash) const {
    const Slot &S = Slots[find(Hash)];
    return S.Gen == Gen ? S.Head : None;
  }
  uint32_t next(uint32_t Entry) const { return Entries[Entry].Next; }
  V &value(uint32_t Entry) { return Entries[Entry].Value; }

  /// Appends \p Value to the end of \p Hash's chain.
  void append(uint64_t Hash, V Value) {
    uint32_t E = (uint32_t)Entries.size();
    Entries.push_back({Value, None});
    Slot &S = Slots[find(Hash)];
    if (S.Gen == Gen) {
      Entries[S.Tail].Next = E;
      S.Tail = E;
      return;
    }
    S = {Hash, Gen, E, E};
    if (++Used * 2 > Slots.size())
      grow();
  }

private:
  struct Slot {
    uint64_t Hash = 0;
    uint32_t Gen = 0;
    uint32_t Head = None;
    uint32_t Tail = None;
  };
  struct Entry {
    V Value;
    uint32_t Next;
  };

  /// The slot holding \p Hash, or the empty slot where it would go.
  size_t find(uint64_t Hash) const {
    size_t Mask = Slots.size() - 1;
    size_t I = (size_t)((Hash * 0x9e3779b97f4a7c15ULL) >> 32) & Mask;
    while (Slots[I].Gen == Gen && Slots[I].Hash != Hash)
      I = (I + 1) & Mask;
    return I;
  }

  /// Doubles the slot array and re-places the live chains' heads.
  void grow() {
    std::vector<Slot> Old(2 * Slots.size());
    Old.swap(Slots);
    uint32_t Live = Gen;
    Gen = 1;
    for (const Slot &S : Old)
      if (S.Gen == Live)
        Slots[find(S.Hash)] = {S.Hash, Gen, S.Head, S.Tail};
  }

  std::vector<Slot> Slots; ///< power-of-two size, at most half full
  std::vector<Entry> Entries;
  uint32_t Used = 0;
  uint32_t Gen = 1;
};

/// A set of 64-bit keys (say, two 32-bit ids packed into one word): a
/// HashChains whose hash is the key itself, so a chain is one key.
class KeySet {
public:
  void clear() { Chains.clear(); }
  bool contains(uint64_t Key) const {
    return Chains.first(Key) != HashChains<uint8_t>::None;
  }
  void insert(uint64_t Key) {
    if (!contains(Key))
      Chains.append(Key, 0);
  }

private:
  HashChains<uint8_t> Chains;
};

} // namespace jitml

#endif // JITML_SUPPORT_FLATTABLES_H
