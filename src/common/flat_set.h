// Flat open-addressing set of 64-bit keys: power-of-two linear probing over
// one contiguous slot array, a Fibonacci-mixed home slot, no per-insert
// allocation (growth rehashes in one shot at 70 % load; never shrinks).
//
// Two hot loops use it in place of std::unordered_set: the exchange's
// stratum-occupancy table (one probe per run boundary, see
// ingest/exchange.cpp) and the Count-Min candidate-key set (one probe per
// record, see sketch/sketch_query.h). A probe is a couple of cache lines
// instead of a bucket-list pointer chase.
//
// Keys span all of uint64_t. The empty-slot sentinel (~0) is itself a valid
// key — llround(-1.0) reinterpreted as uint64_t is exactly that — so it is
// stored in a side flag rather than in a slot.
//
// Single-threaded by design. The cumulative probe counter makes the
// per-insert probe cost observable (ExchangeStats::table_probes).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace streamapprox {

class FlatU64Set {
 public:
  /// Creates a set with at least `min_slots` slots (rounded up to a power
  /// of two, minimum 8).
  explicit FlatU64Set(std::size_t min_slots = 64) {
    std::size_t slots = 8;
    while (slots < min_slots) slots <<= 1;
    slots_.assign(slots, kEmpty);
  }

  /// Inserts `key`; returns true when it was not already present.
  bool insert(std::uint64_t key) {
    if (key == kEmpty) {
      ++probes_;
      const bool fresh = !has_sentinel_;
      has_sentinel_ = true;
      return fresh;
    }
    // 70 % load ceiling keeps expected probe chains short (< 2 slots).
    if ((occupied_ + 1) * 10 > slots_.size() * 7) rehash(slots_.size() * 2);
    return insert_no_grow(key);
  }

  /// Inserts every key of `other` (set union).
  void insert_all(const FlatU64Set& other) {
    // `other` is walked in slot order, i.e. ascending home slot. Into a
    // smaller table those keys would all come from a narrow prefix of the
    // hash space and pile up in one growing cluster (quadratic probing
    // overall), so size for the union first: each key then lands near its
    // own home slot.
    reserve(size() + other.size());
    other.for_each([this](std::uint64_t key) { insert(key); });
  }

  /// True when `key` has been inserted. Does not count probes (insert is
  /// the hot path the counter is about).
  bool contains(std::uint64_t key) const noexcept {
    if (key == kEmpty) return has_sentinel_;
    std::size_t slot = preferred_slot(key, slots_.size());
    for (;;) {
      if (slots_[slot] == kEmpty) return false;
      if (slots_[slot] == key) return true;
      slot = (slot + 1) & (slots_.size() - 1);
    }
  }

  /// Calls `fn(key)` once per key, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (has_sentinel_) fn(kEmpty);
    for (const std::uint64_t key : slots_) {
      if (key != kEmpty) fn(key);
    }
  }

  /// Distinct keys inserted.
  std::size_t size() const noexcept {
    return occupied_ + (has_sentinel_ ? 1 : 0);
  }

  /// Current slot-array capacity (power of two).
  std::size_t slot_count() const noexcept { return slots_.size(); }

  /// Cumulative slot inspections across every insert, growth rehashes
  /// included.
  std::uint64_t probes() const noexcept { return probes_; }

  /// The slot `key` hashes to at `slot_count` capacity (the head of its
  /// probe chain). Exposed so tests can construct colliding keys.
  static std::size_t preferred_slot(std::uint64_t key,
                                    std::size_t slot_count) noexcept {
    // Fibonacci hashing: the top log2(slot_count) bits of key·2^64/φ.
    // Consecutive and strided keys land evenly spread, so dense id ranges
    // (stratum ids, rounded values) rarely share a home slot.
    const int shift = 64 - std::countr_zero(slot_count);
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift);
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// Grows (never shrinks) so that `keys` keys fit under the load ceiling.
  void reserve(std::size_t keys) {
    std::size_t slots = slots_.size();
    while (keys * 10 > slots * 7) slots <<= 1;
    if (slots != slots_.size()) rehash(slots);
  }

  bool insert_no_grow(std::uint64_t key) {
    std::size_t slot = preferred_slot(key, slots_.size());
    for (;;) {
      ++probes_;
      if (slots_[slot] == kEmpty) {
        slots_[slot] = key;
        ++occupied_;
        return true;
      }
      if (slots_[slot] == key) return false;
      slot = (slot + 1) & (slots_.size() - 1);
    }
  }

  void rehash(std::size_t slots) {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(slots, kEmpty);
    occupied_ = 0;
    for (const std::uint64_t key : old) {
      if (key != kEmpty) insert_no_grow(key);
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t occupied_ = 0;  // keys held in slots_ (the sentinel is not)
  bool has_sentinel_ = false;
  std::uint64_t probes_ = 0;
};

}  // namespace streamapprox
