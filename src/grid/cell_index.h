#ifndef DBSCOUT_GRID_CELL_INDEX_H_
#define DBSCOUT_GRID_CELL_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "grid/cell_coord.h"

namespace dbscout::grid {

/// Append-only open-addressing map from cell coordinate to a dense cell id
/// (0, 1, 2, ... in insertion order), for one writer and any number of
/// lock-free readers. Keys are never erased, so an id stays valid for the
/// index's lifetime and callers can keep per-cell state in id-indexed
/// storage.
///
/// Slots live in a fixed-capacity Table (linear probing, load <= 1/2). A
/// slot holds its key's `dims` coordinates plus an atomic id; the writer
/// stores the key first and then publishes the id with a release store,
/// and readers acquire-load the id before they read the key. A published
/// slot is never rewritten, so a reader walking a probe chain while the
/// writer appends sees every key inserted before it acquired the table,
/// and at most some newer ones.
///
/// Growth builds a larger Table, re-inserts every key and swaps it in.
/// Readers that hold the old Table through table() keep it alive; nothing
/// writes to it again.
class CellIndex {
 public:
  static constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();
  static constexpr size_t kInitialCapacity = 16;

  /// One generation of slots.
  class Table {
   public:
    Table(size_t dims, size_t capacity)
        : dims_(dims),
          mask_(capacity - 1),
          keys_(std::make_unique_for_overwrite<int64_t[]>(capacity * dims)),
          ids_(std::make_unique<std::atomic<uint32_t>[]>(capacity)) {}

    size_t capacity() const { return mask_ + 1; }

    /// Id of `coord` (same dims), or kAbsent. Lock-free, and safe while
    /// the writer inserts into this same table.
    uint32_t Find(const CellCoord& coord) const {
      for (size_t slot = coord.Hash() & mask_;; slot = (slot + 1) & mask_) {
        // Stored as id + 1 so that zero (the initial value) means empty.
        const uint32_t tagged = ids_[slot].load(std::memory_order_acquire);
        if (tagged == 0) {
          return kAbsent;
        }
        if (KeyEquals(slot, coord)) {
          return tagged - 1;
        }
      }
    }

   private:
    friend class CellIndex;

    bool KeyEquals(size_t slot, const CellCoord& coord) const {
      const int64_t* key = keys_.get() + slot * dims_;
      for (size_t k = 0; k < dims_; ++k) {
        if (key[k] != coord[k]) {
          return false;
        }
      }
      return true;
    }

    /// Writer only; `coord` must be absent and a free slot must exist.
    void Insert(const CellCoord& coord, uint32_t id) {
      size_t slot = coord.Hash() & mask_;
      while (ids_[slot].load(std::memory_order_relaxed) != 0) {
        slot = (slot + 1) & mask_;
      }
      int64_t* key = keys_.get() + slot * dims_;
      for (size_t k = 0; k < dims_; ++k) {
        key[k] = coord[k];
      }
      ids_[slot].store(id + 1, std::memory_order_release);
    }

    size_t dims_;
    size_t mask_;
    std::unique_ptr<int64_t[]> keys_;  // capacity * dims, slot-major
    std::unique_ptr<std::atomic<uint32_t>[]> ids_;
  };

  explicit CellIndex(size_t dims)
      : table_(std::make_shared<Table>(dims, kInitialCapacity)) {}

  size_t size() const { return size_; }

  uint32_t Find(const CellCoord& coord) const { return table_->Find(coord); }

  /// Inserts `coord`, which must be absent, under id size() and returns
  /// that id. Writer only.
  uint32_t Insert(const CellCoord& coord) {
    if ((size_ + 1) * 2 > table_->capacity()) {
      Grow();
    }
    const uint32_t id = static_cast<uint32_t>(size_++);
    table_->Insert(coord, id);
    return id;
  }

  /// The current generation. A reader holding it sees every key inserted
  /// so far; ids inserted later may or may not be visible, so a reader
  /// treats ids at or beyond its own bound as absent.
  std::shared_ptr<const Table> table() const { return table_; }

 private:
  void Grow() {
    const Table& old = *table_;
    auto grown = std::make_shared<Table>(old.dims_, 2 * old.capacity());
    for (size_t slot = 0; slot < old.capacity(); ++slot) {
      const uint32_t tagged = old.ids_[slot].load(std::memory_order_relaxed);
      if (tagged != 0) {
        grown->Insert(CellCoord(std::span<const int64_t>(
                          old.keys_.get() + slot * old.dims_, old.dims_)),
                      tagged - 1);
      }
    }
    table_ = std::move(grown);
  }

  size_t size_ = 0;
  std::shared_ptr<Table> table_;
};

}  // namespace dbscout::grid

#endif  // DBSCOUT_GRID_CELL_INDEX_H_
