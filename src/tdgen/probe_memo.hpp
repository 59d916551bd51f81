// The verification-probe memo of one TDgen search, keyed by source vector.
//
// A probe (TdgenSearch::check_stimulus) is a pure function of its sources:
// the PI value sets and the PPIs' initial values. The memo records, per
// distinct source vector, whether the vector was already taken through
// verification as a search leaf, whether its probe failed (failures are
// remembered for good) and, for a success, the index of the stored
// outcome.
//
// Keys are packed bit vectors — 4 bits per PI set (a subset of the primary
// domain {0,1,R,F}) and 2 bits per PPI's initials ({0,1} bitmask) — so
// equal keys mean equal source vectors. The table is flat open addressing
// with linear probing over one word arena: a lookup hashes a few words and
// compares them in place, with no per-entry allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "algebra/value_set.hpp"

namespace gdf::tdgen {

class ProbeMemo {
 public:
  struct Entry {
    bool checked = false;    ///< taken through verification as a leaf
    bool failed = false;     ///< the probe failed
    bool succeeded = false;  ///< the probe passed; `outcome` is valid
    std::uint32_t outcome = 0;
  };

  ProbeMemo(std::size_t n_pis, std::size_t n_ppis);

  /// Packs a source vector into `key` (resized to key_words()). Asserts
  /// that every PI set lies in the primary domain and every PPI initials
  /// mask in {0,1,2,3}.
  void pack(std::span<const alg::VSet> pi_sets,
            std::span<const unsigned> ppi_inits,
            std::vector<std::uint64_t>& key) const;

  /// The entry of a packed key, inserted blank when absent. The reference
  /// is valid until the next insertion.
  Entry& at(std::span<const std::uint64_t> key);

  std::size_t size() const { return entries_.size(); }
  std::size_t key_words() const { return words_; }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  std::uint64_t hash(std::span<const std::uint64_t> key) const;
  void grow();

  std::size_t n_pis_;
  std::size_t n_ppis_;
  std::size_t words_;
  /// Packed keys back to back, words_ per entry, parallel to entries_.
  std::vector<std::uint64_t> keys_;
  std::vector<Entry> entries_;
  /// Open-addressing slots (power-of-two count): entry index or kEmpty.
  std::vector<std::uint32_t> slots_;
};

}  // namespace gdf::tdgen
