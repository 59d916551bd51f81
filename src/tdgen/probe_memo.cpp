#include "tdgen/probe_memo.hpp"

#include <algorithm>

#include "base/error.hpp"

namespace gdf::tdgen {

namespace {

constexpr unsigned kPiBits = 4;
constexpr unsigned kPpiBits = 2;
static_assert(alg::kPrimaryDomain == 0x0F,
              "PI sets must pack into kPiBits bits");

/// ORs a field into the key at bit `pos` (fields never straddle a word).
void put(std::vector<std::uint64_t>& key, std::size_t pos, unsigned bits) {
  key[pos / 64] |= std::uint64_t{bits} << (pos % 64);
}

}  // namespace

ProbeMemo::ProbeMemo(std::size_t n_pis, std::size_t n_ppis)
    : n_pis_(n_pis),
      n_ppis_(n_ppis),
      words_(std::max<std::size_t>(
          1, (n_pis * kPiBits + n_ppis * kPpiBits + 63) / 64)),
      slots_(64, kEmpty) {}

void ProbeMemo::pack(std::span<const alg::VSet> pi_sets,
                     std::span<const unsigned> ppi_inits,
                     std::vector<std::uint64_t>& key) const {
  GDF_ASSERT(pi_sets.size() == n_pis_ && ppi_inits.size() == n_ppis_,
             "probe memo key size mismatch");
  key.assign(words_, 0);
  // PI fields first, then PPI fields: 4 and 2 both divide 64, so no field
  // straddles a word boundary.
  std::size_t pos = 0;
  for (const alg::VSet s : pi_sets) {
    GDF_ASSERT((s & ~alg::kPrimaryDomain) == 0,
               "PI set outside the primary domain");
    put(key, pos, s);
    pos += kPiBits;
  }
  for (const unsigned inits : ppi_inits) {
    GDF_ASSERT(inits <= 0b11u, "PPI initials outside {0,1}");
    put(key, pos, inits);
    pos += kPpiBits;
  }
}

std::uint64_t ProbeMemo::hash(std::span<const std::uint64_t> key) const {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (const std::uint64_t w : key) {
    h = (h ^ w) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  return h;
}

ProbeMemo::Entry& ProbeMemo::at(std::span<const std::uint64_t> key) {
  GDF_ASSERT(key.size() == words_, "probe memo key width mismatch");
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t slot = hash(key) & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t index = slots_[slot];
    if (index == kEmpty) {
      break;
    }
    if (std::equal(key.begin(), key.end(), keys_.begin() + index * words_)) {
      return entries_[index];
    }
  }
  // Absent: append, then place it (after growing, if half full).
  const auto index = static_cast<std::uint32_t>(entries_.size());
  keys_.insert(keys_.end(), key.begin(), key.end());
  entries_.emplace_back();
  if (2 * entries_.size() > slots_.size()) {
    grow();
  } else {
    std::size_t slot = hash(key) & mask;
    while (slots_[slot] != kEmpty) {
      slot = (slot + 1) & mask;
    }
    slots_[slot] = index;
  }
  return entries_.back();
}

void ProbeMemo::grow() {
  slots_.assign(slots_.size() * 2, kEmpty);
  const std::size_t mask = slots_.size() - 1;
  for (std::uint32_t index = 0; index < entries_.size(); ++index) {
    const std::span<const std::uint64_t> key(keys_.data() + index * words_,
                                             words_);
    std::size_t slot = hash(key) & mask;
    while (slots_[slot] != kEmpty) {
      slot = (slot + 1) & mask;
    }
    slots_[slot] = index;
  }
}

}  // namespace gdf::tdgen
