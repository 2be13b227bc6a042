#include "rdf/dictionary.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <string>

#include "util/string_util.h"

namespace rdfsum {
namespace {

// HashTerm's constants. The multiplier is odd, so multiplying by it is a
// bijection of u64.
constexpr uint64_t kTermHashSeed = 0x165667B19E3779F9ULL;
constexpr uint64_t kTermHashP = 0x9E3779B185EBCA87ULL;

/// One word into the state: a bijection of `h` for a fixed word and of the
/// word for a fixed `h`. The rotation brings the product's high bits down,
/// so the next multiply spreads them again.
uint64_t FoldWord(uint64_t h, uint64_t w) {
  return std::rotl((h ^ w) * kTermHashP, 29);
}

/// A string fragment: its length, then its bytes eight at a time
/// (little-endian), then any 1-7 remaining bytes as one zero-padded word.
/// The length keeps the fragments apart, so "a" + "b" and "ab" + "" differ.
uint64_t HashPiece(uint64_t h, std::string_view s) {
  constexpr size_t kWord = sizeof(uint64_t);
  h = FoldWord(h, s.size());
  const char* p = s.data();
  size_t n = s.size();
  for (; n >= kWord; p += kWord, n -= kWord) {
    uint64_t w;
    std::memcpy(&w, p, kWord);
    h = FoldWord(h, w);
  }
  if (n > 0) {
    uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = FoldWord(h, tail);
  }
  return h;
}

/// The term behind view record `id`, borrowed from the arena. The view is
/// pre-validated by FrozenImage::Attach, so lengths are trusted here.
TermRef ReadViewRecord(const DictionaryView& view, uint32_t id) {
  const char* rec = view.arena.data() + view.term_offsets[id - 1];
  uint32_t lens[3];
  std::memcpy(lens, rec + 1, sizeof(lens));
  const char* bytes = rec + 1 + sizeof(lens);
  return TermRef{static_cast<TermKind>(static_cast<uint8_t>(rec[0])),
                 std::string_view(bytes, lens[0]),
                 std::string_view(bytes + lens[0], lens[1]),
                 std::string_view(bytes + lens[0] + lens[1], lens[2])};
}

}  // namespace

uint64_t Dictionary::HashTerm(TermRef term) {
  uint64_t h = kTermHashSeed ^ static_cast<uint64_t>(term.kind);
  h = HashPiece(h, term.lexical);
  h = HashPiece(h, term.datatype);
  h = HashPiece(h, term.language);
  // splitmix64's finalizer: the slot tables mask the low bits, and the
  // word folds leave them weakest.
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

std::shared_ptr<Dictionary> Dictionary::FromView(const DictionaryView& view) {
  auto dict = std::make_shared<Dictionary>();
  dict->view_ = view;
  dict->base_terms_ = static_cast<size_t>(view.num_terms);
  dict->mint_counter_ = view.mint_counter;
  dict->view_cache_ =
      std::make_unique<std::atomic<const Term*>[]>(dict->base_terms_ + 1);
  return dict;
}

Dictionary::~Dictionary() {
  if (!view_cache_) return;
  for (size_t id = 1; id <= base_terms_; ++id) {
    delete view_cache_[id].load(std::memory_order_relaxed);
  }
}

const Term& Dictionary::DecodeView(uint32_t id) const {
  assert(id >= 1 && id <= base_terms_);
  // Decode's acquire load missed; re-check under the lock, since another
  // thread may have published the slot in between.
  std::lock_guard<std::mutex> lock(view_cache_mu_);
  std::atomic<const Term*>& slot = view_cache_[id];
  if (const Term* cached = slot.load(std::memory_order_relaxed)) {
    return *cached;
  }
  auto* t = new Term(ReadViewRecord(view_, id).ToTerm());
  slot.store(t, std::memory_order_release);
  return *t;
}

TermId Dictionary::ViewLookup(const DictionaryView& view, TermRef term,
                              uint64_t h) {
  if (view.slots.empty()) return kInvalidTermId;
  const size_t mask = view.slots.size() - 1;
  size_t i = static_cast<size_t>(h) & mask;
  while (true) {
    const DictionaryView::Slot& slot = view.slots[i];
    if (slot.id == kInvalidTermId) return kInvalidTermId;
    if (slot.hash == h && ReadViewRecord(view, slot.id) == term) {
      return slot.id;
    }
    i = (i + 1) & mask;
  }
}

size_t Dictionary::FindSlot(TermRef term, uint64_t h) const {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(h) & mask;
  while (true) {
    const Slot& slot = slots_[i];
    if (slot.id == kInvalidTermId) return i;
    // Overlay slots store global ids; the local term index subtracts the
    // view base (a no-op for owned dictionaries, where base_terms_ == 0).
    if (slot.hash == h && term == terms_[slot.id - base_terms_]) return i;
    i = (i + 1) & mask;
  }
}

void Dictionary::GrowIfNeeded() {
  // Max load factor 0.7; terms_.size() counts the reserved id 0, so the
  // entry count is terms_.size() - 1 (+1 for the insertion under way).
  if (terms_.size() * 10 >= slots_.size() * 7) Rehash(slots_.size() * 2);
}

void Dictionary::Rehash(size_t new_slot_count) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_slot_count, Slot{});
  const size_t mask = new_slot_count - 1;
  for (const Slot& slot : old) {
    if (slot.id == kInvalidTermId) continue;
    size_t i = static_cast<size_t>(slot.hash) & mask;
    while (slots_[i].id != kInvalidTermId) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void Dictionary::Reserve(size_t num_terms) {
  terms_.reserve(num_terms + 1);
  size_t want = kInitialSlots;
  while (num_terms * 10 >= want * 7) want *= 2;
  if (want > slots_.size()) Rehash(want);
}

TermId Dictionary::Encode(TermRef term) {
  const uint64_t h = HashTerm(term);
  if (TermId base_id = ViewLookup(view_, term, h); base_id != kInvalidTermId) {
    return base_id;
  }
  size_t i = FindSlot(term, h);
  if (slots_[i].id != kInvalidTermId) return slots_[i].id;
  TermId id = static_cast<TermId>(base_terms_ + terms_.size());
  terms_.push_back(term.ToTerm());
  slots_[i] = Slot{h, id};
  GrowIfNeeded();
  return id;
}

TermId Dictionary::Lookup(TermRef term) const {
  const uint64_t h = HashTerm(term);
  if (TermId base_id = ViewLookup(view_, term, h); base_id != kInvalidTermId) {
    return base_id;
  }
  return slots_[FindSlot(term, h)].id;  // kInvalidTermId when absent
}

TermId Dictionary::MintNodeUri(std::string_view tag) {
  while (true) {
    std::string uri = std::string(kMintedPrefix) + std::string(tag) + ":" +
                      std::to_string(mint_counter_++);
    const TermRef term{TermKind::kIri, uri, {}, {}};
    if (Lookup(term) == kInvalidTermId) return Encode(term);
  }
}

bool Dictionary::IsMinted(TermId id) const {
  if (!Contains(id)) return false;
  const Term& t = Decode(id);
  return t.is_iri() && StartsWith(t.lexical, kMintedPrefix);
}

}  // namespace rdfsum
