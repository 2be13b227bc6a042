#ifndef RDFSUM_RDF_DICTIONARY_H_
#define RDFSUM_RDF_DICTIONARY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "rdf/term.h"
#include "rdf/triple.h"

namespace rdfsum {

/// Zero-copy dictionary base: spans over a frozen image's term sections
/// (rdf/frozen_image.h), handed to Dictionary::FromView. The spans borrow
/// the mapped file; the view is plain data and copies freely, but it is
/// valid only while the mapping lives.
///
/// `arena` holds one record per term id 1..num_terms, delimited by
/// `term_offsets` (num_terms + 1 entries, offsets relative to the arena
/// start): kind byte, three u32 piece lengths, then the lexical / datatype /
/// language bytes. `slots` is a ready-to-probe open-addressing index over
/// those records — same hash (Dictionary::HashTerm) and probe sequence as
/// the in-memory table, so lookups against the image need no rebuild.
struct DictionaryView {
  /// On-disk slot layout (kDictSlots section). id 0 marks "empty";
  /// `reserved` is zero on disk and ignored on read.
  struct Slot {
    uint64_t hash;
    uint32_t id;
    uint32_t reserved;
  };

  uint64_t num_terms = 0;  // excluding the reserved id 0
  uint64_t mint_counter = 0;
  std::span<const uint64_t> term_offsets;  // num_terms + 1 entries
  std::span<const char> arena;
  std::span<const Slot> slots;  // power-of-two size, > num_terms
};
static_assert(sizeof(DictionaryView::Slot) == 16);

/// Bidirectional term <-> integer mapping (the paper's Postgres `dictionary`
/// table, §6). Ids are dense and start at 1; id 0 is reserved.
///
/// Encode/Lookup are allocation-free on the hot path: terms are hashed in
/// place (kind + lexical + datatype + language) against an open-addressing
/// index of ids into the term store, instead of keying a map on a freshly
/// built ToNTriples() string. Cached hashes make rehashing cheap.
///
/// The dictionary also mints fresh "summary node" URIs for the
/// representation functions N(.,.) and C(.) (Definition 11 onwards); minted
/// URIs use the urn:rdfsum: prefix so they can be recognized as anonymous
/// when comparing summaries up to isomorphism.
///
/// **View mode.** FromView() builds a dictionary whose ids 1..base_terms()
/// are served zero-copy from a DictionaryView (an mmap'd frozen image):
/// Lookup probes the on-disk slot table directly and Decode materializes a
/// Term lazily, caching it for reference stability. New terms — saturation
/// vocabulary, minted summary nodes — go to a mutable overlay and get ids
/// above the base, so a view-mode dictionary composes with every existing
/// consumer. View-mode Decode of a cached id is one acquire load; only the
/// first Decode of an id takes a lock. Owned-mode behavior and layout are
/// unchanged.
class Dictionary {
 public:
  Dictionary() {
    terms_.emplace_back();  // id 0 placeholder
    slots_.resize(kInitialSlots);
  }
  ~Dictionary();

  /// A dictionary whose base ids are served from `view` (typically
  /// FrozenImage::dictionary_view()). The caller must keep the viewed bytes
  /// alive for the dictionary's lifetime. The view must already be
  /// validated (FrozenImage::Attach does); this constructor trusts it.
  static std::shared_ptr<Dictionary> FromView(const DictionaryView& view);

  /// Interns `term`, returning its id (existing or fresh). A Term is built
  /// from the ref only when the id is fresh.
  TermId Encode(TermRef term) { return EncodeHashed(term, HashTerm(term)); }

  /// Encode with a precomputed HashTerm(term) value. The parallel loader's
  /// merge pass interns every staged term exactly once per chunk and already
  /// paid for the hash in the chunk's local dictionary; skipping the rehash
  /// here keeps the sequential merge phase off the profile.
  TermId EncodeHashed(TermRef term, uint64_t hash);

  TermId EncodeIri(std::string_view iri) {
    return Encode({TermKind::kIri, iri, {}, {}});
  }
  TermId EncodeLiteral(std::string_view lex) {
    return Encode({TermKind::kLiteral, lex, {}, {}});
  }
  TermId EncodeBlank(std::string_view label) {
    return Encode({TermKind::kBlank, label, {}, {}});
  }

  /// Returns the id of `term` or kInvalidTermId if it was never interned.
  TermId Lookup(TermRef term) const;

  /// Returns the id of `term` in a validated view's slot table, or
  /// kInvalidTermId when the view does not hold it. Builds no dictionary.
  static TermId LookupInView(const DictionaryView& view, TermRef term) {
    return ViewLookup(view, term, HashTerm(term));
  }

  /// Decodes an id; requires 1 <= id < size(). Returns the dictionary's
  /// own Term, which callers may borrow (query::Row does) for as long as
  /// the dictionary lives — but in owned mode, and for overlay ids in view
  /// mode, only until the dictionary interns another term (Encode,
  /// MintNodeUri), since the term store may reallocate. View-mode base
  /// terms (id <= base_terms()) stay valid for the dictionary's lifetime.
  const Term& Decode(TermId id) const {
    if (id <= base_terms_) {
      const Term* cached = view_cache_[id].load(std::memory_order_acquire);
      return cached ? *cached : DecodeView(static_cast<uint32_t>(id));
    }
    return terms_[id - base_terms_];
  }

  bool Contains(TermId id) const { return id >= 1 && id < size(); }

  /// Number of entries including the reserved id 0.
  size_t size() const { return base_terms_ + terms_.size(); }

  /// Ids <= base_terms() are view-backed; 0 for an owned dictionary.
  size_t base_terms() const { return base_terms_; }

  /// Minted-URI counter (see MintNodeUri); persisted in frozen images so a
  /// reopened store mints the same names the original process would have.
  uint64_t mint_counter() const { return mint_counter_; }

  /// Pre-sizes the term store and index for `num_terms` entries.
  void Reserve(size_t num_terms);

  /// Mints a fresh URI of the form urn:rdfsum:<tag>:<counter>; each call
  /// returns a distinct id. Used by the N and C representation functions.
  TermId MintNodeUri(std::string_view tag);

  /// True iff the term behind `id` is a minted summary-node URI.
  bool IsMinted(TermId id) const;

  /// Prefix shared by all minted URIs.
  static constexpr std::string_view kMintedPrefix = "urn:rdfsum:";

  /// The on-disk / in-memory slot hash of a term: seeded FNV-1a over
  /// kind + lexical + datatype + language with a murmur-style avalanche.
  /// Deterministic across processes — frozen images serialize slot tables
  /// keyed by it, so changing this function is a format break.
  static uint64_t HashTerm(TermRef term);

 private:
  static constexpr size_t kInitialSlots = 64;  // power of two

  /// One open-addressing slot: id 0 (kInvalidTermId) marks "empty". In view
  /// mode the overlay's slots hold *global* ids (> base_terms_).
  struct Slot {
    uint64_t hash = 0;
    TermId id = kInvalidTermId;
  };

  /// Index of the overlay slot holding `term` (hash `h`), or of the empty
  /// slot where it would be inserted. Requires a non-full table.
  size_t FindSlot(TermRef term, uint64_t h) const;

  /// Probes a view's on-disk slot table; kInvalidTermId when absent (or
  /// when there is no view).
  static TermId ViewLookup(const DictionaryView& view, TermRef term,
                           uint64_t h);

  /// Decode's miss path: materializes the Term behind view id `id` and
  /// publishes it in view_cache_, under view_cache_mu_.
  const Term& DecodeView(uint32_t id) const;

  void GrowIfNeeded();
  void Rehash(size_t new_slot_count);

  std::vector<Term> terms_;
  std::vector<Slot> slots_;  // size is always a power of two
  uint64_t mint_counter_ = 0;

  // View mode (all empty/zero for an owned dictionary).
  DictionaryView view_;
  size_t base_terms_ = 0;  // == view_.num_terms
  // Decoded view terms, [0..base_terms_]. A slot is written once, from null
  // to an owned Term, under view_cache_mu_ and with a release store; it is
  // never replaced, so a reference handed out stays valid for the
  // dictionary's lifetime. The destructor frees the Terms.
  std::unique_ptr<std::atomic<const Term*>[]> view_cache_;
  mutable std::mutex view_cache_mu_;
};

}  // namespace rdfsum

#endif  // RDFSUM_RDF_DICTIONARY_H_
