#ifndef RDFSUM_RDF_FROZEN_IMAGE_H_
#define RDFSUM_RDF_FROZEN_IMAGE_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple.h"
#include "util/status.h"
#include "util/statusor.h"

namespace rdfsum {

/// The frozen-image binary format (".rsb"): a single file whose sections are
/// 64-byte-aligned flat arrays addressable directly from an mmap'd region —
/// the dictionary term arena and its open-addressing index, the three sorted
/// triple permutations with their statistics, and the graph's three
/// components in insertion order. `docs/FORMAT.md` is the normative
/// specification; this header is its executable twin — every constant and
/// struct below is named there, and the corruption wall
/// (tests/image_corruption_test.cc) is pinned against both.
///
/// Layering: this file owns the *format* — header/section-table plumbing,
/// checksum and structural validation, and the encode/decode of the
/// dictionary sections. The store-level assembly (building a TripleTable
/// over the mapped permutations, the mmap itself, freezing a Graph to a
/// file) lives in store/mmap_store.{h,cc}.

// ---- Format constants -------------------------------------------------------

inline constexpr char kImageMagic[8] = {'R', 'D', 'F', 'S', 'U', 'M', 'S',
                                        'B'};
inline constexpr uint32_t kImageVersionMajor = 4;
inline constexpr uint32_t kImageVersionMinor = 0;
/// Every section payload starts at a multiple of this; inter-section padding
/// bytes MUST be zero (validated — un-checksummed bytes are not a hiding
/// place for corruption).
inline constexpr uint64_t kImageAlignment = 64;
inline constexpr uint32_t kImageMaxSections = 64;

/// Section identifiers. Ids appear in the section table in strictly
/// ascending order; ids 1-11 are required. Unknown higher ids (up to
/// kImageMaxSections) are ignored by readers (minor-version evolution rule,
/// see docs/FORMAT.md §7).
///
/// kDataTriples/kTypeTriples/kSchemaTriples keep the graph's three
/// components verbatim in original insertion order: MmapStore::View() reads
/// them in place, with the canonical dense numbering and minted-URI counter
/// of the graph that was frozen, which is what makes summaries computed
/// from an image byte-identical to the parse path's.
enum class SectionId : uint32_t {
  kMeta = 1,           // ImageMeta
  kTermOffsets = 2,    // u64[num_terms + 1], offsets into kTermArena
  kTermArena = 3,      // term records (see kImageTermRecordHeaderBytes)
  kDictSlots = 4,      // DictionaryView::Slot[num_slots]
  kSpo = 5,            // Triple[num_triples], sorted (s, p, o)
  kPos = 6,            // Triple[num_triples], sorted (p, o, s)
  kOsp = 7,            // Triple[num_triples], sorted (o, s, p)
  kPredStats = 8,      // ImagePredStat[num_predicates], sorted by p
  kTypeTriples = 9,    // Triple[num_type_triples], insertion order
  kSchemaTriples = 10, // Triple[num_schema_triples], insertion order
  kDataTriples = 11,   // Triple[num_data_triples], insertion order
};

/// File header, the first 64 bytes. header_checksum is ImageHash64 over
/// bytes [0, 40) (everything before itself); table_checksum is ImageHash64
/// over the section table that immediately follows the header. A reader
/// checks version_major before either: the major version decides how the
/// rest is verified. All integers little-endian.
struct ImageHeader {
  char magic[8];
  uint32_t version_major;
  uint32_t version_minor;
  uint64_t file_size;
  uint32_t section_count;
  uint32_t reserved_flags;  // writers MUST zero; readers ignore
  uint64_t table_checksum;
  uint64_t header_checksum;
  uint8_t reserved[16];  // writers MUST zero; readers ignore
};
static_assert(sizeof(ImageHeader) == 64);

/// One section-table entry (32 bytes). `offset` is absolute and 64-aligned;
/// `size` is the exact payload byte count (padding excluded); `checksum` is
/// ImageHash64 over the payload bytes.
struct SectionDesc {
  uint32_t id;
  uint32_t reserved;  // writers MUST zero; readers ignore
  uint64_t offset;
  uint64_t size;
  uint64_t checksum;
};
static_assert(sizeof(SectionDesc) == 32);

/// The kMeta section: every count the other sections are sized by. A reader
/// validates each section's byte size against these counts *exactly*, so a
/// flipped count can never drive an out-of-bounds view. The three component
/// counts sum to num_triples.
struct ImageMeta {
  uint64_t num_terms;   // dictionary entries, excluding reserved id 0
  uint64_t num_slots;   // open-addressing slots; power of two, > num_terms
  uint64_t mint_counter;
  uint64_t num_triples;
  uint64_t num_distinct_subjects;
  uint64_t num_distinct_predicates;
  uint64_t num_distinct_objects;
  uint64_t num_predicates;  // rows in kPredStats
  uint64_t num_type_triples;
  uint64_t num_schema_triples;
  uint64_t num_data_triples;
  uint64_t reserved[13];  // writers MUST zero; readers ignore
};
static_assert(sizeof(ImageMeta) == 192);

/// One kPredStats row: the per-predicate aggregates TableStats serves.
struct ImagePredStat {
  uint32_t p;
  uint32_t reserved;  // zero
  uint64_t count;
  uint64_t distinct_subjects;
  uint64_t distinct_objects;
};
static_assert(sizeof(ImagePredStat) == 32);

/// Fixed prefix of one kTermArena record: kind byte + the three piece
/// lengths, followed by lexical/datatype/language bytes (no terminators).
/// Packed byte-by-byte (the record stream has no alignment), decoded with
/// memcpy.
inline constexpr uint64_t kImageTermRecordHeaderBytes = 1 + 3 * 4;

/// The image format's one hash (docs/FORMAT.md §1.1), word-wise: four u64
/// lanes consume 32-byte little-endian stripes, then the lanes fold into a
/// length-seeded state one step each, then the remaining whole words, then
/// the remaining bytes as one zero-padded word, then splitmix64's
/// finalizer. Every step is a bijection of the state for fixed other
/// input, so any change confined to one 8-byte word of the input — every
/// single-bit flip included — changes the hash.
uint64_t ImageHash64(const void* data, size_t size, uint64_t seed = 0);

inline constexpr uint64_t ImageAlignUp(uint64_t n) {
  return (n + kImageAlignment - 1) & ~(kImageAlignment - 1);
}

// ---- Writing ----------------------------------------------------------------

/// Collects section payloads and writes a complete image: header, section
/// table (ascending id order), 64-aligned payloads with zeroed gaps,
/// per-section + header + table checksums. Deterministic: the same sections
/// produce byte-identical files.
class ImageBuilder {
 public:
  /// Adds a section whose payload the builder owns.
  void Add(SectionId id, std::string bytes);

  /// Adds a section that borrows `data`, which must outlive WriteFile():
  /// the large arrays (permutations, components) are written in place, not
  /// copied.
  template <typename T>
  void AddArray(SectionId id, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    sections_.push_back({static_cast<uint32_t>(id),
                         {reinterpret_cast<const char*>(data.data()),
                          data.size() * sizeof(T)}});
  }

  /// Writes the assembled image to a new file beside `path`, then renames
  /// it over `path`: a reader that maps the old file keeps reading the old
  /// bytes, and no reader ever sees a partial image. Fails with kIOError
  /// on any write problem, leaving `path` as it was and no file behind.
  Status WriteFile(const std::string& path) const;

 private:
  struct Section {
    uint32_t id;
    std::span<const char> bytes;
  };
  std::vector<Section> sections_;
  std::deque<std::string> owned_;  // Add()'s payloads, at stable addresses
};

/// Serializes `dict` into the kTermOffsets / kTermArena / kDictSlots
/// sections and fills the dictionary fields of `meta`. The slot table is
/// rebuilt by inserting ids in ascending order (not copied from the live
/// table), so images are deterministic regardless of the dictionary's
/// rehash history. Works on owned and view-mode dictionaries alike.
void AppendDictionarySections(const Dictionary& dict, ImageMeta* meta,
                              ImageBuilder* out);

// ---- Reading ----------------------------------------------------------------

/// A validated view over an image byte range (an mmap'd file or an
/// in-memory buffer — FrozenImage never owns the bytes). Attach() performs
/// the full corruption wall:
///
///  - header: magic, major version, header checksum, declared vs. actual
///    file size, section-table checksum;
///  - section table: ascending ids, 64-byte alignment, in-bounds and
///    non-overlapping payloads in table order, zeroed gaps, required
///    sections present;
///  - per-section ImageHash64 checksums (word-wise, so verifying them runs
///    at memory speed, not a byte at a time);
///  - structural validation: every section's size matches the kMeta counts
///    exactly, term-arena offsets are monotone and records well-formed,
///    the slot table is a power of two with exactly one occupied slot per
///    term (so a probe always ends), permutations are sorted, every stored
///    triple has in-range ids, the six triple sections hold the same
///    triples, and every component row sits in the component Graph::Add
///    routes it to — so no later accessor can read out of bounds, and no
///    index or view disagrees with another, even on a checksum-valid
///    adversarial file.
///
/// Any violation returns kCorruption; an unsupported major version (v1 to
/// v3 images included: re-freeze them) or a big-endian host returns
/// kNotSupported. Never UB, never an allocation driven by an unvalidated
/// count.
class FrozenImage {
 public:
  FrozenImage() = default;

  static StatusOr<FrozenImage> Attach(const char* data, size_t size);

  const ImageMeta& meta() const { return meta_; }
  /// Total image size in bytes (== file size, validated at Attach).
  size_t size() const { return size_; }

  bool HasSection(SectionId id) const;
  /// Raw payload bytes; empty span when the section is absent.
  std::span<const char> SectionBytes(SectionId id) const;

  /// Typed view of a section payload. Requires the section to be present
  /// with a size divisible by sizeof(T) — guaranteed after Attach() for the
  /// section/type pairings documented on SectionId.
  template <typename T>
  std::span<const T> Array(SectionId id) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::span<const char> bytes = SectionBytes(id);
    return {reinterpret_cast<const T*>(bytes.data()),
            bytes.size() / sizeof(T)};
  }

  /// The dictionary base backed by this image, ready for
  /// Dictionary::FromView. Valid only while the attached bytes live.
  DictionaryView dictionary_view() const;

 private:
  const char* data_ = nullptr;
  size_t size_ = 0;
  ImageMeta meta_{};
  // Dense id -> index into descs_; -1 when absent.
  std::vector<SectionDesc> descs_;
  int section_index_[kImageMaxSections + 1] = {};
};

}  // namespace rdfsum

#endif  // RDFSUM_RDF_FROZEN_IMAGE_H_
