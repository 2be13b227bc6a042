// The frozen-image corruption wall (docs/FORMAT.md §8): images are
// truncated at every length, bit-flipped at every bit, fed wrong formats
// (a retired .rdfsum summary file, random bytes), given nonzero padding,
// and given adversarial counts behind *valid* checksums.
// FrozenImage::Attach must return kCorruption (kIOError for unreadable
// files, kNotSupported for another major version) — never crash, never
// read out of bounds, never let an unvalidated count drive an allocation.
// Runs under ASan/UBSan in CI, where "never UB" is machine-checked.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gen/paper_example.h"
#include "rdf/frozen_image.h"
#include "store/mmap_store.h"
#include "util/fault_injection.h"

namespace rdfsum {
namespace {

using store::MmapStore;
using util::FaultInjection;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}


std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// A small but fully featured image: literals with datatypes/tags, data,
// type and schema triples — every section is non-trivial.
std::string ImageBytes() {
  gen::Figure2Example ex = gen::BuildFigure2();
  const std::string path = TempPath("image_corruption_base.rsb");
  EXPECT_TRUE(store::FreezeGraphToFile(ex.graph, path).ok());
  std::string bytes = FileBytes(path);
  EXPECT_FALSE(bytes.empty());
  return bytes;
}

Status AttachStatus(const std::string& bytes) {
  auto img = FrozenImage::Attach(bytes.data(), bytes.size());
  return img.ok() ? Status::OK() : img.status();
}

template <typename T>
T ReadAt(const std::string& bytes, size_t off) {
  T v;
  std::memcpy(&v, bytes.data() + off, sizeof(T));
  return v;
}

template <typename T>
void WriteAt(std::string* bytes, size_t off, T v) {
  std::memcpy(bytes->data() + off, &v, sizeof(T));
}

// Header field offsets (docs/FORMAT.md §3).
constexpr size_t kOffFileSize = 16;
constexpr size_t kOffSectionCount = 24;
constexpr size_t kOffTableChecksum = 32;
constexpr size_t kOffHeaderChecksum = 40;

// Recomputes every checksum bottom-up — section payloads, the section
// table, then the header — exactly as a malicious writer would, so the
// tests below prove corruption is caught by *structural* validation, not
// just by checksum mismatch.
void Reseal(std::string* bytes) {
  const uint32_t count = ReadAt<uint32_t>(*bytes, kOffSectionCount);
  for (uint32_t i = 0; i < count; ++i) {
    const size_t desc = sizeof(ImageHeader) + i * sizeof(SectionDesc);
    const uint64_t off = ReadAt<uint64_t>(*bytes, desc + 8);
    const uint64_t size = ReadAt<uint64_t>(*bytes, desc + 16);
    if (off + size <= bytes->size()) {
      WriteAt(bytes, desc + 24, ImageHash64(bytes->data() + off, size));
    }
  }
  WriteAt(bytes, kOffTableChecksum,
          ImageHash64(bytes->data() + sizeof(ImageHeader),
                      count * sizeof(SectionDesc)));
  WriteAt(bytes, kOffHeaderChecksum,
          ImageHash64(bytes->data(), kOffHeaderChecksum));
}

// Finds the in-file byte range of a section's payload via the table.
bool FindSection(const std::string& bytes, SectionId id, size_t* off,
                 size_t* size) {
  const uint32_t count = ReadAt<uint32_t>(bytes, kOffSectionCount);
  for (uint32_t i = 0; i < count; ++i) {
    const size_t desc = sizeof(ImageHeader) + i * sizeof(SectionDesc);
    if (ReadAt<uint32_t>(bytes, desc) == static_cast<uint32_t>(id)) {
      *off = ReadAt<uint64_t>(bytes, desc + 8);
      *size = ReadAt<uint64_t>(bytes, desc + 16);
      return true;
    }
  }
  return false;
}

// The byte pattern of the pinned ImageHash64 vectors: byte i is
// (7 * i + 1) mod 256.
std::vector<unsigned char> HashPattern(size_t size) {
  std::vector<unsigned char> bytes(size);
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<unsigned char>(7 * i + 1);
  }
  return bytes;
}

TEST(ImageHashTest, PinnedVectors) {
  // The same table is in docs/FORMAT.md §1: changing a value is a format
  // break.
  const std::vector<unsigned char> bytes = HashPattern(100);
  const std::pair<size_t, uint64_t> vectors[] = {
      {0, 0x8a5e6b8842b6e4feull},   {1, 0xc35951c6c3fea57eull},
      {7, 0xcc7f01e7a99b22ebull},   {8, 0x9119d38ac573bd85ull},
      {31, 0x16522ae16dc0b65cull},  {32, 0x73e5f38de8027136ull},
      {33, 0xd41c35a99dbf96d4ull},  {64, 0x4bb53088d95f4c07ull},
      {100, 0x329947671a8a7c30ull},
  };
  for (const auto& [size, hash] : vectors) {
    EXPECT_EQ(ImageHash64(bytes.data(), size), hash) << "length " << size;
  }
  EXPECT_EQ(ImageHash64(bytes.data(), 100, 0x0123456789abcdefull),
            0x931d65f206a85223ull);
}

TEST(ImageHashTest, EverySingleBitFlipChangesTheHash) {
  // Guaranteed, not probable: every step is a bijection of the state for
  // fixed other input. Lengths 1 to 100 cover tail-only, whole-word and
  // striped inputs.
  for (size_t size = 1; size <= 100; ++size) {
    std::vector<unsigned char> bytes = HashPattern(size);
    const uint64_t base = ImageHash64(bytes.data(), size);
    for (size_t i = 0; i < size; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[i] ^= static_cast<unsigned char>(1 << bit);
        ASSERT_NE(ImageHash64(bytes.data(), size), base)
            << "length " << size << " byte " << i << " bit " << bit;
        bytes[i] ^= static_cast<unsigned char>(1 << bit);
      }
    }
  }
}

TEST(ImageCorruptionTest, TheBaseImageAttaches) {
  const std::string bytes = ImageBytes();
  EXPECT_TRUE(AttachStatus(bytes).ok()) << AttachStatus(bytes).ToString();
}

TEST(ImageCorruptionTest, TruncationAtEveryLengthIsRejected) {
  const std::string bytes = ImageBytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::string prefix = bytes.substr(0, len);
    Status st = AttachStatus(prefix);
    ASSERT_FALSE(st.ok()) << "accepted a file truncated to " << len << " of "
                          << bytes.size() << " bytes";
    ASSERT_TRUE(st.IsCorruption()) << "len " << len << ": " << st.ToString();
  }
}

TEST(ImageCorruptionTest, EveryBitFlipIsDetected) {
  const std::string bytes = ImageBytes();
  // Every bit of every byte flipped in turn, skipping bytes the format
  // documents as ignored (header/desc reserved fields) — a flip there must
  // *succeed*, which the minor-version-evolution test below pins separately.
  // (SectionDesc::reserved and ImageMeta reserved words are semantically
  // ignored but still covered by the table/section checksums, so flips
  // there are caught too — only the header's reserved tail is outside
  // every checksum by design.)
  std::vector<bool> ignored(bytes.size(), false);
  for (size_t i = 48; i < 64; ++i) ignored[i] = true;  // header reserved
  std::string mutated = bytes;
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (ignored[i]) continue;
    for (int bit = 0; bit < 8; ++bit) {
      mutated[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      Status st = AttachStatus(mutated);
      ASSERT_FALSE(st.ok()) << "accepted a flip of bit " << bit << " of byte "
                            << i;
      ASSERT_TRUE(st.IsCorruption() || st.IsNotSupported())
          << "byte " << i << " bit " << bit << ": " << st.ToString();
    }
    mutated[i] = bytes[i];
  }
}

TEST(ImageCorruptionTest, HeaderReservedBytesAreIgnored) {
  // Writers must zero them, readers must ignore them: a future minor
  // version can claim them without breaking old readers. They sit outside
  // header_checksum's [0, 40) coverage by design.
  std::string bytes = ImageBytes();
  for (size_t i = 48; i < 64; ++i) bytes[i] = '\x5a';
  EXPECT_TRUE(AttachStatus(bytes).ok());
}

TEST(ImageCorruptionTest, V1SummaryFileIsRejectedCleanly) {
  // The retired sibling format: a persisted *summary* (.rdfsum, magic
  // "RDFSUMSUM", version 2) handed to the store opener. Eight of its nine
  // magic bytes match ours, and such files may still sit on disk. Header:
  // magic(9) + version u32 + kind u32 + payload size u64 + FNV-1a-64 of
  // version, kind and payload; the zero payload pads the file past the
  // 64-byte image header so the size gate alone cannot reject it.
  const uint32_t version = 2, kind = 0;
  const std::string payload(64, '\0');
  std::string bytes = "RDFSUMSUM";
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  bytes.append(reinterpret_cast<const char*>(&kind), sizeof(kind));
  const uint64_t payload_size = payload.size();
  bytes.append(reinterpret_cast<const char*>(&payload_size),
               sizeof(payload_size));
  auto fnv1a64 = [](const char* p, size_t n, uint64_t h) {
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 1099511628211ULL;
    }
    return h;
  };
  const uint64_t checksum =
      fnv1a64(payload.data(), payload.size(),
              fnv1a64(bytes.data() + 9, 8, 1469598103934665603ULL));
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  bytes += payload;
  ASSERT_GT(bytes.size(), sizeof(ImageHeader));
  const std::string path = TempPath("not_an_image.rdfsum");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto opened = MmapStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
}

TEST(ImageCorruptionTest, RandomBytesAreRejected) {
  // Deterministic pseudo-random junk at several sizes, including ones large
  // enough to pass the header-size gate.
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (size_t size : {0ul, 1ul, 63ul, 64ul, 96ul, 4096ul}) {
    std::string junk(size, '\0');
    for (char& c : junk) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      c = static_cast<char>(state >> 33);
    }
    Status st = AttachStatus(junk);
    ASSERT_FALSE(st.ok()) << "accepted " << size << " random bytes";
  }
}

TEST(ImageCorruptionTest, FutureMajorVersionIsNotSupported) {
  std::string bytes = ImageBytes();
  WriteAt<uint32_t>(&bytes, 8, kImageVersionMajor + 1);
  Reseal(&bytes);
  Status st = AttachStatus(bytes);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
}

TEST(ImageCorruptionTest, Version1ImageIsNotSupported) {
  // The v1 layout stored the dense substrate and no kDataTriples; v2 was
  // checksummed with FNV-1a. This reader refuses both by version and asks
  // for a re-freeze — whether the header checksum is resealed with this
  // build's hash or, as in a real old file, is another hash's: the version
  // is read before the checksum it decides.
  const std::string base = ImageBytes();
  for (uint32_t major : {1u, 2u}) {
    for (bool reseal : {true, false}) {
      SCOPED_TRACE("major " + std::to_string(major) +
                   (reseal ? " resealed" : " stale checksums"));
      std::string bytes = base;
      WriteAt<uint32_t>(&bytes, 8, major);
      if (reseal) Reseal(&bytes);
      Status st = AttachStatus(bytes);
      ASSERT_FALSE(st.ok());
      EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
      EXPECT_NE(st.ToString().find("re-freeze"), std::string::npos)
          << st.ToString();
    }
  }
}

TEST(ImageCorruptionTest, Version3ImageIsNotSupported) {
  // A v3 image has v4's layout and checksums; only its kDictSlots table is
  // keyed by the byte-serial FNV-1a HashTerm, so a v4 reader that took it
  // would probe every lookup at the wrong slot and miss terms the image
  // holds. The version gate refuses it even behind valid checksums.
  std::string bytes = ImageBytes();
  WriteAt<uint32_t>(&bytes, 8, 3);
  Reseal(&bytes);
  Status st = AttachStatus(bytes);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
  EXPECT_NE(st.ToString().find("major version 3"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("re-freeze"), std::string::npos)
      << st.ToString();
}

TEST(ImageCorruptionTest, NonzeroPaddingIsRejected) {
  // Alignment gaps are not covered by any section checksum — so the reader
  // validates them to zero; they must not be a hiding place.
  const std::string bytes = ImageBytes();
  size_t off = 0, size = 0;
  ASSERT_TRUE(FindSection(bytes, SectionId::kTermArena, &off, &size));
  const size_t pad = off + size;
  ASSERT_LT(pad, bytes.size());
  ASSERT_NE(pad % kImageAlignment, 0u)
      << "term arena ended 64-aligned; pick a section with padding";
  std::string mutated = bytes;
  mutated[pad] = '\x01';
  Reseal(&mutated);  // padding is outside every checksum — reseal is a no-op
  Status st = AttachStatus(mutated);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(ImageCorruptionTest, ResealedHugeCountFailsStructurally) {
  // The adversarial case checksums cannot catch: a "valid" file whose meta
  // claims 2^60 terms. Every section size is validated against the counts
  // *exactly*, so the lie is caught before any count-driven allocation.
  const std::string bytes = ImageBytes();
  size_t meta_off = 0, meta_size = 0;
  ASSERT_TRUE(FindSection(bytes, SectionId::kMeta, &meta_off, &meta_size));
  ASSERT_EQ(meta_size, sizeof(ImageMeta));
  // Attack every count field in turn. Words are u64s in ImageMeta order:
  // 0 num_terms, 1 num_slots, 2 mint_counter, 3 num_triples, 4-6 the
  // distinct subject/predicate/object counts, 7 num_predicates, 8-10 the
  // type/schema/data component counts, 11-23 reserved.
  constexpr size_t kMintCounterWord =
      offsetof(ImageMeta, mint_counter) / sizeof(uint64_t);
  constexpr size_t kFirstReservedWord =
      offsetof(ImageMeta, reserved) / sizeof(uint64_t);
  static_assert(kMintCounterWord == 2 && kFirstReservedWord == 11);
  for (size_t field = 0; field < sizeof(ImageMeta) / 8; ++field) {
    std::string mutated = bytes;
    WriteAt<uint64_t>(&mutated, meta_off + field * 8, 1ULL << 60);
    Reseal(&mutated);
    Status st = AttachStatus(mutated);
    if (field == kMintCounterWord || field >= kFirstReservedWord) {
      // mint_counter is a free-running counter (any value is legal);
      // reserved words are ignored by readers. The file stays valid.
      EXPECT_TRUE(st.ok()) << "meta word " << field;
      continue;
    }
    ASSERT_FALSE(st.ok()) << "accepted a 2^60 count in meta field " << field;
    ASSERT_TRUE(st.IsCorruption()) << "field " << field << ": "
                                   << st.ToString();
  }
}

TEST(ImageCorruptionTest, ResealedSlotTableWithNoFreeSlotIsRejected) {
  // Every empty slot claims term 1: each id stays in range, but a probe
  // for a term the image lacks would never reach a free slot and never
  // end. Occupied slots must number exactly the terms.
  const std::string bytes = ImageBytes();
  size_t off = 0, size = 0;
  ASSERT_TRUE(FindSection(bytes, SectionId::kDictSlots, &off, &size));
  std::string mutated = bytes;
  for (size_t at = off; at < off + size; at += sizeof(DictionaryView::Slot)) {
    const size_t id_at = at + offsetof(DictionaryView::Slot, id);
    if (ReadAt<uint32_t>(mutated, id_at) == kInvalidTermId) {
      WriteAt<uint32_t>(&mutated, id_at, 1);
    }
  }
  ASSERT_NE(mutated, bytes);
  Reseal(&mutated);
  Status st = AttachStatus(mutated);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(ImageCorruptionTest, ResealedUnsortedPermutationIsRejected) {
  // Swap the first two SPO rows and reseal: checksums pass, the sortedness
  // gate does not — binary search over an unsorted span would silently
  // return wrong answers, which is worse than a crash.
  const std::string bytes = ImageBytes();
  size_t off = 0, size = 0;
  ASSERT_TRUE(FindSection(bytes, SectionId::kSpo, &off, &size));
  ASSERT_GE(size, 2 * sizeof(Triple));
  std::string mutated = bytes;
  std::string row0 = mutated.substr(off, sizeof(Triple));
  std::string row1 = mutated.substr(off + sizeof(Triple), sizeof(Triple));
  mutated.replace(off, sizeof(Triple), row1);
  mutated.replace(off + sizeof(Triple), sizeof(Triple), row0);
  Reseal(&mutated);
  Status st = AttachStatus(mutated);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(ImageCorruptionTest, ResealedOutOfRangeTermIdIsRejected) {
  // A triple whose subject points past the dictionary: Decode would read
  // out of the term-offsets array. The id-range gate rejects it in a sorted
  // permutation and in a stored component alike.
  const std::string bytes = ImageBytes();
  for (SectionId id : {SectionId::kSpo, SectionId::kDataTriples,
                       SectionId::kTypeTriples}) {
    SCOPED_TRACE("section " + std::to_string(static_cast<uint32_t>(id)));
    size_t off = 0, size = 0;
    ASSERT_TRUE(FindSection(bytes, id, &off, &size));
    ASSERT_GE(size, sizeof(Triple));
    std::string mutated = bytes;
    WriteAt<uint32_t>(&mutated, off, 0xFFFFFFFFu);  // first row's subject
    Reseal(&mutated);
    Status st = AttachStatus(mutated);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

TEST(ImageCorruptionTest, ResealedComponentCountsMustSumToTriples) {
  // Every section size stays honest to its count; only the relation between
  // the counts lies. Drop the last data row (payload, section size and
  // num_data_triples together), so the permutations and num_triples hold
  // one row more than the three components do.
  const std::string bytes = ImageBytes();
  size_t meta_off = 0, meta_size = 0;
  ASSERT_TRUE(FindSection(bytes, SectionId::kMeta, &meta_off, &meta_size));
  size_t data_off = 0, data_size = 0;
  ASSERT_TRUE(
      FindSection(bytes, SectionId::kDataTriples, &data_off, &data_size));
  ASSERT_GE(data_size, sizeof(Triple));
  ASSERT_EQ(data_off + data_size, bytes.size()) << "kDataTriples is last";
  std::string mutated = bytes.substr(0, bytes.size() - sizeof(Triple));
  const size_t count_off =
      meta_off + offsetof(ImageMeta, num_data_triples);
  WriteAt<uint64_t>(&mutated, count_off,
                    ReadAt<uint64_t>(mutated, count_off) - 1);
  // Shrink the section's table entry and the declared file size to match.
  const uint32_t count = ReadAt<uint32_t>(mutated, kOffSectionCount);
  for (uint32_t i = 0; i < count; ++i) {
    const size_t desc = sizeof(ImageHeader) + i * sizeof(SectionDesc);
    if (ReadAt<uint32_t>(mutated, desc) ==
        static_cast<uint32_t>(SectionId::kDataTriples)) {
      WriteAt<uint64_t>(&mutated, desc + 16, data_size - sizeof(Triple));
    }
  }
  WriteAt<uint64_t>(&mutated, kOffFileSize, mutated.size());
  Reseal(&mutated);
  Status st = AttachStatus(mutated);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("sum"), std::string::npos) << st.ToString();
}

TEST(ImageCorruptionTest, ResealedPermutationsMustHoldTheSameTriples) {
  // Each mutation keeps its section sorted and every id in range, so only
  // the same-triples rule catches it. POS and OSP: raise the last key of
  // the last row to the largest term id (the row stays last, and its triple
  // cannot be in SPO, or it would sort after it). Data: point the first
  // row's object at another term. A pattern served from the mutated index
  // would answer a triple SPO does not hold.
  const std::string bytes = ImageBytes();
  size_t meta_off = 0, meta_size = 0;
  ASSERT_TRUE(FindSection(bytes, SectionId::kMeta, &meta_off, &meta_size));
  const uint32_t num_terms = static_cast<uint32_t>(
      ReadAt<uint64_t>(bytes, meta_off + offsetof(ImageMeta, num_terms)));
  struct Mutation {
    SectionId id;
    bool last_row;
    size_t field;  // byte offset in the row: 0 = s, 4 = p, 8 = o
  };
  for (const Mutation& m : {Mutation{SectionId::kPos, true, 0},
                            Mutation{SectionId::kOsp, true, 4},
                            Mutation{SectionId::kDataTriples, false, 8}}) {
    SCOPED_TRACE("section " + std::to_string(static_cast<uint32_t>(m.id)));
    size_t off = 0, size = 0;
    ASSERT_TRUE(FindSection(bytes, m.id, &off, &size));
    ASSERT_GE(size, sizeof(Triple));
    const size_t at = off + (m.last_row ? size - sizeof(Triple) : 0) + m.field;
    const uint32_t old_id = ReadAt<uint32_t>(bytes, at);
    const uint32_t new_id = m.last_row ? num_terms : old_id % num_terms + 1;
    ASSERT_NE(new_id, old_id);
    std::string mutated = bytes;
    WriteAt<uint32_t>(&mutated, at, new_id);
    Reseal(&mutated);
    Status st = AttachStatus(mutated);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

TEST(ImageCorruptionTest, ResealedComponentRowsMustBeRoutedAsGraphAddWould) {
  // Each mutation moves one row between components and keeps every count,
  // size and checksum honest, so the six triple sections still hold the
  // same triples; only the routing rule catches it. View() summarizes the
  // components as stored, so a type row filed as data would be summarized
  // as a data edge, unlike in ToGraph()'s graph.
  const std::string bytes = ImageBytes();
  auto attached = FrozenImage::Attach(bytes.data(), bytes.size());
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  struct Move {
    SectionId from, to;
    uint64_t ImageMeta::*from_count;
    uint64_t ImageMeta::*to_count;
  };
  for (const Move& mv :
       {Move{SectionId::kTypeTriples, SectionId::kDataTriples,
             &ImageMeta::num_type_triples, &ImageMeta::num_data_triples},
        Move{SectionId::kDataTriples, SectionId::kSchemaTriples,
             &ImageMeta::num_data_triples, &ImageMeta::num_schema_triples}}) {
    SCOPED_TRACE("section " + std::to_string(static_cast<uint32_t>(mv.from)) +
                 " -> " + std::to_string(static_cast<uint32_t>(mv.to)));
    std::string sections[static_cast<size_t>(SectionId::kDataTriples) + 1];
    for (uint32_t id = 1; id <= static_cast<uint32_t>(SectionId::kDataTriples);
         ++id) {
      std::span<const char> payload =
          attached->SectionBytes(static_cast<SectionId>(id));
      sections[id].assign(payload.data(), payload.size());
    }
    std::string& from = sections[static_cast<size_t>(mv.from)];
    std::string& to = sections[static_cast<size_t>(mv.to)];
    ASSERT_GE(from.size(), sizeof(Triple));
    to += from.substr(0, sizeof(Triple));
    from.erase(0, sizeof(Triple));
    ImageMeta meta = attached->meta();
    --(meta.*mv.from_count);
    ++(meta.*mv.to_count);
    sections[static_cast<size_t>(SectionId::kMeta)].assign(
        reinterpret_cast<const char*>(&meta), sizeof(meta));
    ImageBuilder builder;
    for (uint32_t id = 1; id <= static_cast<uint32_t>(SectionId::kDataTriples);
         ++id) {
      builder.Add(static_cast<SectionId>(id), sections[id]);
    }
    const std::string path = TempPath("misrouted.rsb");
    ASSERT_TRUE(builder.WriteFile(path).ok());
    auto opened = MmapStore::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
    EXPECT_NE(opened.status().ToString().find("routes"), std::string::npos)
        << opened.status().ToString();
  }
}

TEST(ImageCorruptionTest, AppendedJunkIsRejected) {
  std::string bytes = ImageBytes();
  bytes += std::string(64, '\x7f');
  // file_size still says the original size; the actual size disagrees.
  Status st = AttachStatus(bytes);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // Even "fixing" file_size doesn't help: the canonical-layout rule says
  // the file ends exactly at the last payload byte.
  WriteAt<uint64_t>(&bytes, kOffFileSize, bytes.size());
  Reseal(&bytes);
  st = AttachStatus(bytes);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

class ImageFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FaultInjection::compiled_in()) {
      GTEST_SKIP() << "failpoints not compiled in (Release build)";
    }
    FaultInjection::Clear();
  }
  void TearDown() override { FaultInjection::Clear(); }
};

TEST_F(ImageFailpointTest, WriteFailureSurfacesAsIOError) {
  gen::Figure2Example ex = gen::BuildFigure2();
  FaultInjection::Arm("image:write", Status::IOError("disk full"));
  Status st =
      store::FreezeGraphToFile(ex.graph, TempPath("failpoint_write.rsb"));
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST_F(ImageFailpointTest, OpenFailureSurfacesCleanly) {
  gen::Figure2Example ex = gen::BuildFigure2();
  const std::string path = TempPath("failpoint_open.rsb");
  ASSERT_TRUE(store::FreezeGraphToFile(ex.graph, path).ok());
  FaultInjection::Arm("image:open", Status::IOError("torn read"));
  auto opened = MmapStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError()) << opened.status().ToString();
  FaultInjection::Clear();
  EXPECT_TRUE(MmapStore::Open(path).ok());
}

}  // namespace
}  // namespace rdfsum
