#include "rdf/frozen_image.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <numeric>

#include "rdf/vocabulary.h"

namespace rdfsum {

// The on-disk arrays are reinterpreted in place; these pin the layouts the
// format depends on. A platform where they fail needs explicit marshalling,
// not a silent format fork.
static_assert(sizeof(Triple) == 12 && alignof(Triple) == 4);

namespace {

Status Corrupt(const std::string& what) {
  return Status::Corruption("frozen image: " + what);
}

bool HostIsLittleEndian() {
  return std::endian::native == std::endian::little;
}

/// Overflow-safe `count * elem == actual`.
bool SizeIs(uint64_t count, uint64_t elem, uint64_t actual) {
  if (elem != 0 && count > UINT64_MAX / elem) return false;
  return count * elem == actual;
}

/// splitmix64's finalizer: a bijection of u64 with full avalanche.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// One triple's term of an order-independent multiset fingerprint: the
/// wrapping sum of TripleMix over a section is equal for two sections
/// holding the same triples in any order, and a changed row changes it
/// except with probability about 2^-64.
uint64_t TripleMix(const Triple& t) {
  return Mix64(Mix64((uint64_t{t.s} << 32) | t.p) + t.o);
}

// ImageHash64's multipliers. Each is odd, so multiplying by one is a
// bijection of u64.
constexpr uint64_t kHashP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kHashP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kHashP3 = 0x165667B19E3779F9ull;
constexpr uint64_t kHashP4 = 0x85EBCA77C2B2AE63ull;

/// A bijection of `lane` for a fixed word `w`, and of `w` for a fixed lane.
uint64_t HashRound(uint64_t lane, uint64_t w) {
  return std::rotl(lane + w * kHashP2, 31) * kHashP1;
}

void AppendPod(std::string* out, const void* p, size_t n) {
  out->append(static_cast<const char*>(p), n);
}

template <typename T>
std::string PodBytes(const std::vector<T>& v) {
  return std::string(reinterpret_cast<const char*>(v.data()),
                     v.size() * sizeof(T));
}

}  // namespace

uint64_t ImageHash64(const void* data, size_t size, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  auto word = [p](size_t at) {
    uint64_t w;
    std::memcpy(&w, p + at, sizeof(w));  // images are little-endian only
    return w;
  };
  uint64_t lanes[4] = {seed + kHashP1 + kHashP2, seed + kHashP2, seed,
                       seed - kHashP1};
  size_t i = 0;
  for (; size - i >= 32; i += 32) {
    for (size_t k = 0; k < 4; ++k) {
      lanes[k] = HashRound(lanes[k], word(i + 8 * k));
    }
  }
  uint64_t h = seed + kHashP3 + size;
  auto fold = [&h](uint64_t w) {
    h = std::rotl(h ^ HashRound(0, w), 27) * kHashP1 + kHashP4;
  };
  for (uint64_t lane : lanes) fold(lane);
  for (; size - i >= 8; i += 8) fold(word(i));
  if (i < size) {
    uint64_t tail = 0;
    std::memcpy(&tail, p + i, size - i);
    fold(tail);
  }
  return Mix64(h);
}

// ---- ImageBuilder -----------------------------------------------------------

void ImageBuilder::Add(SectionId id, std::string bytes) {
  owned_.push_back(std::move(bytes));
  sections_.push_back({static_cast<uint32_t>(id), owned_.back()});
}

Status ImageBuilder::WriteFile(const std::string& path) const {
  if (!HostIsLittleEndian()) {
    return Status::NotSupported("frozen images require a little-endian host");
  }
  std::vector<size_t> order(sections_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return sections_[a].id < sections_[b].id;
  });

  // Canonical layout: each payload starts at ImageAlignUp of the previous
  // end (the first at ImageAlignUp of the table end), and the file ends
  // exactly at the last payload's end. Attach() enforces the same equalities,
  // so identical sections produce — and are required to be — identical bytes.
  const uint64_t table_end =
      sizeof(ImageHeader) + sections_.size() * sizeof(SectionDesc);
  std::vector<SectionDesc> descs;
  descs.reserve(sections_.size());
  uint64_t end = table_end;
  for (size_t idx : order) {
    const auto& [id, bytes] = sections_[idx];
    SectionDesc d{};
    d.id = id;
    d.offset = ImageAlignUp(end);
    d.size = bytes.size();
    d.checksum = ImageHash64(bytes.data(), bytes.size());
    end = d.offset + d.size;
    descs.push_back(d);
  }

  ImageHeader header{};
  std::memcpy(header.magic, kImageMagic, sizeof(kImageMagic));
  header.version_major = kImageVersionMajor;
  header.version_minor = kImageVersionMinor;
  header.file_size = end;
  header.section_count = static_cast<uint32_t>(sections_.size());
  header.table_checksum =
      ImageHash64(descs.data(), descs.size() * sizeof(SectionDesc));
  header.header_checksum = ImageHash64(&header, 40);

  // Written to a new file beside `path`, then renamed over it: truncating
  // `path` in place would rewrite pages a live reader has mapped. The new
  // file is created exclusively, so concurrent writers never share one;
  // names a crashed writer left behind are skipped.
  std::string tmp;
  std::FILE* f = nullptr;
  for (uint32_t n = 0; f == nullptr && n < 64; ++n) {
    tmp = path + ".tmp" + std::to_string(n);
    errno = 0;
    f = std::fopen(tmp.c_str(), "wbx");
    if (f == nullptr && errno != EEXIST) break;
  }
  if (f == nullptr) {
    return Status::IOError("cannot create a file beside " + path);
  }
  // Streamed section by section: no second in-memory copy of the image.
  auto put = [&](const void* p, size_t n) {
    return n == 0 || std::fwrite(p, 1, n, f) == n;  // p may be null if n == 0
  };
  static constexpr char kZeros[kImageAlignment] = {};
  bool ok = put(&header, sizeof(header)) &&
            put(descs.data(), descs.size() * sizeof(SectionDesc));
  uint64_t pos = table_end;
  for (size_t i = 0; ok && i < order.size(); ++i) {
    std::span<const char> bytes = sections_[order[i]].bytes;
    ok = put(kZeros, descs[i].offset - pos) &&  // zero padding, < 64 bytes
         put(bytes.data(), bytes.size());
    pos = descs[i].offset + bytes.size();
  }
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot replace " + path);
  }
  return Status::OK();
}

// ---- Section writers --------------------------------------------------------

void AppendDictionarySections(const Dictionary& dict, ImageMeta* meta,
                              ImageBuilder* out) {
  const uint64_t n = dict.size() - 1;  // excluding reserved id 0
  std::vector<uint64_t> offsets;
  offsets.reserve(n + 1);
  std::string arena;
  offsets.push_back(0);
  for (TermId id = 1; id <= n; ++id) {
    const Term& t = dict.Decode(id);
    const uint8_t kind = static_cast<uint8_t>(t.kind);
    const uint32_t lens[3] = {static_cast<uint32_t>(t.lexical.size()),
                              static_cast<uint32_t>(t.datatype.size()),
                              static_cast<uint32_t>(t.language.size())};
    arena.push_back(static_cast<char>(kind));
    AppendPod(&arena, lens, sizeof(lens));
    arena += t.lexical;
    arena += t.datatype;
    arena += t.language;
    offsets.push_back(arena.size());
  }

  // Rebuild the probe table by inserting ids in ascending order (the same
  // sizing rule as Dictionary::Reserve) instead of copying the live table:
  // the live layout depends on rehash history, the rebuilt one only on
  // content, so images stay deterministic.
  uint64_t num_slots = 64;
  while (n * 10 >= num_slots * 7) num_slots *= 2;
  std::vector<DictionaryView::Slot> slots(num_slots);
  const uint64_t mask = num_slots - 1;
  for (TermId id = 1; id <= n; ++id) {
    const uint64_t h = Dictionary::HashTerm(dict.Decode(id));
    uint64_t i = h & mask;
    while (slots[i].id != kInvalidTermId) i = (i + 1) & mask;
    slots[i] = DictionaryView::Slot{h, id, 0};
  }

  meta->num_terms = n;
  meta->num_slots = num_slots;
  meta->mint_counter = dict.mint_counter();
  out->Add(SectionId::kTermOffsets, PodBytes(offsets));
  out->Add(SectionId::kTermArena, std::move(arena));
  out->Add(SectionId::kDictSlots, PodBytes(slots));
}

// ---- FrozenImage ------------------------------------------------------------

bool FrozenImage::HasSection(SectionId id) const {
  const uint32_t i = static_cast<uint32_t>(id);
  if (descs_.empty() || i == 0 || i > kImageMaxSections) return false;
  return section_index_[i] >= 0;
}

std::span<const char> FrozenImage::SectionBytes(SectionId id) const {
  if (!HasSection(id)) return {};
  const SectionDesc& d = descs_[section_index_[static_cast<uint32_t>(id)]];
  return {data_ + d.offset, static_cast<size_t>(d.size)};
}

namespace {

/// Structural validation: every section's byte size must match the kMeta
/// counts exactly and every index/id/offset must stay in range, so that no
/// accessor over the mapped arrays can read out of bounds even on a
/// checksum-valid adversarial file. `img` is fully attached except for this
/// final gate.
Status ValidateStructure(const FrozenImage& img) {
  const ImageMeta& m = img.meta();
  auto bytes = [&](SectionId id) { return img.SectionBytes(id); };

  // Dictionary: ids are u32 and 0 is reserved.
  if (m.num_terms > 0xFFFFFFFEull) return Corrupt("term count exceeds u32");
  if (!SizeIs(m.num_terms + 1, 8, bytes(SectionId::kTermOffsets).size())) {
    return Corrupt("term-offset section size mismatch");
  }
  std::span<const uint64_t> offs = img.Array<uint64_t>(SectionId::kTermOffsets);
  std::span<const char> arena = bytes(SectionId::kTermArena);
  if (offs[0] != 0 || offs[m.num_terms] != arena.size()) {
    return Corrupt("term arena does not match its offsets");
  }
  for (uint64_t i = 0; i < m.num_terms; ++i) {
    if (offs[i + 1] < offs[i]) return Corrupt("term offsets not monotone");
    const uint64_t rec_len = offs[i + 1] - offs[i];
    if (rec_len < kImageTermRecordHeaderBytes) {
      return Corrupt("term record shorter than its header");
    }
    const char* rec = arena.data() + offs[i];
    const uint8_t kind = static_cast<uint8_t>(rec[0]);
    if (kind > 2) return Corrupt("term record with invalid kind");
    uint32_t lens[3];
    std::memcpy(lens, rec + 1, sizeof(lens));
    const uint64_t want = kImageTermRecordHeaderBytes + uint64_t{lens[0]} +
                          lens[1] + lens[2];
    if (want != rec_len) return Corrupt("term record length mismatch");
  }
  if (m.num_slots == 0 || (m.num_slots & (m.num_slots - 1)) != 0 ||
      m.num_terms >= m.num_slots) {
    return Corrupt("slot table not a power of two with a free slot");
  }
  if (!SizeIs(m.num_slots, sizeof(DictionaryView::Slot),
              bytes(SectionId::kDictSlots).size())) {
    return Corrupt("slot section size mismatch");
  }
  // Occupied slots number exactly the terms, so a probe always reaches a
  // free slot and ends.
  uint64_t occupied = 0;
  for (const DictionaryView::Slot& s :
       img.Array<DictionaryView::Slot>(SectionId::kDictSlots)) {
    if (s.id > m.num_terms) return Corrupt("slot id out of range");
    occupied += s.id != kInvalidTermId;
  }
  if (occupied != m.num_terms) {
    return Corrupt("slot table does not hold one slot per term");
  }

  // Statistics counts cannot exceed what they count (a lying count would
  // not be unsafe, but it would silently mislead the planner).
  if (m.num_distinct_subjects > m.num_triples ||
      m.num_distinct_predicates > m.num_triples ||
      m.num_distinct_objects > m.num_triples) {
    return Corrupt("distinct counts exceed the triple count");
  }

  // Permutations: strictly sorted (the table is deduplicated) with every
  // position a live term id, each fingerprinted into *sum (TripleMix).
  auto check_perm = [&](SectionId id, auto less, const char* name,
                        uint64_t* sum) -> Status {
    if (!SizeIs(m.num_triples, sizeof(Triple), bytes(id).size())) {
      return Corrupt(std::string(name) + " permutation size mismatch");
    }
    std::span<const Triple> rows = img.Array<Triple>(id);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Triple& t = rows[i];
      if (t.s == 0 || t.p == 0 || t.o == 0 || t.s > m.num_terms ||
          t.p > m.num_terms || t.o > m.num_terms) {
        return Corrupt(std::string(name) + " row with out-of-range term id");
      }
      if (i > 0 && !less(rows[i - 1], t)) {
        return Corrupt(std::string(name) + " permutation not strictly sorted");
      }
      *sum += TripleMix(t);
    }
    return Status::OK();
  };
  uint64_t spo_sum = 0, pos_sum = 0, osp_sum = 0;
  RDFSUM_RETURN_IF_ERROR(check_perm(
      SectionId::kSpo, [](const Triple& a, const Triple& b) { return a < b; },
      "SPO", &spo_sum));
  RDFSUM_RETURN_IF_ERROR(check_perm(
      SectionId::kPos,
      [](const Triple& a, const Triple& b) {
        if (a.p != b.p) return a.p < b.p;
        if (a.o != b.o) return a.o < b.o;
        return a.s < b.s;
      },
      "POS", &pos_sum));
  RDFSUM_RETURN_IF_ERROR(check_perm(
      SectionId::kOsp,
      [](const Triple& a, const Triple& b) {
        if (a.o != b.o) return a.o < b.o;
        if (a.s != b.s) return a.s < b.s;
        return a.p < b.p;
      },
      "OSP", &osp_sum));
  // Sorted and in range is not enough: a pattern served from POS must
  // answer from the same triples as one served from SPO.
  if (pos_sum != spo_sum || osp_sum != spo_sum) {
    return Corrupt("permutations do not hold the same triples");
  }

  if (!SizeIs(m.num_predicates, sizeof(ImagePredStat),
              bytes(SectionId::kPredStats).size())) {
    return Corrupt("predicate-stats section size mismatch");
  }
  std::span<const ImagePredStat> preds =
      img.Array<ImagePredStat>(SectionId::kPredStats);
  for (size_t i = 0; i < preds.size(); ++i) {
    if (preds[i].p == 0 || preds[i].p > m.num_terms) {
      return Corrupt("predicate stats for out-of-range term id");
    }
    if (i > 0 && preds[i].p <= preds[i - 1].p) {
      return Corrupt("predicate stats not strictly sorted");
    }
  }

  // Component triples: bounds only (order is payload, not structure), each
  // row in the component Graph::Add routes it to (View() summarizes the
  // components as stored), and together they are the whole graph: the
  // permutations' triples.
  const Vocabulary vocab = Vocabulary::InView(img.dictionary_view());
  uint64_t component_sum = 0;
  auto check_triples = [&](SectionId id, uint64_t count, const char* name,
                           auto routed_here) -> Status {
    if (!SizeIs(count, sizeof(Triple), bytes(id).size())) {
      return Corrupt(std::string(name) + " section size mismatch");
    }
    for (const Triple& t : img.Array<Triple>(id)) {
      if (t.s == 0 || t.p == 0 || t.o == 0 || t.s > m.num_terms ||
          t.p > m.num_terms || t.o > m.num_terms) {
        return Corrupt(std::string(name) + " row with out-of-range term id");
      }
      if (!routed_here(t.p)) {
        return Corrupt(std::string(name) +
                       " row that Graph::Add routes to another component");
      }
      component_sum += TripleMix(t);
    }
    return Status::OK();
  };
  RDFSUM_RETURN_IF_ERROR(
      check_triples(SectionId::kTypeTriples, m.num_type_triples, "type",
                    [&](TermId p) { return vocab.IsType(p); }));
  RDFSUM_RETURN_IF_ERROR(check_triples(
      SectionId::kSchemaTriples, m.num_schema_triples, "schema",
      [&](TermId p) { return vocab.IsSchemaProperty(p); }));
  RDFSUM_RETURN_IF_ERROR(check_triples(
      SectionId::kDataTriples, m.num_data_triples, "data", [&](TermId p) {
        return !vocab.IsType(p) && !vocab.IsSchemaProperty(p);
      }));
  // No overflow: each count was just bounded by its section's byte size.
  if (m.num_data_triples + m.num_type_triples + m.num_schema_triples !=
      m.num_triples) {
    return Corrupt("component counts do not sum to the triple count");
  }
  if (component_sum != spo_sum) {
    return Corrupt("components do not hold the permutations' triples");
  }
  return Status::OK();
}

}  // namespace

StatusOr<FrozenImage> FrozenImage::Attach(const char* data, size_t size) {
  if (!HostIsLittleEndian()) {
    return Status::NotSupported("frozen images require a little-endian host");
  }
  if (size < sizeof(ImageHeader)) {
    return Corrupt("file shorter than the header");
  }
  ImageHeader header;
  std::memcpy(&header, data, sizeof(header));
  if (std::memcmp(header.magic, kImageMagic, sizeof(kImageMagic)) != 0) {
    return Corrupt("bad magic (not a frozen store image)");
  }
  // The major version decides how the rest is verified (v2 checksummed
  // with another hash), so it is read before the header checksum.
  if (header.version_major != kImageVersionMajor) {
    return Status::NotSupported(
        "frozen image has major version " +
        std::to_string(header.version_major) + "; this build reads " +
        std::to_string(kImageVersionMajor) +
        " (re-freeze the graph with this build)");
  }
  if (ImageHash64(data, 40) != header.header_checksum) {
    return Corrupt("header checksum mismatch");
  }
  if (header.file_size != size) {
    return Corrupt("declared file size does not match the actual size");
  }
  if (header.section_count == 0 || header.section_count > kImageMaxSections) {
    return Corrupt("section count out of range");
  }
  const uint64_t table_bytes =
      uint64_t{header.section_count} * sizeof(SectionDesc);
  const uint64_t table_end = sizeof(ImageHeader) + table_bytes;
  if (table_end > size) return Corrupt("section table past end of file");
  if (ImageHash64(data + sizeof(ImageHeader), table_bytes) !=
      header.table_checksum) {
    return Corrupt("section table checksum mismatch");
  }

  FrozenImage img;
  img.data_ = data;
  img.size_ = size;
  img.descs_.resize(header.section_count);
  std::memcpy(img.descs_.data(), data + sizeof(ImageHeader), table_bytes);
  for (uint32_t i = 0; i <= kImageMaxSections; ++i) img.section_index_[i] = -1;

  // Canonical layout: payloads in strictly ascending id order, each starting
  // at ImageAlignUp of the previous end, all padding zero, the file ending
  // exactly at the last payload. The equalities make the layout a function
  // of the contents — there is nowhere for unchecksummed bytes to hide.
  uint64_t prev_end = table_end;
  uint32_t prev_id = 0;
  for (size_t i = 0; i < img.descs_.size(); ++i) {
    const SectionDesc& d = img.descs_[i];
    if (d.id == 0 || d.id > kImageMaxSections) {
      return Corrupt("section id out of range");
    }
    if (d.id <= prev_id) return Corrupt("section ids not strictly ascending");
    if (d.offset != ImageAlignUp(prev_end)) {
      return Corrupt("section offset breaks the canonical layout");
    }
    if (d.size > size || d.offset > size - d.size) {
      return Corrupt("section extends past end of file");
    }
    for (uint64_t b = prev_end; b < d.offset; ++b) {
      if (data[b] != 0) return Corrupt("nonzero padding between sections");
    }
    prev_id = d.id;
    prev_end = d.offset + d.size;
    img.section_index_[d.id] = static_cast<int>(i);
  }
  if (prev_end != size) return Corrupt("trailing bytes after last section");

  for (uint32_t id = 1;
       id <= static_cast<uint32_t>(SectionId::kDataTriples); ++id) {
    if (img.section_index_[id] < 0) {
      return Corrupt("required section " + std::to_string(id) + " missing");
    }
  }

  for (const SectionDesc& d : img.descs_) {
    if (ImageHash64(data + d.offset, d.size) != d.checksum) {
      return Corrupt("checksum mismatch in section " + std::to_string(d.id));
    }
  }

  std::span<const char> meta_bytes = img.SectionBytes(SectionId::kMeta);
  if (meta_bytes.size() != sizeof(ImageMeta)) {
    return Corrupt("meta section size mismatch");
  }
  std::memcpy(&img.meta_, meta_bytes.data(), sizeof(ImageMeta));

  RDFSUM_RETURN_IF_ERROR(ValidateStructure(img));
  return img;
}

DictionaryView FrozenImage::dictionary_view() const {
  DictionaryView v;
  v.num_terms = meta_.num_terms;
  v.mint_counter = meta_.mint_counter;
  v.term_offsets = Array<uint64_t>(SectionId::kTermOffsets);
  v.arena = SectionBytes(SectionId::kTermArena);
  v.slots = Array<DictionaryView::Slot>(SectionId::kDictSlots);
  return v;
}

}  // namespace rdfsum
