#include "query/cursor.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>
#include <utility>

#include "util/fault_injection.h"

namespace rdfsum::query {

store::TriplePattern ConstOnly(const CompiledPattern& pat) {
  store::TriplePattern q;
  if (!pat.s.is_var) q.s = pat.s.constant;
  if (!pat.p.is_var) q.p = pat.p.constant;
  if (!pat.o.is_var) q.o = pat.o.constant;
  return q;
}

namespace {

constexpr TermId kUnbound = kInvalidTermId;

/// Per-cursor governance poll state. Expired() ticks once per candidate
/// triple and, every ExecContext::kCheckInterval ticks, refreshes *status
/// from the context; it returns true when the cursor must stop. A null
/// context never expires and costs one pointer test per candidate.
struct ExecPoll {
  util::ExecContext* ctx = nullptr;
  uint32_t ticks = 0;

  bool Expired(Status* status) {
    if (ctx == nullptr) return false;
    if ((++ticks & (util::ExecContext::kCheckInterval - 1)) != 0) return false;
    Status st = ctx->Check();
    if (st.ok()) return false;
    *status = std::move(st);
    return true;
  }
};

/// Binds `pat`'s variable slots from triple `t` into *row. Returns false on
/// a repeated-variable mismatch (?x p ?x with differing values); the row is
/// left partially written, so callers must re-copy their base row per
/// candidate triple. Positions the scan already pinned (constants, bound
/// variables instantiated into the pattern) bind as no-op equality checks.
bool BindTriple(const CompiledPattern& pat, const Triple& t, IdRow* row) {
  auto bind = [&](const CompiledSlot& s, TermId value) {
    if (!s.is_var) return true;
    TermId& slot = (*row)[s.var];
    if (slot == kUnbound) {
      slot = value;
      return true;
    }
    return slot == value;
  };
  return bind(pat.s, t.s) && bind(pat.p, t.p) && bind(pat.o, t.o);
}

/// The store pattern for `pat` under the bindings of `row`: constants plus
/// bound variables pin positions, unbound variables stay wildcards.
store::TriplePattern Instantiate(const CompiledPattern& pat,
                                 const IdRow& row) {
  store::TriplePattern q;
  auto fill = [&](const CompiledSlot& s) -> std::optional<TermId> {
    if (!s.is_var) return s.constant;
    TermId b = row[s.var];
    if (b != kUnbound) return b;
    return std::nullopt;
  };
  q.s = fill(pat.s);
  q.p = fill(pat.p);
  q.o = fill(pat.o);
  return q;
}

class EmptyCursor final : public Cursor {
 public:
  explicit EmptyCursor(size_t width) : width_(width) {}
  bool Next(IdRow*) override { return false; }
  size_t width() const override { return width_; }
  std::string Describe() const override { return "EmptyResult"; }

 private:
  size_t width_;
};

class SingletonCursor final : public Cursor {
 public:
  explicit SingletonCursor(size_t width) : width_(width) {}
  bool Next(IdRow* row) override {
    if (done_) return false;
    done_ = true;
    row->assign(width_, kUnbound);
    ++rows_produced_;
    return true;
  }
  size_t width() const override { return width_; }
  std::string Describe() const override { return "SingletonRow"; }

 private:
  size_t width_;
  bool done_ = false;
};

class IndexScanCursor final : public Cursor {
 public:
  IndexScanCursor(const store::TripleTable& table, const CompiledPattern& pat,
                  size_t num_vars, std::string label, util::ExecContext* exec)
      : pat_(pat),
        width_(num_vars),
        label_(std::move(label)),
        index_(store::TripleTable::ChooseIndex(ConstOnly(pat))),
        scan_(table.MatchSpan(ConstOnly(pat))) {
    poll_.ctx = exec;
  }

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    while (next_ < scan_.size()) {
      const Triple& t = scan_[next_++];
      if (poll_.Expired(&status_)) return false;
      row->assign(width_, kUnbound);
      if (BindTriple(pat_, t, row)) {
        ++rows_produced_;
        return true;
      }
    }
    return false;
  }
  size_t width() const override { return width_; }
  std::string Describe() const override {
    return "IndexScan[" + label_ + " @" + store::IndexKindName(index_) + "]";
  }

 private:
  CompiledPattern pat_;
  size_t width_;
  std::string label_;
  store::IndexKind index_;
  std::span<const Triple> scan_;  // the pattern's match range
  size_t next_ = 0;
  ExecPoll poll_;
};

/// Also the base of the hash-join probe (below), whose degraded path is
/// this loop: per input row, one index range over the instantiated pattern.
class IndexNestedLoopJoinCursor : public Cursor {
 public:
  IndexNestedLoopJoinCursor(std::unique_ptr<Cursor> input,
                            const store::TripleTable& table,
                            const CompiledPattern& pat, std::string label,
                            util::ExecContext* exec)
      : input_(std::move(input)),
        table_(table),
        pat_(pat),
        label_(std::move(label)) {
    poll_.ctx = exec;
  }

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    return NextNestedLoop(row);
  }
  size_t width() const override { return input_->width(); }
  std::string Describe() const override {
    return "IndexNestedLoopJoin[" + label_ + "]";
  }
  void CollectOperators(std::vector<OperatorStats>* out,
                        int depth) const override {
    out->push_back({depth, Describe(), rows_produced()});
    input_->CollectOperators(out, depth + 1);
  }

 protected:
  bool NextNestedLoop(IdRow* row) {
    for (;;) {
      while (next_ < scan_.size()) {
        const Triple& t = scan_[next_++];
        if (poll_.Expired(&status_)) return false;
        *row = current_;
        if (BindTriple(pat_, t, row)) {
          ++rows_produced_;
          return true;
        }
      }
      if (!input_->Next(&current_)) {
        status_ = input_->status();
        return false;
      }
      scan_ = table_.MatchSpan(Instantiate(pat_, current_));
      next_ = 0;
    }
  }

  std::unique_ptr<Cursor> input_;
  const store::TripleTable& table_;
  CompiledPattern pat_;
  std::string label_;
  IdRow current_;  // the input row being extended
  ExecPoll poll_;

 private:
  std::span<const Triple> scan_;  // the current input row's match range
  size_t next_ = 0;
};

class ProjectCursor final : public Cursor {
 public:
  ProjectCursor(std::unique_ptr<Cursor> input, std::vector<uint32_t> head,
                std::string label)
      : input_(std::move(input)),
        head_(std::move(head)),
        label_(std::move(label)) {}

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    if (!input_->Next(&full_)) {
      status_ = input_->status();
      return false;
    }
    row->resize(head_.size());
    for (size_t i = 0; i < head_.size(); ++i) (*row)[i] = full_[head_[i]];
    ++rows_produced_;
    return true;
  }
  size_t width() const override { return head_.size(); }
  std::string Describe() const override { return "Project[" + label_ + "]"; }
  void CollectOperators(std::vector<OperatorStats>* out,
                        int depth) const override {
    out->push_back({depth, Describe(), rows_produced()});
    input_->CollectOperators(out, depth + 1);
  }

 private:
  std::unique_ptr<Cursor> input_;
  std::vector<uint32_t> head_;
  std::string label_;
  IdRow full_;
};

class DistinctCursor final : public Cursor {
 public:
  explicit DistinctCursor(std::unique_ptr<Cursor> input)
      : input_(std::move(input)), seen_(input_->width()) {}

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    while (input_->Next(row)) {
      if (seen_.Insert(row->data())) {
        ++rows_produced_;
        return true;
      }
    }
    status_ = input_->status();
    return false;
  }
  size_t width() const override { return input_->width(); }
  std::string Describe() const override { return "Distinct"; }
  void CollectOperators(std::vector<OperatorStats>* out,
                        int depth) const override {
    out->push_back({depth, Describe(), rows_produced()});
    input_->CollectOperators(out, depth + 1);
  }

 private:
  std::unique_ptr<Cursor> input_;
  util::RowSet seen_;
};

class LimitOffsetCursor final : public Cursor {
 public:
  LimitOffsetCursor(std::unique_ptr<Cursor> input, size_t limit,
                    size_t offset)
      : input_(std::move(input)), limit_(limit), offset_(offset) {}

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    if (emitted_ >= limit_) return false;  // stop pulling: early exit
    while (skipped_ < offset_) {
      if (!input_->Next(row)) {
        status_ = input_->status();
        return false;
      }
      ++skipped_;
    }
    if (!input_->Next(row)) {
      status_ = input_->status();
      return false;
    }
    ++emitted_;
    ++rows_produced_;
    return true;
  }
  size_t width() const override { return input_->width(); }
  std::string Describe() const override {
    std::string out = "LimitOffset[";
    out += limit_ == SIZE_MAX ? "limit=∞" : "limit=" + std::to_string(limit_);
    out += " offset=" + std::to_string(offset_) + "]";
    return out;
  }
  void CollectOperators(std::vector<OperatorStats>* out,
                        int depth) const override {
    out->push_back({depth, Describe(), rows_produced()});
    input_->CollectOperators(out, depth + 1);
  }

 private:
  std::unique_ptr<Cursor> input_;
  size_t limit_, offset_;
  size_t emitted_ = 0, skipped_ = 0;
};

/// Root-level governor: charges every produced row against the ExecContext
/// row budget and polls the deadline/cancellation token between rows — the
/// backstop that governs even trees whose inner operators carry no context.
/// Transparent to Explain (forwards CollectOperators without adding itself),
/// so governed and ungoverned plans render identically.
class GovernedCursor final : public Cursor {
 public:
  GovernedCursor(std::unique_ptr<Cursor> input, util::ExecContext* exec)
      : input_(std::move(input)), exec_(exec) {
    poll_.ctx = exec;
  }

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    if (poll_.Expired(&status_)) return false;
    if (!input_->Next(row)) {
      status_ = input_->status();
      return false;
    }
    status_ = exec_->ChargeRows();
    if (!status_.ok()) return false;  // the over-budget row is withheld
    ++rows_produced_;
    return true;
  }
  size_t width() const override { return input_->width(); }
  std::string Describe() const override { return "Governed"; }
  void CollectOperators(std::vector<OperatorStats>* out,
                        int depth) const override {
    input_->CollectOperators(out, depth);
  }

 private:
  std::unique_ptr<Cursor> input_;
  util::ExecContext* exec_;
  ExecPoll poll_;
};

/// A hash join's build side: a key directory plus one chain per key over
/// the triples matching the pattern's constants. Inserting in index order
/// at the chain tails makes every chain replay its matches in index order.
struct HashJoinTable {
  static constexpr uint32_t kEnd = UINT32_MAX;

  explicit HashJoinTable(size_t key_width) : keys(key_width) {}

  /// First chain link of `key`, or kEnd when no triple has that key.
  uint32_t Head(const TermId* key) const {
    const uint32_t ord = keys.Find(key);
    return ord == util::RowSet::kNotFound ? kEnd : heads[ord];
  }

  /// Appends `t` to the tail of `key`'s chain.
  void Insert(const TermId* key, const Triple& t) {
    auto [ord, inserted] = keys.InsertOrFind(key);
    if (inserted) {
      heads.push_back(kEnd);
      tails.push_back(kEnd);
    }
    const uint32_t idx = static_cast<uint32_t>(triples.size());
    triples.push_back(t);
    next.push_back(kEnd);
    if (heads[ord] == kEnd) {
      heads[ord] = idx;
    } else {
      next[tails[ord]] = idx;
    }
    tails[ord] = idx;
  }

  util::RowSet keys;                   // distinct key directory -> ordinal
  std::vector<uint32_t> heads, tails;  // per key ordinal: chain bounds
  std::vector<Triple> triples;
  std::vector<uint32_t> next;  // chain links, parallel to triples
};

/// Hash join: the first Next builds the table, then each input row looks up
/// its key once and walks that key's chain. A build refused memory serves
/// every probe through the inherited nested-loop loop instead — the stream
/// IndexNestedLoopJoin emits, byte-identical: slower, never wrong, never
/// over budget.
class HashJoinCursor final : public IndexNestedLoopJoinCursor {
 public:
  HashJoinCursor(std::unique_ptr<Cursor> input,
                 const store::TripleTable& table, const CompiledPattern& pat,
                 std::vector<uint32_t> key_vars, std::string label,
                 util::ExecContext* exec)
      : IndexNestedLoopJoinCursor(std::move(input), table, pat,
                                  std::move(label), exec),
        key_vars_(std::move(key_vars)),
        key_buf_(key_vars_.size()),
        hash_(key_vars_.size()) {
    assert(!key_vars_.empty() && "hash join needs at least one join variable");
    key_slot_.reserve(key_vars_.size());
    for (uint32_t v : key_vars_) {
      int slot = -1;
      const CompiledSlot* slots[3] = {&pat_.s, &pat_.p, &pat_.o};
      for (int i = 0; i < 3; ++i) {
        if (slots[i]->is_var && slots[i]->var == v) {
          slot = i;
          break;
        }
      }
      assert(slot >= 0 && "key variable does not occur in the pattern");
      key_slot_.push_back(slot);
    }
  }

  ~HashJoinCursor() override { Refund(); }

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    if (mode_ != Mode::kHash) {
      if (mode_ == Mode::kUnbuilt) {
        status_ = Build();
        if (!status_.ok()) return false;
      }
      if (mode_ == Mode::kNestedLoop) return NextNestedLoop(row);
    }
    for (;;) {
      while (idx_ != HashJoinTable::kEnd) {
        if (poll_.Expired(&status_)) return false;
        const Triple& t = hash_.triples[idx_];
        idx_ = hash_.next[idx_];
        *row = current_;
        if (BindTriple(pat_, t, row)) {
          ++rows_produced_;
          return true;
        }
      }
      if (!input_->Next(&current_)) {
        status_ = input_->status();
        return false;
      }
      for (size_t i = 0; i < key_vars_.size(); ++i) {
        key_buf_[i] = current_[key_vars_[i]];
      }
      idx_ = hash_.Head(key_buf_.data());
    }
  }
  std::string Describe() const override {
    return mode_ == Mode::kNestedLoop ? "HashJoin[" + label_ + " degraded=nlj]"
                                      : "HashJoin[" + label_ + "]";
  }

 private:
  enum class Mode : uint8_t { kUnbuilt, kHash, kNestedLoop };

  /// Builds the table over the pattern's constant-only match range, in
  /// index order, charging kHashJoinBuildBytesPerRow per triple. OK after a
  /// build (kHash) *or* a memory refusal (kNestedLoop, every byte refunded);
  /// non-OK only for governance failures and injected faults, which fail
  /// the query.
  Status Build() {
    Status fp = RDFSUM_FAILPOINT_STATUS("query:hashjoin-build");
    if (fp.IsResourceExhausted()) return Degrade();
    if (!fp.ok()) return fp;
    util::ExecContext* exec = poll_.ctx;
    const std::span<const Triple> build = table_.MatchSpan(ConstOnly(pat_));
    const uint64_t n = build.size();
    for (uint64_t base = 0; base < n; base += util::kCancelCheckChunk) {
      if (exec != nullptr) {
        Status st = exec->Check();
        if (!st.ok()) {
          Drop();
          return st;
        }
      }
      const uint64_t chunk_end = std::min(n, base + util::kCancelCheckChunk);
      for (uint64_t i = base; i < chunk_end; ++i) {
        const Triple& t = build[i];
        if (exec != nullptr) {
          if (!exec->TryChargeMemory(kHashJoinBuildBytesPerRow)) {
            return Degrade();
          }
          charged_ += kHashJoinBuildBytesPerRow;
        }
        const TermId values[3] = {t.s, t.p, t.o};
        for (size_t k = 0; k < key_slot_.size(); ++k) {
          key_buf_[k] = values[key_slot_[k]];
        }
        hash_.Insert(key_buf_.data(), t);
      }
    }
    mode_ = Mode::kHash;
    return Status::OK();
  }

  /// Abandons the (possibly partial) table; probes run nested-loop.
  Status Degrade() {
    Drop();
    mode_ = Mode::kNestedLoop;
    return Status::OK();
  }

  /// Refunds every byte charged and frees the table.
  void Drop() {
    Refund();
    hash_ = HashJoinTable(key_vars_.size());
  }

  void Refund() {
    if (charged_ > 0) poll_.ctx->ReleaseMemory(charged_);
    charged_ = 0;
  }

  std::vector<uint32_t> key_vars_;
  std::vector<int> key_slot_;  // position (0=s,1=p,2=o) per key var
  IdRow key_buf_;
  HashJoinTable hash_;
  uint64_t charged_ = 0;  // outstanding ExecContext memory charge
  Mode mode_ = Mode::kUnbuilt;
  uint32_t idx_ = HashJoinTable::kEnd;  // next link of the current chain
};

}  // namespace

std::unique_ptr<Cursor> MakeEmptyCursor(size_t width) {
  return std::make_unique<EmptyCursor>(width);
}

std::unique_ptr<Cursor> MakeSingletonCursor(size_t width) {
  return std::make_unique<SingletonCursor>(width);
}

std::unique_ptr<Cursor> MakeIndexScanCursor(const store::TripleTable& table,
                                            const CompiledPattern& pat,
                                            size_t num_vars, std::string label,
                                            util::ExecContext* exec) {
  return std::make_unique<IndexScanCursor>(table, pat, num_vars,
                                           std::move(label), exec);
}

std::unique_ptr<Cursor> MakeIndexNestedLoopJoinCursor(
    std::unique_ptr<Cursor> input, const store::TripleTable& table,
    const CompiledPattern& pat, std::string label, util::ExecContext* exec) {
  return std::make_unique<IndexNestedLoopJoinCursor>(
      std::move(input), table, pat, std::move(label), exec);
}

std::unique_ptr<Cursor> MakeHashJoinCursor(std::unique_ptr<Cursor> input,
                                           const store::TripleTable& table,
                                           const CompiledPattern& pat,
                                           std::vector<uint32_t> key_vars,
                                           std::string label,
                                           util::ExecContext* exec) {
  return std::make_unique<HashJoinCursor>(std::move(input), table, pat,
                                          std::move(key_vars),
                                          std::move(label), exec);
}

std::unique_ptr<Cursor> MakeGovernedCursor(std::unique_ptr<Cursor> input,
                                           util::ExecContext* exec) {
  assert(exec != nullptr && "governed cursor needs a context");
  return std::make_unique<GovernedCursor>(std::move(input), exec);
}

std::unique_ptr<Cursor> MakeProjectCursor(std::unique_ptr<Cursor> input,
                                          std::vector<uint32_t> head,
                                          std::string label) {
  return std::make_unique<ProjectCursor>(std::move(input), std::move(head),
                                         std::move(label));
}

std::unique_ptr<Cursor> MakeDistinctCursor(std::unique_ptr<Cursor> input) {
  return std::make_unique<DistinctCursor>(std::move(input));
}

std::unique_ptr<Cursor> MakeLimitOffsetCursor(std::unique_ptr<Cursor> input,
                                              size_t limit, size_t offset) {
  return std::make_unique<LimitOffsetCursor>(std::move(input), limit, offset);
}

}  // namespace rdfsum::query
