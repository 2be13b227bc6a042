#include "query/executor.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/parallel_for.h"

namespace rdfsum::query {

namespace {

/// Partition cap for parallel hash builds: every partition pass re-scans
/// the whole build range, so more passes than this cost more than they save.
constexpr uint32_t kMaxBuildPartitions = 8;

/// One join step's compile-time decisions, made once and shared (immutably,
/// once built) by every pipeline compiled from them.
struct StepSpec {
  CompiledPattern pat;
  std::string label;
  std::shared_ptr<SharedHashJoinBuild> build;  // null: nested-loop join
};

/// Everything a pipeline needs, owned so morsel pipelines can outlive the
/// plan.
struct PipelineSpec {
  CompiledPattern first;  // the driving scan
  std::string first_label;
  size_t num_vars = 0;
  std::vector<StepSpec> steps;  // plan steps 2..n
};

/// The join pipeline over [begin, end) of the driving scan: scan, then per
/// step a hash probe or an index nested-loop join. Records each step's
/// operator into *step_cursors when given (the sequential tree, for
/// Explain).
std::unique_ptr<Cursor> CompilePipeline(const store::TripleTable& table,
                                        const PipelineSpec& p,
                                        util::ExecContext* exec, size_t begin,
                                        size_t end,
                                        std::vector<Cursor*>* step_cursors) {
  std::unique_ptr<Cursor> cur = MakeIndexScanCursor(
      table, p.first, p.num_vars, p.first_label, exec, begin, end);
  if (step_cursors != nullptr) step_cursors->push_back(cur.get());
  for (const StepSpec& s : p.steps) {
    if (s.build != nullptr) {
      cur = MakeSharedHashJoinProbeCursor(std::move(cur), table, s.build,
                                          s.label, exec);
    } else {
      cur = MakeIndexNestedLoopJoinCursor(std::move(cur), table, s.pat,
                                          s.label, exec);
    }
    if (step_cursors != nullptr) step_cursors->push_back(cur.get());
  }
  return cur;
}

/// Morsel workers for this query, or 1 for the sequential tree: fan-out
/// must be requested, allowed on this host, the driving scan must clear the
/// gate, and at least two workers must resolve. Sets *driving to the exact
/// driving-scan size when it fans out.
uint32_t ResolveFanOut(const store::TripleTable& table,
                       const CompiledPattern& first,
                       const ExecutorOptions& options, uint32_t hw,
                       uint64_t* driving) {
  if (options.parallelism == 1) return 1;
  if (options.worker_mode == ParallelWorkerMode::kAuto && hw <= 1) return 1;
  // The gate reads the *exact* match count (one index-range length),
  // not an estimate: small probes must reliably stay sequential.
  *driving = table.Count(ConstOnly(first));
  const uint64_t gate = options.min_parallel_rows != 0
                            ? options.min_parallel_rows
                            : kParallelMinScanRows;
  if (*driving < gate) return 1;
  const uint64_t morsel_rows =
      options.morsel_rows != 0 ? options.morsel_rows : kMorselRows;
  return util::ResolveThreadCount(options.parallelism,
                                  (*driving + morsel_rows - 1) / morsel_rows);
}

}  // namespace

CursorTree CompileEmbeddingTree(const store::TripleTable& table,
                                const QueryPlan& plan,
                                const ExecutorOptions& options) {
  CursorTree tree;
  const CompiledBgp& c = plan.compiled;
  const size_t num_vars = c.var_names.size();
  if (c.impossible) {
    tree.root = MakeEmptyCursor(num_vars);
    tree.embeddings = tree.root.get();
    return tree;
  }
  if (plan.steps.empty()) {
    tree.root = MakeSingletonCursor(num_vars);
    tree.embeddings = tree.root.get();
    return tree;
  }

  auto p = std::make_shared<PipelineSpec>();
  p->first = c.patterns[plan.steps[0].pattern];
  p->first_label = plan.steps[0].pattern_text;
  p->num_vars = num_vars;
  const uint32_t hw =
      options.parallelism == 1 ? 1 : util::AvailableCpuCount();
  uint64_t driving = 0;
  const uint32_t threads =
      ResolveFanOut(table, p->first, options, hw, &driving);
  // Sequential trees build one partition; parallel ones one per worker the
  // machine can actually run at once.
  const uint32_t partitions = std::min({threads, hw, kMaxBuildPartitions});

  std::vector<bool> bound(num_vars, false);
  for (const CompiledSlot* sl : {&p->first.s, &p->first.p, &p->first.o}) {
    if (sl->is_var) bound[sl->var] = true;
  }
  for (size_t i = 1; i < plan.steps.size(); ++i) {
    const PlanStep& step = plan.steps[i];
    const CompiledPattern& pat = c.patterns[step.pattern];
    // Join variables: `pat`'s variables an earlier step already bound,
    // deduplicated in slot order.
    std::vector<uint32_t> key_vars;
    for (const CompiledSlot* sl : {&pat.s, &pat.p, &pat.o}) {
      if (sl->is_var && bound[sl->var] &&
          std::find(key_vars.begin(), key_vars.end(), sl->var) ==
              key_vars.end()) {
        key_vars.push_back(sl->var);
      }
    }
    bool hash = !key_vars.empty() &&
                (options.hash_join == HashJoinMode::kAlways ||
                 (options.hash_join == HashJoinMode::kFromPlan &&
                  step.use_hash_join));
    // Compile-time degrade: the plan records the exact build-side size, so
    // a hash join that cannot fit the memory budget is compiled as a
    // nested-loop join up front rather than discovering it mid-build.
    if (hash && options.exec != nullptr &&
        options.exec->WouldExceedMemory(static_cast<uint64_t>(
            step.estimated_build_rows * kHashJoinBuildBytesPerRow))) {
      hash = false;
    }
    StepSpec s{pat, step.pattern_text, nullptr};
    if (hash) {
      s.build = MakeSharedHashJoinBuild(table, pat, std::move(key_vars),
                                        options.exec, partitions);
    }
    p->steps.push_back(std::move(s));
    for (const CompiledSlot* sl : {&pat.s, &pat.p, &pat.o}) {
      if (sl->is_var) bound[sl->var] = true;
    }
  }

  if (threads < 2) {
    tree.root = CompilePipeline(table, *p, options.exec, 0, SIZE_MAX,
                                &tree.step_cursors);
    tree.embeddings = tree.root.get();
    return tree;
  }
  ParallelGatherSpec spec;
  for (auto it = p->steps.rbegin(); it != p->steps.rend(); ++it) {
    if (it->build != nullptr) spec.builds.push_back(it->build);
  }
  spec.total_rows = driving;
  spec.morsel_rows = options.morsel_rows;  // 0 resolves inside the gather
  spec.width = num_vars;
  spec.num_threads = threads;
  spec.label = p->first_label;
  spec.exec = options.exec;
  spec.pipeline = [&table, p, exec = options.exec](size_t begin, size_t end) {
    return CompilePipeline(table, *p, exec, begin, end, nullptr);
  };
  tree.root = MakeParallelGatherCursor(std::move(spec));
  tree.embeddings = tree.root.get();
  return tree;  // step_cursors stay empty; see the header note
}

CursorTree CompileQueryTree(const store::TripleTable& table,
                            const QueryPlan& plan,
                            const std::vector<uint32_t>& head,
                            const ExecutorOptions& options) {
  CursorTree tree = CompileEmbeddingTree(table, plan, options);
  std::string head_label;
  for (uint32_t v : head) {
    if (!head_label.empty()) head_label += ' ';
    head_label += '?';
    head_label += plan.compiled.var_names[v];
  }
  std::unique_ptr<Cursor> cur =
      MakeProjectCursor(std::move(tree.root), head, std::move(head_label));
  cur = MakeDistinctCursor(std::move(cur));
  tree.distinct = cur.get();
  if (options.limit != SIZE_MAX || options.offset != 0) {
    cur = MakeLimitOffsetCursor(std::move(cur), options.limit,
                                options.offset);
  }
  // The governor sits above LimitOffset so the row budget meters answers
  // actually delivered, not rows consumed by OFFSET.
  if (options.exec != nullptr) {
    cur = MakeGovernedCursor(std::move(cur), options.exec);
  }
  tree.root = std::move(cur);
  return tree;
}

}  // namespace rdfsum::query
