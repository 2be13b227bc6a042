#include "query/executor.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace rdfsum::query {

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

  const CompiledPattern& first = c.patterns[plan.steps[0].pattern];
  std::unique_ptr<Cursor> cur = MakeIndexScanCursor(
      table, first, num_vars, plan.steps[0].pattern_text, options.exec);
  tree.step_cursors.push_back(cur.get());
  std::vector<bool> bound(num_vars, false);
  for (const CompiledSlot* sl : {&first.s, &first.p, &first.o}) {
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
    if (hash) {
      cur = MakeHashJoinCursor(std::move(cur), table, pat, std::move(key_vars),
                               step.pattern_text, options.exec);
    } else {
      cur = MakeIndexNestedLoopJoinCursor(std::move(cur), table, pat,
                                          step.pattern_text, options.exec);
    }
    tree.step_cursors.push_back(cur.get());
    for (const CompiledSlot* sl : {&pat.s, &pat.p, &pat.o}) {
      if (sl->is_var) bound[sl->var] = true;
    }
  }
  tree.root = std::move(cur);
  tree.embeddings = tree.root.get();
  return tree;
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
