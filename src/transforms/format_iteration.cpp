// format_iteration(X, Symmetry) — paper §IV-A.2. Removes the mixed-mode
// (row-major + column-major) accesses of a symmetric-matrix loop nest in
// three steps:
//   1. loop fission: split the triangle loop so every statement gets its
//      own copy (real-area / shadow-area);
//   2. orientation fix: a nest whose output is written along the inner
//      (triangle) variable is re-indexed by exchanging the triangle
//      variables — the triangular domain {k < w} becomes {k > w} and the
//      statement's variable roles swap (the polyhedral "loop
//      interchange" of the paper, realized as a bijective reindexing of
//      the triangular domain);
//   3. loop fusion: when the resulting nests compute the identical
//      statement over complementary domains (and the diagonal statement
//      is the w == k instance), they fuse into a single rectangular loop
//      — the standard GEMM-NN form. References to value-symmetric
//      arrays (created by GM_map(X, Symmetry)) are canonicalized before
//      comparison, which is what makes fusion succeed after GM_map and
//      fail without it (rule 3 of Adaptor_Symmetry degenerates to plain
//      fission).

#include <algorithm>

#include "deps/dependence.hpp"
#include "support/strings.hpp"
#include "transforms/transform.hpp"

namespace oa::transforms {

using ir::AffineExpr;
using ir::Bound;
using ir::Kernel;
using ir::Node;
using ir::NodePtr;

namespace {

/// Find the variable of an enclosing loop that appears in the bounds of
/// `loop` (the triangle's outer variable w). Empty when none.
std::string triangle_outer_var(const Node& loop,
                               const std::vector<Node*>& enclosing) {
  for (const Node* enc : enclosing) {
    if (loop.lb.depends_on(enc->var) || loop.ub.depends_on(enc->var)) {
      return enc->var;
    }
  }
  return {};
}

/// Canonicalize references to value-symmetric arrays so that
/// X[k][i] == X[i][k] compares equal: order the two subscripts by their
/// printed form.
void canonicalize_symmetric_refs(Node& stmt, const ir::Program& program) {
  auto canon = [&](ir::ArrayRef& r) {
    const ir::ArrayDecl* decl = program.find_global(r.array);
    if (decl == nullptr || !decl->symmetric || r.index.size() != 2) return;
    if (r.index[0].to_string() > r.index[1].to_string()) {
      std::swap(r.index[0], r.index[1]);
    }
  };
  canon(stmt.lhs);
  if (stmt.rhs) stmt.rhs->for_each_ref(canon);
}

}  // namespace

// The array argument only names the component's target in scripts: the
// transform canonicalizes every value-symmetric array's references.
Status format_iteration(ir::Program& program, const std::string& /*array*/,
                        AllocMode mode, const TransformContext& ctx) {
  if (mode != AllocMode::kSymmetry) {
    return invalid_argument("format_iteration supports the Symmetry mode");
  }
  Kernel& kernel = program.main_kernel();
  if (!kernel.tiling.empty()) {
    return failed_precondition(
        "format_iteration must run before thread_grouping");
  }

  // ---- Locate the triangle loop: an inner loop with >1 statement and
  // bounds referencing an enclosing loop variable.
  std::vector<Node*> chain;
  Node* tri_loop = nullptr;
  std::vector<Node*> tri_enclosing;
  std::function<void(std::vector<NodePtr>&)> search =
      [&](std::vector<NodePtr>& body) {
        for (auto& n : body) {
          if (!n->is_loop() || tri_loop != nullptr) continue;
          chain.push_back(n.get());
          size_t stmts = 0;
          for (const auto& c : n->body) stmts += c->is_assign();
          if (stmts >= 2 &&
              !triangle_outer_var(*n, {chain.begin(), chain.end() - 1})
                   .empty()) {
            tri_loop = n.get();
            tri_enclosing.assign(chain.begin(), chain.end() - 1);
          } else {
            search(n->body);
          }
          chain.pop_back();
        }
      };
  search(kernel.body);
  if (tri_loop == nullptr) {
    return failed_precondition(
        "format_iteration: no mixed-mode triangle loop found");
  }
  const std::string w =
      triangle_outer_var(*tri_loop, tri_enclosing);
  Node* w_loop = nullptr;
  for (Node* enc : tri_enclosing) {
    if (enc->var == w) w_loop = enc;
  }
  if (w_loop == nullptr || !w_loop->ub.is_single() ||
      !(w_loop->lb == Bound(0))) {
    return failed_precondition(
        "format_iteration: unsupported triangle outer loop");
  }
  const AffineExpr big = w_loop->ub.terms()[0];  // W (e.g. M or N)

  // ---- Step 1: fission — one loop per statement.
  if (tri_loop->body.size() < 2) {
    return failed_precondition("format_iteration: nothing to fission");
  }
  {
    ir::RangeEnv ranges = ir::loop_var_ranges(kernel, ctx.nominal_sizes);
    for (const auto& [p, v] : ctx.nominal_sizes) {
      ranges[p] = ir::Interval{v, v};
    }
    for (size_t split = 1; split < tri_loop->body.size(); ++split) {
      if (!deps::fission_legal(*tri_loop, split, ranges)) {
        return illegal("format_iteration: fission not legal");
      }
    }
  }
  ir::LoopLocation loc = ir::locate_loop(kernel.body, tri_loop->label);
  if (loc.loop != tri_loop) {
    return internal_error("format_iteration lost the triangle loop");
  }
  std::vector<NodePtr> pieces;
  for (size_t s = 0; s < tri_loop->body.size(); ++s) {
    NodePtr cloned = tri_loop->clone();
    cloned->body.clear();
    cloned->body.push_back(tri_loop->body[s]->clone());
    if (s > 0) cloned->label += "_f" + std::to_string(s + 1);
    pieces.push_back(std::move(cloned));
  }
  // Replace the triangle loop with the fissioned pieces.
  std::vector<NodePtr>& parent = *loc.parent_body;
  parent.erase(parent.begin() + static_cast<long>(loc.index));
  for (size_t s = 0; s < pieces.size(); ++s) {
    parent.insert(parent.begin() + static_cast<long>(loc.index + s),
                  std::move(pieces[s]));
  }

  // ---- Step 2: re-index shadow nests (lhs written along the triangle
  // inner variable).
  const size_t first = loc.index;
  const size_t count =
      parent.size();  // parent also holds the diagonal statement(s)
  for (size_t s = first; s < count; ++s) {
    Node& n = *parent[s];
    if (!n.is_loop()) continue;
    Node& stmt = *n.body[0];
    if (!stmt.is_assign()) continue;
    bool shadow = false;
    for (const auto& e : stmt.lhs.index) {
      if (e.depends_on(n.var)) shadow = true;
    }
    if (!shadow) continue;
    // Swap variable roles w <-> k in the statement.
    const std::string k = n.var;
    const std::string tmp = "\x01swap";
    stmt.rename_uses(k, tmp);
    stmt.rename_uses(w, k);
    stmt.rename_uses(tmp, w);
    // Exchange the triangular domain.
    if (n.ub.is_single() && n.lb == Bound(0)) {
      const AffineExpr& u = n.ub.terms()[0];
      if (u == AffineExpr::sym(w)) {
        // {k < w}  ->  {k > w}.
        n.lb = Bound(AffineExpr::sym(w) + 1);
        n.ub = Bound(big);
        continue;
      }
      if (u == AffineExpr::sym(w) + 1) {
        // {k <= w}  ->  {k >= w}.
        n.lb = Bound(AffineExpr::sym(w));
        n.ub = Bound(big);
        continue;
      }
    }
    if (n.ub.is_single() && n.ub.terms()[0] == big && n.lb.is_single() &&
        n.lb.terms()[0] == AffineExpr::sym(w) + 1) {
      // {k > w}  ->  {k < w}.
      n.lb = Bound(0);
      n.ub = Bound(AffineExpr::sym(w));
      continue;
    }
    return failed_precondition(
        "format_iteration: unrecognized triangular domain");
  }

  // ---- Step 3: fusion (best effort; failure leaves the fissioned form,
  // the rule-3 degeneration of the paper).
  // Pattern: [loop k in [0, w) {S}, loop k in [w+1, W) {S'}, Sd, ...rest]
  if (count - first >= 3 && parent[first]->is_loop() &&
      parent[first + 1]->is_loop() && parent[first + 2]->is_assign()) {
    Node& a = *parent[first];
    Node& b = *parent[first + 1];
    Node& d = *parent[first + 2];
    canonicalize_symmetric_refs(*a.body[0], program);
    canonicalize_symmetric_refs(*b.body[0], program);
    Node dd(Node::Kind::kAssign);
    dd.lhs = d.lhs;
    dd.op = d.op;
    dd.rhs = d.rhs->clone();
    canonicalize_symmetric_refs(dd, program);

    const bool domains_ok =
        a.lb == Bound(0) && a.ub.is_single() &&
        a.ub.terms()[0] == AffineExpr::sym(w) && b.lb.is_single() &&
        b.lb.terms()[0] == AffineExpr::sym(w) + 1 && b.ub.is_single() &&
        b.ub.terms()[0] == big && a.var == b.var;
    if (domains_ok && a.body[0]->equals(*b.body[0])) {
      // Diagonal statement must be the k == w instance.
      NodePtr at_diag = a.body[0]->clone();
      at_diag->substitute_uses(a.var, AffineExpr::sym(w));
      if (at_diag->equals(dd)) {
        a.ub = Bound(big);  // fused domain [0, W)
        parent.erase(parent.begin() + static_cast<long>(first + 1),
                     parent.begin() + static_cast<long>(first + 3));
      }
    }
  }
  return Status::ok();
}

}  // namespace oa::transforms
