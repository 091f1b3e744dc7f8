#include "script/analyzer.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "script/natives.hpp"

namespace bento::script {

namespace {

namespace sb = sandbox;

/// True when `name` is a host module: the owner of a kModule row of kNatives.
bool is_host_module(const std::string& name) {
  return std::ranges::any_of(kNatives, [&](const NativeSig& row) {
    return row.kind == kModule && row.owner == name;
  });
}

constexpr std::uint64_t kCostCap = std::numeric_limits<std::uint64_t>::max() / 4;

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return a > kCostCap - std::min(b, kCostCap) ? kCostCap : a + b;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  return a > kCostCap / b ? kCostCap : a * b;
}

class Analyzer {
 public:
  explicit Analyzer(const Program& program) : program_(program) {}

  AnalysisResult run() {
    collect_globals(program_.statements, /*inside_def=*/false);
    TopLevel top;
    visit_block(program_.statements, nullptr, &top);
    for (const auto& def : pending_defs_) visit_function(*def);
    lint_entry_points();
    result_.min_steps = program_min_steps();
    finish_capabilities();
    return std::move(result_);
  }

 private:
  /// Ordered view of top-level execution, for use-before-definition.
  struct TopLevel {
    std::set<std::string> defined;
  };
  /// Names local to the function body being visited (params, assignments,
  /// loop variables). Null scope = top level.
  using Locals = std::set<std::string>;

  // ---- pass 1: global name collection ----

  /// Registers every name the program can ever bind at global scope:
  /// top-level assignments/loop vars (at any block nesting) and `def`s at
  /// any depth (the interpreter registers defs globally even when nested).
  void collect_globals(const std::vector<StmtPtr>& body, bool inside_def) {
    for (const auto& stmt : body) {
      const Stmt& s = *stmt;
      switch (s.kind) {
        case StmtKind::Assign:
        case StmtKind::AugAssign:
          if (!inside_def && s.target->kind == ExprKind::Name) {
            global_vars_.insert(s.target->name);
          }
          break;
        case StmtKind::For:
          if (!inside_def) global_vars_.insert(s.name);
          collect_globals(s.body, inside_def);
          break;
        case StmtKind::If:
        case StmtKind::While:
          collect_globals(s.body, inside_def);
          collect_globals(s.orelse, inside_def);
          break;
        case StmtKind::Def:
          defs_[s.def->name].push_back(s.def.get());
          collect_globals(s.def->body, /*inside_def=*/true);
          break;
        default:
          break;
      }
    }
  }

  bool is_global(const std::string& name) const {
    return global_vars_.contains(name) || defs_.contains(name);
  }
  /// A module/builtin is only treated as such if the program never rebinds
  /// the name (shadowing turns it into an ordinary dynamic value).
  bool is_module(const std::string& name, const Locals* locals) const {
    if (locals != nullptr && locals->contains(name)) return false;
    return is_host_module(name) && !is_global(name);
  }
  bool is_builtin(const std::string& name, const Locals* locals) const {
    if (locals != nullptr && locals->contains(name)) return false;
    return find_native("", name) != nullptr && !is_global(name);
  }

  // ---- diagnostics / capabilities ----

  void diag(Severity severity, int line, std::string code, std::string message) {
    result_.diagnostics.push_back(
        {severity, line, std::move(code), std::move(message)});
  }

  void record_capability(const std::string& module, const std::string& attr,
                         std::optional<sb::Syscall> syscall, int line) {
    result_.modules.insert(module);
    if (!syscall.has_value()) return;
    caps_.try_emplace(*syscall, CapabilityUse{*syscall, module + "." + attr, line});
  }

  /// A module value escaped (aliased, passed as an argument, iterated...):
  /// the program could reach any of its bindings, so claim them all.
  void record_whole_module(const std::string& module, int line) {
    result_.modules.insert(module);
    for (const NativeSig& row : kNatives) {
      if (row.owner == module) record_capability(module, "*", row.syscall, line);
    }
  }

  void finish_capabilities() {
    for (auto& [syscall, use] : caps_) result_.required.push_back(use);
  }

  // ---- pass 2: expression resolution ----

  void resolve_name(const Expr& e, const Locals* locals, TopLevel* top) {
    if (locals != nullptr && locals->contains(e.name)) return;
    if (is_module(e.name, locals)) {
      record_whole_module(e.name, e.line);
      return;
    }
    if (is_builtin(e.name, locals)) return;
    if (locals != nullptr) {
      // Function bodies run after load: any global binding satisfies.
      if (is_global(e.name)) return;
      diag(Severity::Error, e.line, "BS101", "unknown name '" + e.name + "'");
      return;
    }
    // Top level executes in order.
    if (top->defined.contains(e.name)) return;
    if (is_global(e.name)) {
      diag(Severity::Error, e.line, "BS102",
           "'" + e.name + "' used before its definition");
      return;
    }
    diag(Severity::Error, e.line, "BS101", "unknown name '" + e.name + "'");
  }

  /// BS104 when `call` passes an argument count `sig` does not admit.
  void check_arity(const Expr& call, const NativeSig& sig) {
    if (!sig.admits(call.args.size())) {
      diag(Severity::Error, call.line, "BS104", sig.arity_message(call.args.size()));
    }
  }

  /// Attr node whose base may be a host module. `call` is the enclosing
  /// Call when this attr is being invoked (for arity checking).
  void visit_attr(const Expr& attr, const Expr* call, const Locals* locals,
                  TopLevel* top) {
    if (attr.a->kind == ExprKind::Name && is_module(attr.a->name, locals)) {
      const std::string& module = attr.a->name;
      const NativeSig* row = find_native(module, attr.name);
      if (row == nullptr) {
        result_.modules.insert(module);
        diag(Severity::Error, attr.line, "BS103",
             "module '" + module + "' has no attribute '" + attr.name + "'");
        return;
      }
      record_capability(module, attr.name, row->syscall, attr.line);
      if (call != nullptr) {
        if (!row->callable) {
          diag(Severity::Error, call->line, "BS104",
               row->qualified_name() + " is not callable");
        } else {
          check_arity(*call, *row);
        }
      }
      return;
    }
    // Attribute on an arbitrary value: dicts expose any key as an
    // attribute, so nothing can be concluded statically.
    visit_expr(*attr.a, locals, top);
  }

  void visit_call(const Expr& e, const Locals* locals, TopLevel* top) {
    const Expr& callee = *e.a;
    if (callee.kind == ExprKind::Attr) {
      visit_attr(callee, &e, locals, top);
    } else if (callee.kind == ExprKind::Name) {
      if (is_builtin(callee.name, locals)) {
        check_arity(e, *find_native("", callee.name));
      } else {
        resolve_name(callee, locals, top);
        // Calling a user-defined function with a statically-known unique
        // signature: check the argument count.
        auto it = defs_.find(callee.name);
        if (it != defs_.end() && !global_vars_.contains(callee.name) &&
            (locals == nullptr || !locals->contains(callee.name))) {
          const std::size_t params = it->second.front()->params.size();
          const bool uniform = std::all_of(
              it->second.begin(), it->second.end(),
              [&](const FunctionDef* d) { return d->params.size() == params; });
          if (uniform) {
            // A user function's signature, checked like a row of its own.
            const std::string what = callee.name + "()";
            const int n = static_cast<int>(params);
            check_arity(e, NativeSig(kBuiltin, "", what, n, n));
          }
        }
      }
    } else {
      visit_expr(callee, locals, top);
    }
    for (const auto& arg : e.args) visit_expr(*arg, locals, top);
  }

  void visit_expr(const Expr& e, const Locals* locals, TopLevel* top) {
    switch (e.kind) {
      case ExprKind::Literal:
        return;
      case ExprKind::Name:
        resolve_name(e, locals, top);
        return;
      case ExprKind::ListLit:
        for (const auto& item : e.args) visit_expr(*item, locals, top);
        return;
      case ExprKind::DictLit:
        for (const auto& [k, v] : e.pairs) {
          visit_expr(*k, locals, top);
          visit_expr(*v, locals, top);
        }
        return;
      case ExprKind::Unary:
        visit_expr(*e.a, locals, top);
        return;
      case ExprKind::Binary:
        visit_expr(*e.a, locals, top);
        visit_expr(*e.b, locals, top);
        return;
      case ExprKind::Call:
        visit_call(e, locals, top);
        return;
      case ExprKind::Index:
        visit_expr(*e.a, locals, top);
        visit_expr(*e.b, locals, top);
        return;
      case ExprKind::Attr:
        visit_attr(e, nullptr, locals, top);
        return;
    }
  }

  /// Assignment target: Name targets bind, Index/Attr targets evaluate
  /// their sub-expressions.
  void visit_target(const Expr& target, const Locals* locals, TopLevel* top) {
    switch (target.kind) {
      case ExprKind::Name:
        if (locals == nullptr) top->defined.insert(target.name);
        return;
      case ExprKind::Index:
        visit_expr(*target.a, locals, top);
        visit_expr(*target.b, locals, top);
        return;
      case ExprKind::Attr:
        visit_expr(*target.a, locals, top);
        return;
      default:
        visit_expr(target, locals, top);
        return;
    }
  }

  // ---- pass 2: statement walk ----

  /// True when the loop body is guaranteed to re-test the condition
  /// forever: no break at this loop's nesting level and no return.
  bool block_escapes_loop(const std::vector<StmtPtr>& body) const {
    for (const auto& stmt : body) {
      switch (stmt->kind) {
        case StmtKind::Break:
        case StmtKind::Return:
          return true;
        case StmtKind::If:
          if (block_escapes_loop(stmt->body) || block_escapes_loop(stmt->orelse)) {
            return true;
          }
          break;
        case StmtKind::While:
        case StmtKind::For: {
          // A nested loop consumes its own breaks, but a return escapes.
          if (block_returns(stmt->body)) return true;
          break;
        }
        default:
          break;
      }
    }
    return false;
  }

  bool block_returns(const std::vector<StmtPtr>& body) const {
    for (const auto& stmt : body) {
      if (stmt->kind == StmtKind::Return) return true;
      if (stmt->kind == StmtKind::Def) continue;  // nested def: separate body
      if (block_returns(stmt->body) || block_returns(stmt->orelse)) return true;
    }
    return false;
  }

  void visit_stmt(const Stmt& s, const Locals* locals, TopLevel* top) {
    switch (s.kind) {
      case StmtKind::ExprStmt:
        visit_expr(*s.expr, locals, top);
        return;
      case StmtKind::Assign:
        visit_expr(*s.expr, locals, top);
        visit_target(*s.target, locals, top);
        return;
      case StmtKind::AugAssign:
        // Reads the target, then writes it back.
        if (s.target->kind == ExprKind::Name) {
          resolve_name(*s.target, locals, top);
        } else {
          visit_target(*s.target, locals, top);
        }
        visit_expr(*s.expr, locals, top);
        if (s.target->kind == ExprKind::Name && locals == nullptr) {
          top->defined.insert(s.target->name);
        }
        return;
      case StmtKind::If:
        visit_expr(*s.expr, locals, top);
        visit_block(s.body, locals, top);
        visit_block(s.orelse, locals, top);
        return;
      case StmtKind::While:
        visit_expr(*s.expr, locals, top);
        if (s.expr->kind == ExprKind::Literal && s.expr->literal.truthy() &&
            !block_escapes_loop(s.body)) {
          diag(Severity::Warning, s.line, "BS111",
               "'while' condition is constantly true and the body never "
               "breaks or returns (unbounded loop)");
        }
        visit_block(s.body, locals, top);
        return;
      case StmtKind::For:
        visit_expr(*s.target, locals, top);  // iterable
        if (locals == nullptr) top->defined.insert(s.name);
        visit_block(s.body, locals, top);
        return;
      case StmtKind::Def:
        if (locals == nullptr) top->defined.insert(s.def->name);
        pending_defs_.push_back(s.def.get());
        return;
      case StmtKind::Return:
        if (s.expr != nullptr) visit_expr(*s.expr, locals, top);
        return;
      case StmtKind::Break:
      case StmtKind::Continue:
      case StmtKind::Pass:
        return;
    }
  }

  void visit_block(const std::vector<StmtPtr>& body, const Locals* locals,
                   TopLevel* top) {
    bool dead = false;
    for (const auto& stmt : body) {
      if (dead) {
        diag(Severity::Warning, stmt->line, "BS110",
             "statement is unreachable (follows return/break/continue)");
        dead = false;  // report once per dead region
      }
      visit_stmt(*stmt, locals, top);
      if (stmt->kind == StmtKind::Return || stmt->kind == StmtKind::Break ||
          stmt->kind == StmtKind::Continue) {
        dead = true;
      }
    }
  }

  /// Collects names the interpreter would bind in this function's frame.
  void collect_locals(const std::vector<StmtPtr>& body, Locals& locals) const {
    for (const auto& stmt : body) {
      const Stmt& s = *stmt;
      if (s.kind == StmtKind::Def) continue;  // nested def: own frame
      if ((s.kind == StmtKind::Assign || s.kind == StmtKind::AugAssign) &&
          s.target->kind == ExprKind::Name) {
        locals.insert(s.target->name);
      }
      if (s.kind == StmtKind::For) locals.insert(s.name);
      collect_locals(s.body, locals);
      collect_locals(s.orelse, locals);
    }
  }

  void visit_function(const FunctionDef& def) {
    Locals locals(def.params.begin(), def.params.end());
    collect_locals(def.body, locals);
    visit_block(def.body, &locals, nullptr);
  }

  void lint_entry_points() {
    static const char* kEntryPoints[] = {"on_install", "on_message", "on_shutdown"};
    for (const char* name : kEntryPoints) {
      if (is_global(name)) return;
    }
    diag(Severity::Warning, 0, "BS112",
         "no entry point defined (expected on_install, on_message or "
         "on_shutdown); the function can never react to its container");
  }

  // ---- pass 3: static cost (lower bound on interpreter steps) ----

  std::uint64_t expr_min_steps(const Expr& e) const {
    std::uint64_t cost = 1;  // every eval() charges one step
    if (e.a != nullptr) cost = sat_add(cost, expr_min_steps(*e.a));
    if (e.b != nullptr) cost = sat_add(cost, expr_min_steps(*e.b));
    for (const auto& arg : e.args) cost = sat_add(cost, expr_min_steps(*arg));
    for (const auto& [k, v] : e.pairs) {
      cost = sat_add(cost, sat_add(expr_min_steps(*k), expr_min_steps(*v)));
    }
    return cost;
  }

  /// Iteration count when the For iterable is `range(...)` over integer
  /// literals; nullopt otherwise.
  std::optional<std::uint64_t> literal_range_count(const Expr& iterable) const {
    if (iterable.kind != ExprKind::Call || iterable.a->kind != ExprKind::Name ||
        iterable.a->name != "range" || is_global("range")) {
      return std::nullopt;
    }
    std::vector<std::int64_t> vals;
    for (const auto& arg : iterable.args) {
      const Expr& a = *arg;
      if (a.kind == ExprKind::Literal && a.literal.is_int()) {
        vals.push_back(a.literal.as_int());
      } else {
        return std::nullopt;
      }
    }
    // range(hi), range(lo, hi) or range(lo, hi, step), as install_stdlib reads them.
    if (!find_native("", "range")->admits(vals.size())) return std::nullopt;
    const bool hi_only = vals.size() == 1;
    const std::int64_t lo = hi_only ? 0 : vals[0];
    const std::int64_t hi = vals[hi_only ? 0 : 1];
    const std::int64_t step = vals.size() == 3 ? vals[2] : 1;
    if (step == 0) return std::nullopt;
    if (step > 0 && hi > lo) {
      return static_cast<std::uint64_t>((hi - lo + step - 1) / step);
    }
    if (step < 0 && lo > hi) {
      return static_cast<std::uint64_t>((lo - hi - step - 1) / -step);
    }
    return 0;
  }

  std::uint64_t stmt_min_steps(const Stmt& s) const {
    std::uint64_t cost = 1;  // exec() charges one step per statement
    switch (s.kind) {
      case StmtKind::ExprStmt:
      case StmtKind::Return:
        if (s.expr != nullptr) cost = sat_add(cost, expr_min_steps(*s.expr));
        return cost;
      case StmtKind::Assign:
      case StmtKind::AugAssign:
        return sat_add(cost, expr_min_steps(*s.expr));
      case StmtKind::If: {
        cost = sat_add(cost, expr_min_steps(*s.expr));
        return sat_add(cost, std::min(block_min_steps(s.body),
                                      block_min_steps(s.orelse)));
      }
      case StmtKind::While:
        // May run zero iterations — unless the condition is constantly
        // true with no way out, in which case the statement never ends.
        cost = sat_add(cost, expr_min_steps(*s.expr));
        if (s.expr->kind == ExprKind::Literal && s.expr->literal.truthy() &&
            !block_escapes_loop(s.body)) {
          return kCostCap;
        }
        return cost;
      case StmtKind::For: {
        cost = sat_add(cost, expr_min_steps(*s.target));
        if (auto n = literal_range_count(*s.target)) {
          // Each iteration: one step in the loop driver plus the body.
          cost = sat_add(cost, sat_mul(*n, sat_add(1, block_min_steps(s.body))));
        }
        return cost;
      }
      default:
        return cost;
    }
  }

  std::uint64_t block_min_steps(const std::vector<StmtPtr>& body) const {
    std::uint64_t cost = 0;
    for (const auto& stmt : body) {
      cost = sat_add(cost, stmt_min_steps(*stmt));
      // A lower bound must stop at the first statement that unconditionally
      // leaves the block.
      if (stmt->kind == StmtKind::Return || stmt->kind == StmtKind::Break ||
          stmt->kind == StmtKind::Continue) {
        break;
      }
    }
    return cost;
  }

  std::uint64_t program_min_steps() const {
    std::uint64_t cost = block_min_steps(program_.statements);
    auto it = defs_.find("on_install");
    if (it != defs_.end()) {
      cost = sat_add(cost, block_min_steps(it->second.back()->body));
    }
    return cost;
  }

  const Program& program_;
  AnalysisResult result_;
  std::set<std::string> global_vars_;
  std::map<std::string, std::vector<const FunctionDef*>> defs_;
  std::vector<const FunctionDef*> pending_defs_;
  std::map<sb::Syscall, CapabilityUse> caps_;
};

}  // namespace

const char* to_string(Severity s) {
  return s == Severity::Error ? "error" : "warning";
}

std::string Diagnostic::to_string() const {
  return "line " + std::to_string(line) + ": " + script::to_string(severity) +
         " " + code + ": " + message;
}

bool AnalysisResult::has_errors() const {
  return first_error() != nullptr;
}

const Diagnostic* AnalysisResult::first_error() const {
  for (const auto& d : diagnostics) {
    if (d.severity == Severity::Error) return &d;
  }
  return nullptr;
}

std::set<sandbox::Syscall> AnalysisResult::required_syscalls() const {
  std::set<sandbox::Syscall> out;
  for (const auto& use : required) out.insert(use.syscall);
  return out;
}

AnalysisResult analyze(const Program& program) {
  return Analyzer(program).run();
}

}  // namespace bento::script
