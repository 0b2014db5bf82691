//! The analyzer's AST for the Rust subset this workspace uses.
//!
//! Deliberately lossy where the passes do not care (types, generics,
//! visibility, most patterns) and faithful where they do (control flow,
//! call/method chains, closures, atomics arguments, `cfg` attributes).

use std::fmt::Write as _;

/// A top-level or nested item.
#[derive(Debug)]
pub enum Item {
    /// A function with a body.
    Fn(FnItem),
    /// `mod name { items }` (inline only; `mod name;` is `Other`).
    Mod {
        /// Module name.
        name: String,
        /// `cfg(test)` / `cfg(feature = "...")` marker from attributes.
        cfg: Option<String>,
        /// Nested items.
        items: Vec<Item>,
    },
    /// `impl ... { items }`, or `trait ... { items }` (whose default
    /// method bodies are functions like any other).
    Impl {
        /// Best-effort self-type (or trait) name.
        type_name: String,
        /// `cfg` marker from attributes, as for `Mod`.
        cfg: Option<String>,
        /// Associated items.
        items: Vec<Item>,
    },
    /// Anything else (struct, enum, use, const, macro call or def, ...).
    Other,
}

/// A parsed function.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameter names (patterns reduced to their bound identifier).
    pub params: Vec<String>,
    /// `cfg(feature = "...")` value from attributes, when present
    /// (e.g. `mutant-publication` for seeded analyzer mutants).
    pub cfg_feature: Option<String>,
    /// Body (absent for trait method declarations).
    pub body: Option<Block>,
    /// Items declared inside the body at any depth (`fn`, `impl`, ...),
    /// hoisted here so [`for_each_fn`] visits them.
    pub nested: Vec<Item>,
}

/// A `{ ... }` block.
#[derive(Debug)]
pub struct Block {
    /// 1-based line of the opening brace.
    pub line: usize,
    /// Was this an `unsafe { ... }` block?
    pub is_unsafe: bool,
    /// Statements; the final one may be the tail expression.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let PAT (= init) (else { .. });`
    Let {
        /// Identifiers bound by the pattern, in source order.
        pat: Vec<String>,
        /// Whether the pattern was a tuple `(a, b, ..)`.
        tuple: bool,
        /// Initializer.
        init: Option<Expr>,
        /// `else` block of a let-else.
        else_block: Option<Block>,
        /// 1-based line.
        line: usize,
    },
    /// Expression statement (with or without `;`).
    Expr(Expr),
}

/// One arm of a `match`.
#[derive(Debug)]
pub struct Arm {
    /// Raw pattern text (tokens joined), for diagnostics only.
    pub pat: String,
    /// `if` guard expression.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
}

/// An expression.
#[derive(Debug)]
pub enum Expr {
    /// Path: `a::b::c` (single identifiers included).
    Path(Vec<String>, usize),
    /// Literal.
    Lit(String, usize),
    /// `callee(args)`.
    Call {
        /// Callee (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Line of the opening parenthesis.
        line: usize,
    },
    /// `recv.method(args)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Line of the method name.
        line: usize,
    },
    /// `base.field`.
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name (tuple indices included as text).
        name: String,
        /// Line.
        line: usize,
    },
    /// `base[index]`.
    Index {
        /// Base expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Line.
        line: usize,
    },
    /// `*expr`.
    Deref(Box<Expr>, usize),
    /// `&expr` / `&mut expr`.
    Ref(Box<Expr>, usize),
    /// `!expr` / `-expr`.
    Unary(Box<Expr>, usize),
    /// `lhs OP rhs` for a binary operator; `op` keeps the operator text.
    Binary {
        /// Operator text (`<`, `==`, `+`, ...).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Line.
        line: usize,
    },
    /// `lhs = rhs` (and compound assignments).
    Assign {
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
        /// Line.
        line: usize,
    },
    /// `if cond { then } (else ...)`; `cond` is `None` for `if let`
    /// scrutinees folded into `scrutinee`.
    If {
        /// Condition (the scrutinee expression for `if let`).
        cond: Box<Expr>,
        /// Was this an `if let`?
        if_let: bool,
        /// Then block.
        then: Block,
        /// Else branch: a block or a chained `if`.
        else_: Option<Box<Expr>>,
        /// Line.
        line: usize,
    },
    /// `match scrut { arms }`.
    Match {
        /// Scrutinee.
        scrut: Box<Expr>,
        /// Arms.
        arms: Vec<Arm>,
        /// Line.
        line: usize,
    },
    /// `loop { body }`.
    Loop(Block, usize),
    /// `while cond { body }` (`while let` folds the scrutinee into cond).
    While {
        /// Condition.
        cond: Box<Expr>,
        /// Body.
        body: Block,
        /// Line.
        line: usize,
    },
    /// `for pat in iter { body }`.
    For {
        /// Bound identifiers of the loop pattern.
        pat: Vec<String>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body.
        body: Block,
        /// Line.
        line: usize,
    },
    /// `|params| body` closure.
    Closure {
        /// Parameter names.
        params: Vec<String>,
        /// Body expression.
        body: Box<Expr>,
        /// Line.
        line: usize,
    },
    /// A block expression (incl. `unsafe` blocks).
    Block(Block),
    /// `return (expr)`.
    Return(Option<Box<Expr>>, usize),
    /// `break (expr)`.
    Break(usize),
    /// `continue`.
    Continue(usize),
    /// `expr?`.
    Try(Box<Expr>, usize),
    /// `name!(...)`.
    Macro {
        /// Macro name (last path segment).
        name: String,
        /// The arguments read as a comma-separated expression list (a
        /// `Tuple`), so an atomic inside `vec![..]` or `assert!(..)` is
        /// still an event; what is not an expression degrades to `Unknown`.
        args: Box<Expr>,
        /// Line.
        line: usize,
    },
    /// `(a, b, ...)` tuple.
    Tuple(Vec<Expr>, usize),
    /// `[a, b, ...]` array literal (`[x; n]` included).
    Array(Vec<Expr>, usize),
    /// `Path { field: expr, ... }` struct literal.
    StructLit {
        /// Struct path (last segment).
        name: String,
        /// Field initializers.
        fields: Vec<(String, Expr)>,
        /// Line.
        line: usize,
    },
    /// Unparseable fragment, skipped tokens.
    Unknown(usize),
}

impl Expr {
    /// Best-effort source line of the expression.
    pub fn line(&self) -> usize {
        match self {
            Expr::Path(_, l)
            | Expr::Lit(_, l)
            | Expr::Call { line: l, .. }
            | Expr::MethodCall { line: l, .. }
            | Expr::Field { line: l, .. }
            | Expr::Index { line: l, .. }
            | Expr::Deref(_, l)
            | Expr::Ref(_, l)
            | Expr::Unary(_, l)
            | Expr::Binary { line: l, .. }
            | Expr::Assign { line: l, .. }
            | Expr::If { line: l, .. }
            | Expr::Match { line: l, .. }
            | Expr::Loop(_, l)
            | Expr::While { line: l, .. }
            | Expr::For { line: l, .. }
            | Expr::Closure { line: l, .. }
            | Expr::Return(_, l)
            | Expr::Break(l)
            | Expr::Continue(l)
            | Expr::Try(_, l)
            | Expr::Macro { line: l, .. }
            | Expr::Tuple(_, l)
            | Expr::Array(_, l)
            | Expr::StructLit { line: l, .. }
            | Expr::Unknown(l) => *l,
            Expr::Block(b) => b.line,
        }
    }

    /// The "receiver name" for rule lookups: the last name of the
    /// expression once index, deref, reference and call-argument groups
    /// are stripped — `self.stamps[i]` → `stamps`, `(*e.cell)` → `cell`,
    /// `stripes()[idx]` → `stripes`, `self.words.as_ref()[i]` → `as_ref`.
    pub fn receiver_name(&self) -> Option<String> {
        match self {
            Expr::Path(segs, _) => segs.last().cloned(),
            Expr::Field { name, .. } => Some(name.clone()),
            Expr::MethodCall { method, .. } => Some(method.clone()),
            Expr::Call { callee: e, .. }
            | Expr::Index { base: e, .. }
            | Expr::Deref(e, _)
            | Expr::Ref(e, _) => e.receiver_name(),
            _ => None,
        }
    }
}

/// Walks every function item — in mods, impls, trait bodies and other
/// functions' bodies — handing `f` each one with the `cfg` marker in
/// effect for it: its own, or the nearest enclosing item's; `"test"` is
/// sticky, so nothing inside a `#[cfg(test)]` item is production code.
pub fn for_each_fn<'a>(items: &'a [Item], f: &mut impl FnMut(&'a FnItem, Option<&'a str>)) {
    fn walk<'a>(
        items: &'a [Item],
        ctx: Option<&'a str>,
        f: &mut impl FnMut(&'a FnItem, Option<&'a str>),
    ) {
        let inherit = |own: &'a Option<String>| match ctx {
            Some("test") => ctx,
            _ => own.as_deref().or(ctx),
        };
        for it in items {
            match it {
                Item::Fn(func) => {
                    let cfg = inherit(&func.cfg_feature);
                    f(func, cfg);
                    walk(&func.nested, cfg, f);
                }
                Item::Mod { cfg, items, .. } | Item::Impl { cfg, items, .. } => {
                    walk(items, inherit(cfg), f)
                }
                Item::Other => {}
            }
        }
    }
    walk(items, None, f);
}

/// Renders an item tree as an indented dump (golden-test format).
pub fn dump_items(items: &[Item]) -> String {
    let mut out = String::new();
    for it in items {
        dump_item(it, 0, &mut out);
    }
    out
}

fn pad(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn dump_item(it: &Item, depth: usize, out: &mut String) {
    pad(depth, out);
    match it {
        Item::Fn(f) => {
            let _ = writeln!(
                out,
                "fn {} (line {}, params [{}]{})",
                f.name,
                f.line,
                f.params.join(", "),
                f.cfg_feature
                    .as_deref()
                    .map(|c| format!(", cfg-feature {c}"))
                    .unwrap_or_default()
            );
            if let Some(b) = &f.body {
                dump_block(b, depth + 1, out);
            }
            for it in &f.nested {
                dump_item(it, depth + 1, out);
            }
        }
        Item::Mod { name, cfg, items } => {
            let _ = writeln!(
                out,
                "mod {name}{}",
                cfg.as_deref()
                    .map(|c| format!(" (cfg {c})"))
                    .unwrap_or_default()
            );
            for it in items {
                dump_item(it, depth + 1, out);
            }
        }
        Item::Impl {
            type_name, items, ..
        } => {
            let _ = writeln!(out, "impl {type_name}");
            for it in items {
                dump_item(it, depth + 1, out);
            }
        }
        Item::Other => {
            let _ = writeln!(out, "item");
        }
    }
}

fn dump_block(b: &Block, depth: usize, out: &mut String) {
    pad(depth, out);
    let _ = writeln!(out, "block{}", if b.is_unsafe { " (unsafe)" } else { "" });
    for s in &b.stmts {
        match s {
            Stmt::Let {
                pat, init, line, ..
            } => {
                pad(depth + 1, out);
                let _ = writeln!(out, "let [{}] (line {line})", pat.join(", "));
                if let Some(e) = init {
                    dump_expr(e, depth + 2, out);
                }
            }
            Stmt::Expr(e) => dump_expr(e, depth + 1, out),
        }
    }
}

fn dump_expr(e: &Expr, depth: usize, out: &mut String) {
    pad(depth, out);
    match e {
        Expr::Path(segs, _) => {
            let _ = writeln!(out, "path {}", segs.join("::"));
        }
        Expr::Lit(t, _) => {
            let _ = writeln!(out, "lit {t}");
        }
        Expr::Call { callee, args, .. } => {
            let _ = writeln!(out, "call");
            dump_expr(callee, depth + 1, out);
            for a in args {
                dump_expr(a, depth + 1, out);
            }
        }
        Expr::MethodCall {
            recv, method, args, ..
        } => {
            let _ = writeln!(out, "method .{method}");
            dump_expr(recv, depth + 1, out);
            for a in args {
                dump_expr(a, depth + 1, out);
            }
        }
        Expr::Field { base, name, .. } => {
            let _ = writeln!(out, "field .{name}");
            dump_expr(base, depth + 1, out);
        }
        Expr::Index { base, index, .. } => {
            let _ = writeln!(out, "index");
            dump_expr(base, depth + 1, out);
            dump_expr(index, depth + 1, out);
        }
        Expr::Deref(e, _) => {
            let _ = writeln!(out, "deref");
            dump_expr(e, depth + 1, out);
        }
        Expr::Ref(e, _) => {
            let _ = writeln!(out, "ref");
            dump_expr(e, depth + 1, out);
        }
        Expr::Unary(e, _) => {
            let _ = writeln!(out, "unary");
            dump_expr(e, depth + 1, out);
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let _ = writeln!(out, "binary {op}");
            dump_expr(lhs, depth + 1, out);
            dump_expr(rhs, depth + 1, out);
        }
        Expr::Assign { lhs, rhs, .. } => {
            let _ = writeln!(out, "assign");
            dump_expr(lhs, depth + 1, out);
            dump_expr(rhs, depth + 1, out);
        }
        Expr::If {
            cond,
            if_let,
            then,
            else_,
            ..
        } => {
            let _ = writeln!(out, "if{}", if *if_let { "-let" } else { "" });
            dump_expr(cond, depth + 1, out);
            dump_block(then, depth + 1, out);
            if let Some(e) = else_ {
                pad(depth + 1, out);
                let _ = writeln!(out, "else");
                dump_expr(e, depth + 2, out);
            }
        }
        Expr::Match { scrut, arms, .. } => {
            let _ = writeln!(out, "match");
            dump_expr(scrut, depth + 1, out);
            for arm in arms {
                pad(depth + 1, out);
                let _ = writeln!(
                    out,
                    "arm `{}`{}",
                    arm.pat,
                    if arm.guard.is_some() {
                        " (guarded)"
                    } else {
                        ""
                    }
                );
                if let Some(g) = &arm.guard {
                    dump_expr(g, depth + 2, out);
                }
                dump_expr(&arm.body, depth + 2, out);
            }
        }
        Expr::Loop(b, _) => {
            let _ = writeln!(out, "loop");
            dump_block(b, depth + 1, out);
        }
        Expr::While { cond, body, .. } => {
            let _ = writeln!(out, "while");
            dump_expr(cond, depth + 1, out);
            dump_block(body, depth + 1, out);
        }
        Expr::For {
            pat, iter, body, ..
        } => {
            let _ = writeln!(out, "for [{}]", pat.join(", "));
            dump_expr(iter, depth + 1, out);
            dump_block(body, depth + 1, out);
        }
        Expr::Closure { params, body, .. } => {
            let _ = writeln!(out, "closure |{}|", params.join(", "));
            dump_expr(body, depth + 1, out);
        }
        Expr::Block(b) => {
            let _ = writeln!(out, "block-expr");
            dump_block(b, depth + 1, out);
        }
        Expr::Return(e, _) => {
            let _ = writeln!(out, "return");
            if let Some(e) = e {
                dump_expr(e, depth + 1, out);
            }
        }
        Expr::Break(_) => {
            let _ = writeln!(out, "break");
        }
        Expr::Continue(_) => {
            let _ = writeln!(out, "continue");
        }
        Expr::Try(e, _) => {
            let _ = writeln!(out, "try");
            dump_expr(e, depth + 1, out);
        }
        Expr::Macro { name, .. } => {
            let _ = writeln!(out, "macro {name}!");
        }
        Expr::Tuple(es, _) => {
            let _ = writeln!(out, "tuple");
            for e in es {
                dump_expr(e, depth + 1, out);
            }
        }
        Expr::Array(es, _) => {
            let _ = writeln!(out, "array");
            for e in es {
                dump_expr(e, depth + 1, out);
            }
        }
        Expr::StructLit { name, fields, .. } => {
            let _ = writeln!(out, "struct-lit {name}");
            for (f, e) in fields {
                pad(depth + 1, out);
                let _ = writeln!(out, ".{f} =");
                dump_expr(e, depth + 2, out);
            }
        }
        Expr::Unknown(_) => {
            let _ = writeln!(out, "unknown");
        }
    }
}
