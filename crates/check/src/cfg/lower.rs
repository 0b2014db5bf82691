//! AST → CFG lowering.
//!
//! Control flow (`if`/`match`/loops/`return`/`break`/`?`) becomes block
//! structure; everything else is reduced to typed [`Event`]s. Three
//! pieces of lexical state ride along:
//!
//! * **guard depth** — incremented inside critical-section closures
//!   (`execute`, `execute_from`, `with_shard_locked`,
//!   `with_key_shard_locked`, `with_shards_locked`) and after a
//!   let-bound `lock_section()` guard, scoped to the end of its block;
//! * **held locks** — symbols of let-bound `lock_section()` guards, so
//!   a later acquisition records what it may deadlock against;
//! * **bindings** — `let s = &self.shards[idx]` style aliases, so an
//!   acquisition through `s.lock` still resolves its shard index.
//!
//! Closures not known to run exactly once (iterator adapters, plain
//! calls) get a bypass edge around their body, so events inside them
//! never wrongly dominate events after the call.

use std::collections::HashMap;

use super::{BasicBlock, ContractArg, Event, EventKind, FnCfg};
use crate::syntax::{Block, Expr, FnItem, Stmt};

/// Methods whose closure argument runs exactly once with the lock held.
const GUARD_METHODS: &[&str] = &[
    "execute",
    "execute_from",
    "with_shard_locked",
    "with_key_shard_locked",
    "with_shards_locked",
];

/// Atomic RMW/load/store method names that take `Ordering` arguments.
pub const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_update",
    "fetch_max",
    "fetch_min",
];

/// Lowers one parsed function to a CFG; `cfg_marker` is the marker
/// [`crate::syntax::for_each_fn`] hands out with it (e.g. `Some("test")`
/// anywhere under a `#[cfg(test)] mod`).
pub fn lower_fn(f: &FnItem, cfg_marker: Option<&str>) -> FnCfg {
    let mut lw = Lowerer {
        blocks: vec![BasicBlock::default(), BasicBlock::default()],
        cur: 0,
        ret_target: 1,
        guard_depth: 0,
        in_unsafe: 0,
        held: Vec::new(),
        env: HashMap::new(),
        loop_slice: None,
        loops: Vec::new(),
    };
    if let Some(b) = &f.body {
        lw.lower_block(b);
    }
    let cur = lw.cur;
    lw.edge(cur, 1);
    FnCfg {
        name: f.name.clone(),
        line: f.line,
        cfg_marker: cfg_marker.map(str::to_string),
        blocks: lw.blocks,
        entry: 0,
        exit: 1,
    }
}

struct Lowerer {
    blocks: Vec<BasicBlock>,
    cur: usize,
    /// Where `return` / `?` jumps: the fn exit, or a closure's join.
    ret_target: usize,
    guard_depth: usize,
    in_unsafe: usize,
    held: Vec<String>,
    /// `let s = &self.shards[idx]` aliases: binding → index symbol.
    env: HashMap<String, String>,
    /// Slice iterated by the innermost enclosing iterator closure.
    loop_slice: Option<String>,
    /// (head, after) of enclosing loops, for `continue`/`break`.
    loops: Vec<(usize, usize)>,
}

impl Lowerer {
    fn new_block(&mut self) -> usize {
        self.blocks.push(BasicBlock::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    fn emit(&mut self, kind: EventKind, line: usize) {
        let guard_depth = self.guard_depth;
        self.blocks[self.cur].events.push(Event {
            kind,
            line,
            guard_depth,
        });
    }

    // ---- statements --------------------------------------------------

    fn lower_block(&mut self, b: &Block) {
        let g = self.guard_depth;
        let h = self.held.len();
        if b.is_unsafe {
            self.in_unsafe += 1;
        }
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let {
                    pat,
                    tuple,
                    init,
                    else_block,
                    line,
                } => self.lower_let(pat, *tuple, init.as_ref(), else_block.as_ref(), *line),
                Stmt::Expr(e) => self.lower_expr(e, false),
            }
        }
        if b.is_unsafe {
            self.in_unsafe -= 1;
        }
        self.guard_depth = g;
        self.held.truncate(h);
    }

    fn lower_let(
        &mut self,
        pat: &[String],
        tuple: bool,
        init: Option<&Expr>,
        else_block: Option<&Block>,
        line: usize,
    ) {
        let Some(init) = init else { return };
        // Conditional-swap ordering fact:
        // `let (lo, hi) = if a < b { (a, b) } else { (b, a) };`
        let order_fact = tuple && pat.len() == 2 && is_conditional_swap(init);
        self.lower_expr(init, false);
        if order_fact {
            self.emit(
                EventKind::OrderFact {
                    lt: pat[0].clone(),
                    gt: pat[1].clone(),
                },
                line,
            );
        }
        if pat.len() == 1 {
            // Shard alias: `let s = &self.shards[idx];`
            if let Some(sym) = strip_refs(init)
                .shards_index()
                .and_then(Expr::simple_symbol)
            {
                if is_pure_place(strip_refs(init)) {
                    self.env.insert(pat[0].clone(), sym);
                }
            }
            // Let-bound guard: `let g = <shard>.lock.lock_section();`
            // holds to the end of the enclosing block.
            if let Expr::MethodCall { method, recv, .. } = init {
                if method == "lock_section" {
                    let idx = self.acquire_index(recv);
                    self.guard_depth += 1;
                    self.held.push(idx.unwrap_or_else(|| pat[0].clone()));
                }
            }
        }
        if let Some(eb) = else_block {
            // Let-else: the else branch runs on refutation and diverges.
            let else_b = self.new_block();
            let join = self.new_block();
            let cur = self.cur;
            self.edge(cur, else_b);
            self.edge(cur, join);
            self.cur = else_b;
            self.lower_block(eb);
            let cur = self.cur;
            let rt = self.ret_target;
            self.edge(cur, rt);
            self.cur = join;
        }
    }

    // ---- expressions -------------------------------------------------

    /// Lowers `e`, emitting its events into the current block. When
    /// `as_place` is set the expression is a store target or receiver:
    /// a top-level raw deref is *not* a read event (the caller emits the
    /// matching write/atomic event itself).
    fn lower_expr(&mut self, e: &Expr, as_place: bool) {
        match e {
            Expr::Path(..) | Expr::Lit(..) | Expr::Break(_) | Expr::Continue(_) => {
                if let Expr::Break(line) = e {
                    let target = self.loops.last().map(|&(_, after)| after);
                    self.diverge(target, *line);
                } else if let Expr::Continue(line) = e {
                    let target = self.loops.last().map(|&(head, _)| head);
                    self.diverge(target, *line);
                }
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } => self.lower_method(recv, method, args, *line),
            Expr::Call { callee, args, line } => self.lower_call(callee, args, *line),
            Expr::Field { base, name, line } => {
                self.lower_expr(base, true);
                if name == "map" {
                    if let Some(path) = e.access_path() {
                        self.emit(
                            EventKind::FieldUse {
                                path: path.join("."),
                                field: name.clone(),
                            },
                            *line,
                        );
                    }
                }
            }
            Expr::Index { base, index, .. } => {
                self.lower_expr(base, true);
                self.lower_expr(index, false);
            }
            Expr::Deref(inner, line) => {
                self.lower_expr(inner, true);
                if !as_place && self.in_unsafe > 0 {
                    self.emit(EventKind::RawRead, *line);
                }
            }
            Expr::Ref(inner, _) => self.lower_expr(inner, false),
            Expr::Unary(inner, _) | Expr::Try(inner, _) => {
                self.lower_expr(inner, false);
                if let Expr::Try(_, line) = e {
                    // `?` may early-return: branch to the return target
                    // and continue in a fresh block.
                    let cont = self.new_block();
                    let cur = self.cur;
                    let rt = self.ret_target;
                    self.edge(cur, rt);
                    self.edge(cur, cont);
                    self.cur = cont;
                    let _ = line;
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.lower_expr(lhs, false);
                self.lower_expr(rhs, false);
            }
            Expr::Assign { lhs, rhs, line } => {
                self.lower_expr(lhs, true);
                if matches!(&**lhs, Expr::Deref(..)) && self.in_unsafe > 0 {
                    self.emit(EventKind::RawWrite, *line);
                }
                self.lower_expr(rhs, false);
            }
            Expr::If {
                cond, then, else_, ..
            } => {
                self.lower_expr(cond, false);
                let cond_end = self.cur;
                let join = self.new_block();
                let then_b = self.new_block();
                self.edge(cond_end, then_b);
                self.cur = then_b;
                self.lower_block(then);
                let cur = self.cur;
                self.edge(cur, join);
                match else_ {
                    Some(eb) => {
                        let else_b = self.new_block();
                        self.edge(cond_end, else_b);
                        self.cur = else_b;
                        self.lower_expr(eb, false);
                        let cur = self.cur;
                        self.edge(cur, join);
                    }
                    None => self.edge(cond_end, join),
                }
                self.cur = join;
            }
            Expr::Match { scrut, arms, .. } => {
                self.lower_expr(scrut, false);
                let scrut_end = self.cur;
                let join = self.new_block();
                if arms.is_empty() {
                    self.edge(scrut_end, join);
                }
                for arm in arms {
                    let arm_b = self.new_block();
                    self.edge(scrut_end, arm_b);
                    self.cur = arm_b;
                    if let Some(g) = &arm.guard {
                        self.lower_expr(g, false);
                    }
                    self.lower_expr(&arm.body, false);
                    let cur = self.cur;
                    self.edge(cur, join);
                }
                self.cur = join;
            }
            Expr::Loop(body, _) => {
                let head = self.new_block();
                let after = self.new_block();
                let cur = self.cur;
                self.edge(cur, head);
                // Conservative exit edge keeps postdominance total even
                // for `loop` bodies whose only exits are panics.
                self.edge(head, after);
                self.loops.push((head, after));
                self.cur = head;
                self.lower_block(body);
                let cur = self.cur;
                self.edge(cur, head);
                self.loops.pop();
                self.cur = after;
            }
            Expr::While { cond, body, .. } => {
                let head = self.new_block();
                let cur = self.cur;
                self.edge(cur, head);
                self.cur = head;
                self.lower_expr(cond, false);
                let cond_end = self.cur;
                let body_b = self.new_block();
                let after = self.new_block();
                self.edge(cond_end, body_b);
                self.edge(cond_end, after);
                self.loops.push((head, after));
                self.cur = body_b;
                self.lower_block(body);
                let cur = self.cur;
                self.edge(cur, head);
                self.loops.pop();
                self.cur = after;
            }
            Expr::For { iter, body, .. } => {
                self.lower_expr(iter, false);
                let head = self.new_block();
                let cur = self.cur;
                self.edge(cur, head);
                let body_b = self.new_block();
                let after = self.new_block();
                self.edge(head, body_b);
                self.edge(head, after);
                self.loops.push((head, after));
                self.cur = body_b;
                self.lower_block(body);
                let cur = self.cur;
                self.edge(cur, head);
                self.loops.pop();
                self.cur = after;
            }
            Expr::Closure { body, .. } => self.lower_bypassed(body, true),
            Expr::Block(b) => self.lower_block(b),
            Expr::Return(inner, line) => {
                if let Some(inner) = inner {
                    self.lower_expr(inner, false);
                }
                let rt = self.ret_target;
                self.diverge(Some(rt), *line);
            }
            Expr::Macro {
                name,
                text,
                args,
                line,
            } => {
                if let Some(slice) = sorted_assert_slice(name, text) {
                    self.emit(EventKind::SortedFact { slice }, *line);
                }
                // The arguments may run zero times (`debug_assert!`), but
                // they are the function's own code: a `return` or `?` in
                // them leaves the function, not the macro.
                self.lower_bypassed(args, false);
            }
            Expr::Tuple(items, _) | Expr::Array(items, _) => {
                for it in items {
                    self.lower_expr(it, false);
                }
            }
            Expr::StructLit { fields, .. } => {
                for (_, e) in fields {
                    self.lower_expr(e, false);
                }
            }
            Expr::Unknown(_) => {}
        }
    }

    /// Jump to `target` (if any) and continue in a fresh dead block.
    fn diverge(&mut self, target: Option<usize>, _line: usize) {
        if let Some(t) = target {
            let cur = self.cur;
            self.edge(cur, t);
        }
        self.cur = self.new_block();
    }

    /// Code that may run zero or many times — a closure body, or the
    /// arguments of an expression macro: lowered between the current
    /// block and a join, with a bypass edge around it. A closure's
    /// `return` lands on the join; a macro argument's leaves the function.
    fn lower_bypassed(&mut self, body: &Expr, closure: bool) {
        let entry = self.new_block();
        let join = self.new_block();
        let cur = self.cur;
        self.edge(cur, entry);
        self.edge(cur, join);
        self.cur = entry;
        let saved_rt = self.ret_target;
        if closure {
            self.ret_target = join;
        }
        self.lower_expr(body, false);
        self.ret_target = saved_rt;
        let cur = self.cur;
        self.edge(cur, join);
        self.cur = join;
    }

    /// A closure known to run exactly once (critical-section body):
    /// lowered inline, optionally one guard level deeper.
    fn lower_inline_closure(&mut self, body: &Expr, guarded: bool) {
        let join = self.new_block();
        let saved_rt = self.ret_target;
        self.ret_target = join;
        if guarded {
            self.guard_depth += 1;
        }
        self.lower_expr(body, false);
        if guarded {
            self.guard_depth -= 1;
        }
        self.ret_target = saved_rt;
        let cur = self.cur;
        self.edge(cur, join);
        self.cur = join;
    }

    fn lower_method(&mut self, recv: &Expr, method: &str, args: &[Expr], line: usize) {
        self.lower_expr(recv, true);

        // Atomic op with Ordering arguments?
        if ATOMIC_METHODS.contains(&method) {
            let orderings = ordering_args(args);
            if !orderings.is_empty() {
                for a in args {
                    self.lower_expr(a, false);
                }
                self.emit(
                    EventKind::Atomic {
                        op: method.to_string(),
                        recv: recv.receiver_name().unwrap_or_default(),
                        orderings,
                    },
                    line,
                );
                return;
            }
        }

        match method {
            "write" if args.len() == 1 => {
                self.lower_expr(&args[0], false);
                self.emit(
                    EventKind::TxWrite {
                        recv: recv.receiver_name().unwrap_or_default(),
                    },
                    line,
                );
            }
            "lock_section" => {
                self.emit(
                    EventKind::Acquire {
                        index: self.acquire_index(recv),
                        loop_over: self.loop_slice.clone(),
                        live: self.held.clone(),
                    },
                    line,
                );
            }
            "sort" | "sort_unstable" if args.is_empty() => {
                if let Some(s) = recv.simple_symbol() {
                    self.emit(EventKind::SortedFact { slice: s }, line);
                }
            }
            m if GUARD_METHODS.contains(&m) => {
                if m == "with_shards_locked" {
                    self.emit(
                        EventKind::ContractCall {
                            arg: args.first().map_or(ContractArg::Unknown, contract_arg),
                        },
                        line,
                    );
                }
                for a in args {
                    if let Expr::Closure { body, .. } = a {
                        self.lower_inline_closure(body, true);
                    } else {
                        self.lower_expr(a, false);
                    }
                }
            }
            _ => {
                // Iterator adapters over `<slice>.iter()` mark their
                // closure as a loop body over that slice.
                let iter_slice = iterated_slice(recv);
                for a in args {
                    if let Expr::Closure { body, .. } = a {
                        let saved = self.loop_slice.clone();
                        if iter_slice.is_some() {
                            self.loop_slice = iter_slice.clone();
                        }
                        self.lower_bypassed(body, true);
                        self.loop_slice = saved;
                    } else {
                        self.lower_expr(a, false);
                    }
                }
                self.emit(
                    EventKind::Call {
                        name: method.to_string(),
                        recv: recv.receiver_name(),
                    },
                    line,
                );
            }
        }
    }

    fn lower_call(&mut self, callee: &Expr, args: &[Expr], line: usize) {
        let segs: Vec<String> = match callee {
            Expr::Path(segs, _) => segs.clone(),
            _ => {
                self.lower_expr(callee, false);
                Vec::new()
            }
        };
        let last = segs.last().map(String::as_str).unwrap_or("");
        let prev = segs
            .len()
            .checked_sub(2)
            .map(|i| segs[i].as_str())
            .unwrap_or("");
        if last == "fence" {
            let ordering = ordering_args(args).pop().unwrap_or_default();
            self.emit(EventKind::Fence { ordering }, line);
            return;
        }
        if prev == "ptr" && (last == "write" || last == "write_volatile") {
            for a in args {
                self.lower_expr(a, false);
            }
            self.emit(EventKind::RawWrite, line);
            return;
        }
        if prev == "ptr" && (last == "read" || last == "read_volatile") {
            for a in args {
                self.lower_expr(a, false);
            }
            self.emit(EventKind::RawRead, line);
            return;
        }
        for a in args {
            if let Expr::Closure { body, .. } = a {
                self.lower_bypassed(body, true);
            } else {
                self.lower_expr(a, false);
            }
        }
        if !last.is_empty() {
            self.emit(
                EventKind::Call {
                    name: last.to_string(),
                    recv: None,
                },
                line,
            );
        }
    }

    /// Symbolic shard index of a `lock_section()` receiver: either a
    /// `...shards[IDX].lock` chain, or an alias bound by
    /// `let s = &self.shards[IDX]`.
    fn acquire_index(&self, recv: &Expr) -> Option<String> {
        if let Some(ix) = recv.shards_index() {
            let sym = ix.simple_symbol()?;
            return Some(self.env.get(&sym).cloned().unwrap_or(sym));
        }
        let path = recv.access_path()?;
        self.env.get(path.first()?).cloned()
    }
}

/// Strips `&`/`*` wrappers.
fn strip_refs(e: &Expr) -> &Expr {
    match e {
        Expr::Ref(inner, _) | Expr::Deref(inner, _) => strip_refs(inner),
        _ => e,
    }
}

/// Is this a pure place chain (no calls), safe to alias symbolically?
fn is_pure_place(e: &Expr) -> bool {
    e.access_path().is_some()
}

/// Does `init` match `if a < b { (a, b) } else { (b, a) }` (the
/// conditional-swap idiom), for any simple symbols `a`, `b`?
fn is_conditional_swap(init: &Expr) -> bool {
    let Expr::If {
        cond,
        if_let: false,
        then,
        else_: Some(else_),
        ..
    } = init
    else {
        return false;
    };
    let Expr::Binary { op, lhs, rhs, .. } = &**cond else {
        return false;
    };
    if op != "<" && op != "<=" {
        return false;
    }
    let (Some(a), Some(b)) = (lhs.simple_symbol(), rhs.simple_symbol()) else {
        return false;
    };
    let then_pair = block_tail_pair(then);
    let else_pair = match &**else_ {
        Expr::Block(b) => block_tail_pair(b),
        _ => None,
    };
    match (then_pair, else_pair) {
        (Some((t0, t1)), Some((e0, e1))) => t0 == a && t1 == b && e0 == b && e1 == a,
        _ => false,
    }
}

/// The `(x, y)` tail of a single-expression block, as symbols.
fn block_tail_pair(b: &Block) -> Option<(String, String)> {
    let [Stmt::Expr(Expr::Tuple(items, _))] = b.stmts.as_slice() else {
        return None;
    };
    let [x, y] = items.as_slice() else {
        return None;
    };
    Some((x.simple_symbol()?, y.simple_symbol()?))
}

/// The five orderings, recognised bare when a file imports them
/// (`use …::Ordering::Relaxed; x.load(Relaxed)`).
pub const ORDERING_NAMES: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Ordering idents among call arguments, in argument order: any
/// `Ordering::X` path, however qualified, and a bare imported
/// [`ORDERING_NAMES`] member (`Mode::Relaxed` and `cfg.Relaxed` are neither).
fn ordering_args(args: &[Expr]) -> Vec<String> {
    let ordering = |a: &Expr| match a {
        Expr::Path(segs, _) => match segs.as_slice() {
            [.., q, name] if q == "Ordering" => Some(name.clone()),
            [name] if ORDERING_NAMES.contains(&name.as_str()) => Some(name.clone()),
            _ => None,
        },
        _ => None,
    };
    args.iter().filter_map(ordering).collect()
}

/// The `with_shards_locked` slice argument, symbolically.
fn contract_arg(a: &Expr) -> ContractArg {
    match strip_refs(a) {
        Expr::Path(segs, _) => segs
            .last()
            .map_or(ContractArg::Unknown, |s| ContractArg::Slice(s.clone())),
        Expr::Array(items, _) => {
            let syms: Vec<Option<String>> = items.iter().map(Expr::simple_symbol).collect();
            match syms.as_slice() {
                [Some(x), Some(y)] => ContractArg::Pair(x.clone(), y.clone()),
                _ => ContractArg::Unknown,
            }
        }
        _ => ContractArg::Unknown,
    }
}

/// For `<recv>.map(|..| ..)`-style adapters: the slice the chain
/// iterates, when the chain starts `<sym>.iter()` / `.iter_mut()`.
fn iterated_slice(recv: &Expr) -> Option<String> {
    match recv {
        Expr::MethodCall { recv, method, .. } if method == "iter" || method == "iter_mut" => {
            recv.simple_symbol()
        }
        Expr::MethodCall { recv, .. } => iterated_slice(recv),
        _ => None,
    }
}

/// `debug_assert!(S.windows(2).all(|w| w[0] < w[1]), ...)` → `S`.
fn sorted_assert_slice(name: &str, text: &str) -> Option<String> {
    if name != "debug_assert" && name != "assert" {
        return None;
    }
    let slice = text.split_whitespace().next()?.to_string();
    let compact: String = text.split_whitespace().collect();
    let head = format!("{slice}.windows(2).all(");
    (compact.starts_with(&head) && compact.contains("[0]<") && compact.contains("[1]"))
        .then_some(slice)
}

#[cfg(test)]
mod tests {
    use super::super::EventKind;
    use super::*;
    use crate::syntax::{for_each_fn, parse_file};

    fn lower_first(src: &str) -> FnCfg {
        let items = parse_file(src).items;
        let mut out = None;
        for_each_fn(&items, &mut |f, cfg| {
            if out.is_none() {
                out = Some(lower_fn(f, cfg));
            }
        });
        out.expect("no fn parsed")
    }

    fn kinds(cfg: &FnCfg) -> Vec<EventKind> {
        cfg.events().map(|(_, e)| e.kind.clone()).collect()
    }

    #[test]
    fn stamp_shape_txwrite_then_fence() {
        let cfg = lower_first(
            "fn stamp(&self) -> bool {\n                let orec = &self.r[0];\n                if orec.read_plain() >= epoch { return false; }\n                orec.write(epoch);\n                fence(Ordering::SeqCst);\n                self.stamps[0].fetch_add(1, Ordering::Relaxed);\n                true\n            }",
        );
        let ks = kinds(&cfg);
        let wi = ks
            .iter()
            .position(|k| matches!(k, EventKind::TxWrite { recv } if recv == "orec"))
            .expect("txwrite");
        assert!(matches!(&ks[wi + 1], EventKind::Fence { ordering } if ordering == "SeqCst"));
        assert!(
            ks.iter()
                .any(|k| matches!(k, EventKind::Atomic { op, orderings, .. }
                if op == "fetch_add" && orderings == &["Relaxed"])),
            "{ks:?}"
        );
    }

    #[test]
    fn guard_depth_inside_execute_closure() {
        let cfg = lower_first(
            "fn get(&self, key: u64) -> Option<u64> {\n                let s = &self.shards[0];\n                s.lock.execute(|ctx| s.map.get(ctx, key))\n            }",
        );
        let field: Vec<_> = cfg
            .events()
            .filter(|(_, e)| matches!(&e.kind, EventKind::FieldUse { field, .. } if field == "map"))
            .collect();
        assert_eq!(field.len(), 1);
        assert_eq!(
            field[0].1.guard_depth, 1,
            "map access inside execute is guarded"
        );
    }

    #[test]
    fn unguarded_field_use_has_depth_zero() {
        let cfg = lower_first(
            "fn len_plain(&self) -> usize { self.shards.iter().map(|s| s.map.len_plain()).sum() }",
        );
        let field: Vec<_> = cfg
            .events()
            .filter(|(_, e)| matches!(&e.kind, EventKind::FieldUse { .. }))
            .collect();
        assert_eq!(field.len(), 1);
        assert_eq!(field[0].1.guard_depth, 0);
    }

    #[test]
    fn swap_let_emits_order_fact_and_contract() {
        let cfg = lower_first(
            "fn t(&self, s1: usize, s2: usize) {\n                let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };\n                self.with_shards_locked(&[lo, hi], |guards| guards.len());\n            }",
        );
        let ks = kinds(&cfg);
        assert!(
            ks.iter()
                .any(|k| matches!(k, EventKind::OrderFact { lt, gt } if lt == "lo" && gt == "hi")),
            "{ks:?}"
        );
        assert!(ks
            .iter()
            .any(|k| matches!(k, EventKind::ContractCall { arg }
            if *arg == ContractArg::Pair("lo".into(), "hi".into()))));
    }

    #[test]
    fn sort_and_assert_emit_sorted_facts_loop_acquire_tagged() {
        let cfg = lower_first(
            "fn w(&self, idxs: &[usize]) {\n                debug_assert!(idxs.windows(2).all(|w| w[0] < w[1]), \"ascending order\");\n                let guards: Vec<G> = idxs.iter().map(|&i| self.shards[i].lock.lock_section()).collect();\n            }",
        );
        let ks = kinds(&cfg);
        assert!(
            ks.iter()
                .any(|k| matches!(k, EventKind::SortedFact { slice } if slice == "idxs")),
            "{ks:?}"
        );
        assert!(
            ks.iter().any(
                |k| matches!(k, EventKind::Acquire { index: Some(i), loop_over: Some(s), .. }
                if i == "i" && s == "idxs")
            ),
            "{ks:?}"
        );
    }

    #[test]
    fn sequential_acquires_record_live_set() {
        let cfg = lower_first(
            "fn bad(&self, lo: usize, hi: usize) {\n                let g_hi = self.shards[hi].lock.lock_section();\n                let g_lo = self.shards[lo].lock.lock_section();\n            }",
        );
        let acquires: Vec<_> = kinds(&cfg)
            .into_iter()
            .filter_map(|k| match k {
                EventKind::Acquire { index, live, .. } => Some((index, live)),
                _ => None,
            })
            .collect();
        assert_eq!(acquires.len(), 2);
        assert_eq!(acquires[0], (Some("hi".into()), vec![]));
        assert_eq!(acquires[1], (Some("lo".into()), vec!["hi".into()]));
    }

    #[test]
    fn raw_accesses_only_in_unsafe() {
        let cfg = lower_first(
            "fn f(p: *mut u64, q: *const u64) -> u64 {\n                unsafe { *p = 1; }\n                let v = unsafe { *q };\n                let w = *some_box;\n                v\n            }",
        );
        let ks = kinds(&cfg);
        assert_eq!(
            ks.iter()
                .filter(|k| matches!(k, EventKind::RawWrite))
                .count(),
            1
        );
        assert_eq!(
            ks.iter()
                .filter(|k| matches!(k, EventKind::RawRead))
                .count(),
            1,
            "safe deref must not count: {ks:?}"
        );
    }

    #[test]
    fn atomic_store_through_deref_is_atomic_not_raw() {
        let cfg = lower_first(
            "fn commit(e: &Entry) { unsafe { (*e.cell).store(e.value, std::sync::atomic::Ordering::Release) }; }",
        );
        let ks = kinds(&cfg);
        assert!(ks
            .iter()
            .any(|k| matches!(k, EventKind::Atomic { op, recv, orderings }
            if op == "store" && recv == "cell" && orderings == &["Release"])));
        assert!(
            !ks.iter()
                .any(|k| matches!(k, EventKind::RawWrite | EventKind::RawRead)),
            "{ks:?}"
        );
    }

    #[test]
    fn closure_bypass_edge_prevents_false_dominance() {
        let cfg = lower_first(
            "fn f(&self) { self.xs.iter().for_each(|x| fence(Ordering::SeqCst)); other(); }",
        );
        let doms = cfg.dominators();
        let fence = cfg
            .events()
            .find(|(_, e)| matches!(e.kind, EventKind::Fence { .. }))
            .unwrap()
            .0;
        assert!(
            !cfg.ev_dominates(&doms, fence, call(&cfg, "other")),
            "closure body must not dominate code after the call"
        );
    }

    #[test]
    fn return_paths_reach_exit() {
        let cfg =
            lower_first("fn f(x: bool) -> u32 { if x { return 1; } loop { if g() { break; } } 2 }");
        let reach = cfg.reachability();
        assert!(reach[cfg.entry][cfg.exit]);
    }

    #[test]
    fn macro_arguments_are_lowered_but_dominate_nothing() {
        let cfg = lower_first(
            "fn f(&self) -> u64 { debug_assert!(self.ready.load(Acquire)); unsafe { *self.slot.get() } }",
        );
        let load = cfg
            .events()
            .find(|(_, e)| {
                matches!(&e.kind, EventKind::Atomic { op, recv, orderings }
                if op == "load" && recv == "ready" && orderings == &["Acquire"])
            })
            .expect("the atomic inside the macro is an event")
            .0;
        let read = cfg
            .events()
            .find(|(_, e)| matches!(e.kind, EventKind::RawRead))
            .unwrap()
            .0;
        assert!(
            !cfg.ev_dominates(&cfg.dominators(), load, read),
            "a `debug_assert!` argument may never run"
        );
    }

    /// The first call of `name` in `cfg`.
    fn call(cfg: &FnCfg, name: &str) -> super::super::EvRef {
        cfg.events()
            .find(|(_, e)| matches!(&e.kind, EventKind::Call { name: n, .. } if n == name))
            .unwrap_or_else(|| panic!("no call of {name}"))
            .0
    }

    #[test]
    fn a_return_in_a_macro_argument_leaves_the_function() {
        let cfg = lower_first(
            "fn f(&self) -> u64 { assert!(if self.bad() { cleanup(); return 0 } else { true }); other(); 1 }",
        );
        let (cleanup, other) = (call(&cfg, "cleanup"), call(&cfg, "other"));
        let reach = cfg.reachability();
        assert!(
            reach[cleanup.block][cfg.exit],
            "the `return` is an exit of the function"
        );
        assert!(
            !cfg.ev_reaches(&reach, cleanup, other),
            "nothing after the macro runs once its argument has returned"
        );
        // A closure's `return` still lands after the closure.
        let cfg = lower_first(
            "fn f(&self) { self.xs.iter().for_each(|x| { cleanup(); return }); other(); }",
        );
        let (cleanup, other) = (call(&cfg, "cleanup"), call(&cfg, "other"));
        assert!(cfg.ev_reaches(&cfg.reachability(), cleanup, other));
    }
}
