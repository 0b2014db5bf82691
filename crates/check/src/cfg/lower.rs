//! AST → CFG lowering.
//!
//! Control flow (`if`/`match`/loops/`return`/`break`/`?`) becomes block
//! structure; everything else is reduced to typed [`Event`]s. The one
//! piece of lexical state that rides along is whether the code is inside
//! an `unsafe` block (a deref there is a raw access).
//!
//! A closure may run zero or many times, so its body gets a bypass edge
//! around it, and events inside it never wrongly dominate events after
//! the call.

use super::{BasicBlock, Event, EventKind, FnCfg};
use crate::syntax::{Block, Expr, FnItem, Stmt};

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
        in_unsafe: 0,
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
    in_unsafe: usize,
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
        self.blocks[self.cur].events.push(Event { kind, line });
    }

    // ---- statements --------------------------------------------------

    fn lower_block(&mut self, b: &Block) {
        if b.is_unsafe {
            self.in_unsafe += 1;
        }
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let {
                    init, else_block, ..
                } => self.lower_let(init.as_ref(), else_block.as_ref()),
                Stmt::Expr(e) => self.lower_expr(e, false),
            }
        }
        if b.is_unsafe {
            self.in_unsafe -= 1;
        }
    }

    fn lower_let(&mut self, init: Option<&Expr>, else_block: Option<&Block>) {
        let Some(init) = init else { return };
        self.lower_expr(init, false);
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
            Expr::Field { base, .. } => self.lower_expr(base, true),
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
            Expr::Macro { args, .. } => {
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

    fn lower_method(&mut self, recv: &Expr, method: &str, args: &[Expr], line: usize) {
        self.lower_expr(recv, true);
        for a in args {
            self.lower_expr(a, false);
        }
        let orderings = ordering_args(args);
        let kind = if ATOMIC_METHODS.contains(&method) && !orderings.is_empty() {
            EventKind::Atomic {
                op: method.to_string(),
                recv: recv.receiver_name().unwrap_or_default(),
                orderings,
            }
        } else if method == "write" && args.len() == 1 {
            EventKind::TxWrite {
                recv: recv.receiver_name().unwrap_or_default(),
            }
        } else {
            EventKind::Call {
                name: method.to_string(),
                recv: recv.receiver_name(),
            }
        };
        self.emit(kind, line);
    }

    fn lower_call(&mut self, callee: &Expr, args: &[Expr], line: usize) {
        let segs: Vec<String> = match callee {
            Expr::Path(segs, _) => segs.clone(),
            _ => {
                self.lower_expr(callee, false);
                Vec::new()
            }
        };
        for a in args {
            self.lower_expr(a, false);
        }
        let kind = match segs.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            [.., "fence"] => EventKind::Fence {
                ordering: ordering_args(args).pop().unwrap_or_default(),
            },
            [.., "ptr", "write" | "write_volatile"] => EventKind::RawWrite,
            [.., "ptr", "read" | "read_volatile"] => EventKind::RawRead,
            [.., last] => EventKind::Call {
                name: last.to_string(),
                recv: None,
            },
            [] => return,
        };
        self.emit(kind, line);
    }
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
