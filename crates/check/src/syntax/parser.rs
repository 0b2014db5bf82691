//! Error-tolerant recursive-descent parser for the workspace's Rust
//! subset.
//!
//! Guarantees: never panics, never loops forever. Anything it cannot
//! parse degrades to [`Expr::Unknown`] / [`Item::Other`] and the parser
//! resynchronizes at the next `;` or brace boundary. Generics, types,
//! and most patterns are skipped; control flow, call/method chains,
//! closures, and `cfg` attributes are kept faithfully because the
//! dataflow passes depend on them.

use std::ops::Range;

use super::ast::{Arm, Block, Expr, FnItem, Item, Stmt};
use super::lexer::{lex, Comments, Tok, TokKind};

/// One source file, read once: the item tree the passes lower, and beside
/// it the comments the annotation lookups read and the token stream with
/// its test spans, which `tests/conservation.rs` counts the reading
/// against.
#[derive(Debug)]
pub struct ParsedFile {
    /// Top-level items.
    pub items: Vec<Item>,
    /// The token stream the items were parsed from.
    pub toks: Vec<Tok>,
    /// The comments, by line.
    pub comments: Comments,
    /// Token ranges of the items under a `#[cfg(test)]` / `#[test]`
    /// attribute — the same marker [`super::for_each_fn`] threads through.
    pub test_spans: Vec<Range<usize>>,
}

impl ParsedFile {
    /// Is token `idx` inside test-only code?
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|s| s.contains(&idx))
    }
}

/// Parses a whole source file. Infallible by construction.
pub fn parse_file(text: &str) -> ParsedFile {
    let (toks, comments) = lex(text);
    let mut p = Parser {
        end: toks.len(),
        toks,
        pos: 0,
        nested: Vec::new(),
        test_spans: Vec::new(),
    };
    let items = p.parse_items(false);
    ParsedFile {
        items,
        toks: p.toks,
        comments,
        test_spans: p.test_spans,
    }
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// One past the last token the cursor may see: the file's end, or the
    /// closer of the macro token tree being re-read ([`Self::within_group`]).
    end: usize,
    /// Items met inside the body of the function being parsed.
    nested: Vec<Item>,
    test_spans: Vec<Range<usize>>,
}

/// Item-starting keywords valid both at top level and inside blocks.
const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "mod",
    "impl",
    "struct",
    "enum",
    "union",
    "use",
    "trait",
    "macro_rules",
    "extern",
];

impl Parser {
    // ---- token cursor ------------------------------------------------

    fn peek(&self) -> Option<&Tok> {
        self.peek_at(0)
    }

    fn peek_at(&self, off: usize) -> Option<&Tok> {
        self.toks[..self.end].get(self.pos + off)
    }

    fn at(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is(s))
    }

    fn at_off(&self, off: usize, s: &str) -> bool {
        self.peek_at(off).is_some_and(|t| t.is(s))
    }

    fn line(&self) -> usize {
        self.peek()
            .map_or_else(|| self.toks.last().map_or(0, |t| t.line), |t| t.line)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.peek().cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.at(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.end
    }

    /// Runs `f` over the inside of the balanced group whose opener was
    /// just consumed — the cursor cannot leave it — and ends after its
    /// closer. Macro token trees are read this way.
    fn within_group<T>(&mut self, open: &str, close: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = self.pos;
        self.skip_balanced(open, close);
        let after = self.pos;
        let outer = std::mem::replace(&mut self.end, after.saturating_sub(1).max(start));
        self.pos = start;
        let out = f(self);
        self.end = outer;
        self.pos = after;
        out
    }

    /// The opener at the cursor and its closer, if a group starts here.
    fn group_delims(&self) -> Option<(&'static str, &'static str)> {
        [("(", ")"), ("[", "]"), ("{", "}")]
            .into_iter()
            .find(|(open, _)| self.at(open))
    }

    /// Skips tokens until (and including) a balanced closer for `open`.
    /// Assumes the opener has already been consumed.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        let mut depth = 1usize;
        while let Some(t) = self.bump() {
            if t.is(open) {
                depth += 1;
            } else if t.is(close) {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Skips a generic-argument list; cursor on `<`. `<<`/`>>` are
    /// pre-split by the lexer so single-char depth counting is exact.
    fn skip_generics(&mut self) {
        if !self.eat("<") {
            return;
        }
        let mut depth = 1usize;
        while let Some(t) = self.bump() {
            if t.is("<") {
                depth += 1;
            } else if t.is(">") {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Skips to the next `;` at brace depth 0 (consuming it), or stops
    /// before a `{`/`}` so the caller can handle the block boundary.
    fn skip_to_semi_or_brace(&mut self) {
        let mut paren = 0usize;
        while let Some(t) = self.peek() {
            if t.is("(") || t.is("[") {
                paren += 1;
            } else if t.is(")") || t.is("]") {
                paren = paren.saturating_sub(1);
            } else if paren == 0 && (t.is("{") || t.is("}")) {
                return;
            } else if paren == 0 && t.is(";") {
                self.pos += 1;
                return;
            }
            self.pos += 1;
        }
    }

    // ---- attributes --------------------------------------------------

    /// Consumes any `#[...]` / `#![...]` attributes, returning the most
    /// specific `cfg` marker found: the feature name for
    /// `cfg(feature = "...")`, `"test"` for `cfg(test)`, or the first
    /// predicate identifier for other `cfg(...)` forms.
    fn parse_attrs(&mut self) -> Option<String> {
        let mut cfg = None;
        while self.at("#") {
            self.pos += 1;
            self.eat("!");
            if !self.eat("[") {
                break;
            }
            let start = self.pos;
            self.skip_balanced("[", "]");
            let inner = &self.toks[start..self.pos.saturating_sub(1)];
            if let Some(found) = cfg_marker(inner) {
                // Feature markers beat bare predicates if both appear.
                if cfg.is_none() || found.starts_with("mutant") {
                    cfg = Some(found);
                }
            }
        }
        cfg
    }

    // ---- items -------------------------------------------------------

    /// Parses items until EOF, or until an unconsumed `}` when
    /// `stop_at_brace` is set (caller eats the brace).
    fn parse_items(&mut self, stop_at_brace: bool) -> Vec<Item> {
        let mut items = Vec::new();
        while !self.done() {
            if stop_at_brace && self.at("}") {
                break;
            }
            items.push(self.parse_one_item());
        }
        items
    }

    fn parse_one_item(&mut self) -> Item {
        let start = self.pos;
        let cfg = self.parse_attrs();
        let test = cfg.as_deref() == Some("test");
        let item = self.parse_item(cfg);
        if test {
            self.test_spans.push(start..self.pos);
        }
        item
    }

    /// One item, its attributes already consumed into `cfg`.
    fn parse_item(&mut self, cfg: Option<String>) -> Item {
        // Visibility and item modifiers.
        if self.eat("pub") && self.at("(") {
            self.pos += 1;
            self.skip_balanced("(", ")");
        }
        loop {
            if self.at("const") || self.at("static") {
                // `const fn` / `static ref`-style only when a `fn`
                // follows eventually; `const X: T = ..;` is handled as
                // a plain skipped item below.
                if self.at_off(1, "fn") || (self.at("const") && self.at_off(1, "unsafe")) {
                    self.pos += 1;
                    continue;
                }
                self.pos += 1;
                self.skip_to_semi_or_brace();
                // `const X: [u8; N] = { .. };` style blocks.
                if self.at("{") {
                    self.pos += 1;
                    self.skip_balanced("{", "}");
                    self.eat(";");
                }
                return Item::Other;
            }
            if self.at("async") || self.at("unsafe") {
                self.pos += 1;
                continue;
            }
            if self.at("extern") && self.peek_at(1).is_some_and(|t| t.kind == TokKind::Lit) {
                self.pos += 2;
                continue;
            }
            break;
        }

        if self.at("fn") {
            return self.parse_fn(cfg);
        }
        if self.at("mod") {
            self.pos += 1;
            let name = self.bump().map(|t| t.text).unwrap_or_default();
            if self.eat("{") {
                let items = self.parse_items(true);
                self.eat("}");
                return Item::Mod { name, cfg, items };
            }
            self.eat(";");
            return Item::Other;
        }
        if self.at("impl") || self.at("trait") {
            self.pos += 1;
            if self.at("<") {
                self.skip_generics();
            }
            // Scan the header to the body `{`, tracking the self type.
            let mut angle = 0usize;
            let mut paren = 0usize;
            let mut after_for = false;
            let mut first = None;
            let mut for_name = None;
            while let Some(t) = self.peek() {
                if angle == 0 && paren == 0 && t.is("{") {
                    break;
                }
                if t.is("<") {
                    angle += 1;
                } else if t.is(">") {
                    angle = angle.saturating_sub(1);
                } else if t.is("(") {
                    paren += 1;
                } else if t.is(")") {
                    paren = paren.saturating_sub(1);
                } else if angle == 0 && paren == 0 {
                    if t.is("for") {
                        after_for = true;
                    } else if t.is("where") {
                        after_for = false; // names after `where` are bounds
                    } else if t.kind == TokKind::Ident && !t.is("dyn") {
                        if after_for && for_name.is_none() {
                            for_name = Some(t.text.clone());
                        } else if first.is_none() {
                            first = Some(t.text.clone());
                        }
                    }
                }
                self.pos += 1;
            }
            let type_name = for_name.or(first).unwrap_or_default();
            if self.eat("{") {
                let items = self.parse_items(true);
                self.eat("}");
                return Item::Impl {
                    type_name,
                    cfg,
                    items,
                };
            }
            return Item::Other;
        }
        if self.peek().is_some_and(|t| t.kind == TokKind::Ident) && self.at_off(1, "!") {
            // `name! { .. }` / `macro_rules! name { .. }` in item position:
            // the token tree is read as items, so the `fn`s of a macro
            // template are functions like any other.
            let mut name = self.bump().map(|t| t.text).unwrap_or_default();
            self.pos += 1;
            if self.peek().is_some_and(|t| t.kind == TokKind::Ident) {
                name = self.bump().map(|t| t.text).unwrap_or_default();
            }
            let Some((open, close)) = self.group_delims() else {
                return Item::Other;
            };
            self.pos += 1;
            let items = self.within_group(open, close, |p| p.parse_items(false));
            self.eat(";");
            return Item::Mod { name, cfg, items };
        }
        if ITEM_KEYWORDS.iter().any(|k| self.at(k)) || self.at("type") {
            // struct/enum/union/use/type/extern: skip to `;` or over the
            // balanced body.
            self.pos += 1;
            self.skip_to_semi_or_brace();
            if self.at("{") {
                self.pos += 1;
                self.skip_balanced("{", "}");
                self.eat(";");
            }
            return Item::Other;
        }
        // Recovery: drop one token so progress is guaranteed.
        self.pos += 1;
        Item::Other
    }

    fn parse_fn(&mut self, cfg: Option<String>) -> Item {
        let line = self.line();
        self.pos += 1; // `fn`
        let name = self
            .peek()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        if !name.is_empty() {
            self.pos += 1;
        }
        if self.at("<") {
            self.skip_generics();
        }
        let mut params = Vec::new();
        if self.eat("(") {
            let start = self.pos;
            self.skip_balanced("(", ")");
            let inner = &self.toks[start..self.pos.saturating_sub(1)];
            params = param_names(inner);
        }
        // Return type and where clause: skip to the body or `;`.
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            if t.is("(") || t.is("[") || t.is("<") {
                depth += 1;
            } else if t.is(")") || t.is("]") || t.is(">") {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && (t.is("{") || t.is(";")) {
                break;
            }
            self.pos += 1;
        }
        let outer = std::mem::take(&mut self.nested);
        let body = if self.at("{") {
            Some(self.parse_block())
        } else {
            self.eat(";");
            None
        };
        Item::Fn(FnItem {
            name,
            line,
            params,
            cfg_feature: cfg,
            body,
            nested: std::mem::replace(&mut self.nested, outer),
        })
    }

    // ---- statements / blocks ----------------------------------------

    /// Parses a `{ ... }` block; cursor must be on `{` (otherwise an
    /// empty block at the current line is returned).
    fn parse_block(&mut self) -> Block {
        let line = self.line();
        let mut stmts = Vec::new();
        if !self.eat("{") {
            return Block {
                line,
                is_unsafe: false,
                stmts,
            };
        }
        while !self.done() && !self.at("}") {
            let before = self.pos;
            if self.at(";") {
                self.pos += 1;
                continue;
            }
            // Attributes on a `let` or expression statement are dropped;
            // on an item they are the item's.
            let item_attrs = self.at("#") && {
                self.parse_attrs();
                let is_item = self.starts_item();
                if is_item {
                    self.pos = before;
                }
                is_item
            };
            if self.at("let") {
                stmts.push(self.parse_let());
            } else if item_attrs || self.starts_item() {
                let item = self.parse_one_item();
                self.nested.push(item);
            } else {
                let e = self.parse_expr(true);
                self.eat(";");
                stmts.push(Stmt::Expr(e));
            }
            if self.pos == before {
                // Recovery: guarantee progress.
                self.pos += 1;
            }
        }
        self.eat("}");
        Block {
            line,
            is_unsafe: false,
            stmts,
        }
    }

    /// Does the cursor start a nested item rather than an expression?
    fn starts_item(&self) -> bool {
        if self.at("pub") {
            return true;
        }
        if ITEM_KEYWORDS.iter().any(|k| self.at(k)) {
            // `extern` in expression position does not occur here.
            return true;
        }
        if self.at("unsafe")
            && (self.at_off(1, "fn") || self.at_off(1, "impl") || self.at_off(1, "trait"))
        {
            return true;
        }
        if (self.at("const") || self.at("static")) && !self.at_off(1, "{") {
            return true;
        }
        if self.at("type") && self.peek_at(1).is_some_and(|t| t.kind == TokKind::Ident) {
            return true;
        }
        false
    }

    fn parse_let(&mut self) -> Stmt {
        let line = self.line();
        self.pos += 1; // `let`
        let tuple = self.at("(");
        // Pattern: tokens to a depth-0 `=`, `:` or `;`.
        let start = self.pos;
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            if t.is("(") || t.is("[") {
                depth += 1;
            } else if t.is(")") || t.is("]") {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && (t.is("=") || t.is(":") || t.is(";") || t.is("{") || t.is("}"))
            {
                break;
            }
            self.pos += 1;
        }
        let pat = pattern_idents(&self.toks[start..self.pos]);
        if self.eat(":") {
            // Type annotation: skip to depth-0 `=` or `;`.
            let mut d = 0usize;
            while let Some(t) = self.peek() {
                if t.is("(") || t.is("[") || t.is("<") {
                    d += 1;
                } else if t.is(")") || t.is("]") || t.is(">") {
                    d = d.saturating_sub(1);
                } else if d == 0 && (t.is("=") || t.is(";") || t.is("}")) {
                    break;
                }
                self.pos += 1;
            }
        }
        let init = if self.eat("=") {
            Some(self.parse_expr(true))
        } else {
            None
        };
        let else_block = if self.at("else") && self.at_off(1, "{") {
            self.pos += 1;
            Some(self.parse_block())
        } else {
            None
        };
        self.eat(";");
        Stmt::Let {
            pat,
            tuple,
            init,
            else_block,
            line,
        }
    }

    // ---- expressions -------------------------------------------------

    /// Full expression; `allow_struct` gates `Path { .. }` literals
    /// (false in `if`/`while`/`match`/`for` heads).
    fn parse_expr(&mut self, allow_struct: bool) -> Expr {
        let lhs = self.parse_binary(allow_struct);
        if let Some(t) = self.peek() {
            let is_assign = t.is("=")
                || ["+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>="]
                    .iter()
                    .any(|op| t.is(op));
            if is_assign {
                let line = t.line;
                self.pos += 1;
                let rhs = self.parse_expr(allow_struct);
                return Expr::Assign {
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                };
            }
        }
        lhs
    }

    /// Flat left-associative binary fold. Operator precedence is
    /// irrelevant to the passes; what matters is that comparisons of
    /// simple symbols (`s1 < s2`) survive structurally.
    fn parse_binary(&mut self, allow_struct: bool) -> Expr {
        let mut lhs = self.parse_unary(allow_struct);
        while let Some(t) = self.peek().cloned() {
            if t.is("as") {
                // Cast: transparent to the analysis; skip the type.
                self.pos += 1;
                self.skip_type_tokens();
                continue;
            }
            let op = [
                "||", "&&", "==", "!=", "<=", ">=", "<", ">", "+", "-", "*", "/", "%", "^", "&",
                "|", "..=", "..",
            ]
            .iter()
            .find(|o| t.is(o))
            .copied();
            let Some(op) = op else { break };
            let line = t.line;
            self.pos += 1;
            // After an operand, `<` `<` is a shift (the lexer leaves it
            // split), never a qualified path's generic-argument opener.
            let op = match op {
                "<" if self.eat("<") => "<<",
                ">" if self.eat(">") => ">>",
                op => op,
            };
            let rhs = if (op == ".." || op == "..=") && !self.starts_expr() {
                Expr::Unknown(line)
            } else {
                self.parse_unary(allow_struct)
            };
            lhs = Expr::Binary {
                op: op.to_string(),
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    /// Can the current token begin an expression?
    fn starts_expr(&self) -> bool {
        match self.peek() {
            None => false,
            Some(t) => {
                !(t.is(";") || t.is(",") || t.is(")") || t.is("]") || t.is("}") || t.is("=>"))
            }
        }
    }

    /// Skips the token run of a type after `as` (idents, paths, `*`,
    /// `&`, `mut`, `const`, `dyn`, lifetimes, balanced `<>`).
    fn skip_type_tokens(&mut self) {
        while let Some(t) = self.peek() {
            if t.is("<") {
                self.skip_generics();
            } else if t.kind == TokKind::Ident || t.kind == TokKind::Lifetime {
                if t.is("as") {
                    return;
                }
                self.pos += 1;
            } else if t.is("*") || t.is("&") || t.is("::") {
                self.pos += 1;
            } else {
                return;
            }
        }
    }

    fn parse_unary(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        if self.eat("*") {
            return Expr::Deref(Box::new(self.parse_unary(allow_struct)), line);
        }
        if self.eat("&") {
            self.eat("mut");
            return Expr::Ref(Box::new(self.parse_unary(allow_struct)), line);
        }
        if self.eat("&&") {
            self.eat("mut");
            return Expr::Ref(
                Box::new(Expr::Ref(Box::new(self.parse_unary(allow_struct)), line)),
                line,
            );
        }
        if self.eat("!") || self.eat("-") {
            return Expr::Unary(Box::new(self.parse_unary(allow_struct)), line);
        }
        if self.at("move") && (self.at_off(1, "|") || self.at_off(1, "||")) {
            self.pos += 1;
        }
        if self.at("..") || self.at("..=") {
            self.pos += 1;
            if self.starts_expr() {
                return Expr::Binary {
                    op: "..".into(),
                    lhs: Box::new(Expr::Unknown(line)),
                    rhs: Box::new(self.parse_unary(allow_struct)),
                    line,
                };
            }
            return Expr::Unknown(line);
        }
        self.parse_postfix(allow_struct)
    }

    fn parse_postfix(&mut self, allow_struct: bool) -> Expr {
        let mut e = self.parse_primary(allow_struct);
        while let Some(t) = self.peek().cloned() {
            if t.is(".") {
                let line = t.line;
                self.pos += 1;
                let Some(n) = self.peek().cloned() else { break };
                if n.kind == TokKind::Lit {
                    // Tuple field `.0`.
                    self.pos += 1;
                    e = Expr::Field {
                        base: Box::new(e),
                        name: n.text,
                        line,
                    };
                    continue;
                }
                if n.kind != TokKind::Ident {
                    break;
                }
                self.pos += 1;
                if self.at("::") && self.at_off(1, "<") {
                    self.pos += 1;
                    self.skip_generics();
                }
                if self.at("(") {
                    let args = self.parse_call_args();
                    e = Expr::MethodCall {
                        recv: Box::new(e),
                        method: n.text,
                        args,
                        line,
                    };
                } else {
                    e = Expr::Field {
                        base: Box::new(e),
                        name: n.text,
                        line,
                    };
                }
            } else if t.is("(") {
                let line = t.line;
                let args = self.parse_call_args();
                e = Expr::Call {
                    callee: Box::new(e),
                    args,
                    line,
                };
            } else if t.is("[") {
                let line = t.line;
                self.pos += 1;
                let index = self.parse_expr(true);
                self.eat("]");
                e = Expr::Index {
                    base: Box::new(e),
                    index: Box::new(index),
                    line,
                };
            } else if t.is("?") {
                let line = t.line;
                self.pos += 1;
                e = Expr::Try(Box::new(e), line);
            } else {
                break;
            }
        }
        e
    }

    /// Parses `( args )`; cursor on `(`.
    fn parse_call_args(&mut self) -> Vec<Expr> {
        self.eat("(");
        let args = self.parse_expr_list(")");
        self.eat(")");
        args
    }

    /// Comma-separated expressions (`;` too: `[x; n]`, `vec![x; n]`) up to
    /// an unconsumed `close` or the cursor's end.
    fn parse_expr_list(&mut self, close: &str) -> Vec<Expr> {
        let mut items = Vec::new();
        while !self.done() && !self.at(close) {
            let before = self.pos;
            items.push(self.parse_expr(true));
            if !self.eat(",") {
                self.eat(";");
            }
            if self.pos == before {
                self.pos += 1;
            }
        }
        items
    }

    fn parse_primary(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        let Some(t) = self.peek().cloned() else {
            return Expr::Unknown(line);
        };

        if t.kind == TokKind::Lit {
            self.pos += 1;
            return Expr::Lit(t.text, line);
        }
        if t.kind == TokKind::Lifetime {
            // Loop label `'a: loop { .. }`.
            self.pos += 1;
            self.eat(":");
            return self.parse_primary(allow_struct);
        }
        if t.is("(") {
            self.pos += 1;
            if self.eat(")") {
                return Expr::Tuple(Vec::new(), line);
            }
            let mut items = Vec::new();
            let mut trailing = false;
            while !self.done() && !self.at(")") {
                let before = self.pos;
                items.push(self.parse_expr(true));
                trailing = self.eat(",");
                if self.pos == before {
                    self.pos += 1;
                }
            }
            self.eat(")");
            if items.len() == 1 && !trailing {
                return items.pop().unwrap_or(Expr::Unknown(line));
            }
            return Expr::Tuple(items, line);
        }
        if t.is("[") {
            self.pos += 1;
            let items = self.parse_expr_list("]");
            self.eat("]");
            return Expr::Array(items, line);
        }
        if t.is("{") {
            return Expr::Block(self.parse_block());
        }
        if t.is("unsafe") && self.at_off(1, "{") {
            self.pos += 1;
            let mut b = self.parse_block();
            b.is_unsafe = true;
            return Expr::Block(b);
        }
        if t.is("if") {
            return self.parse_if();
        }
        if t.is("match") {
            return self.parse_match();
        }
        if t.is("loop") {
            self.pos += 1;
            return Expr::Loop(self.parse_block(), line);
        }
        if t.is("while") {
            self.pos += 1;
            if self.at("let") {
                self.pos += 1;
                self.skip_pattern_to_eq();
                self.eat("=");
            }
            let cond = self.parse_expr(false);
            let body = self.parse_block();
            return Expr::While {
                cond: Box::new(cond),
                body,
                line,
            };
        }
        if t.is("for") {
            self.pos += 1;
            // Pattern to a depth-0 `in`.
            let start = self.pos;
            let mut depth = 0usize;
            while let Some(t) = self.peek() {
                if t.is("(") || t.is("[") {
                    depth += 1;
                } else if t.is(")") || t.is("]") {
                    depth = depth.saturating_sub(1);
                } else if depth == 0 && (t.is("in") || t.is("{") || t.is("}")) {
                    break;
                }
                self.pos += 1;
            }
            let pat = pattern_idents(&self.toks[start..self.pos]);
            self.eat("in");
            let iter = self.parse_expr(false);
            let body = self.parse_block();
            return Expr::For {
                pat,
                iter: Box::new(iter),
                body,
                line,
            };
        }
        if t.is("return") {
            self.pos += 1;
            let e = if self.starts_expr() {
                Some(Box::new(self.parse_expr(allow_struct)))
            } else {
                None
            };
            return Expr::Return(e, line);
        }
        if t.is("break") {
            self.pos += 1;
            if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                self.pos += 1;
            }
            if self.starts_expr() && !self.at("{") {
                // Break-with-value: parse and drop the payload.
                let _ = self.parse_expr(allow_struct);
            }
            return Expr::Break(line);
        }
        if t.is("continue") {
            self.pos += 1;
            if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                self.pos += 1;
            }
            return Expr::Continue(line);
        }
        if t.is("|") || t.is("||") {
            return self.parse_closure();
        }
        if t.is("<") {
            // Qualified path `<T as Trait>::seg::seg`.
            self.skip_generics();
            let mut segs = Vec::new();
            while self.at("::") {
                self.pos += 1;
                if self.at("<") {
                    self.skip_generics();
                    continue;
                }
                match self.peek() {
                    Some(t) if t.kind == TokKind::Ident => {
                        segs.push(t.text.clone());
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            if segs.is_empty() {
                segs.push(String::new());
            }
            return Expr::Path(segs, line);
        }
        if t.kind == TokKind::Ident {
            return self.parse_path_expr(allow_struct);
        }
        // Recovery.
        self.pos += 1;
        Expr::Unknown(line)
    }

    fn parse_if(&mut self) -> Expr {
        let line = self.line();
        self.pos += 1; // `if`
        let if_let = self.at("let");
        if if_let {
            self.pos += 1;
            self.skip_pattern_to_eq();
            self.eat("=");
        }
        let cond = self.parse_expr(false);
        let then = self.parse_block();
        let else_ = if self.eat("else") {
            if self.at("if") {
                Some(Box::new(self.parse_if()))
            } else {
                Some(Box::new(Expr::Block(self.parse_block())))
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            if_let,
            then,
            else_,
            line,
        }
    }

    /// Skips a `let`-pattern up to its depth-0 `=`.
    fn skip_pattern_to_eq(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            if t.is("(") || t.is("[") {
                depth += 1;
            } else if t.is(")") || t.is("]") {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && (t.is("=") || t.is("{") || t.is("}")) {
                return;
            }
            self.pos += 1;
        }
    }

    fn parse_match(&mut self) -> Expr {
        let line = self.line();
        self.pos += 1; // `match`
        let scrut = self.parse_expr(false);
        let mut arms = Vec::new();
        if !self.eat("{") {
            return Expr::Match {
                scrut: Box::new(scrut),
                arms,
                line,
            };
        }
        while !self.done() && !self.at("}") {
            let before = self.pos;
            self.eat("|");
            // Pattern tokens to a depth-0 `=>` or guard `if`.
            let start = self.pos;
            let mut depth = 0usize;
            while let Some(t) = self.peek() {
                if t.is("(") || t.is("[") || t.is("{") {
                    depth += 1;
                } else if t.is(")") || t.is("]") || t.is("}") {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                } else if depth == 0 && (t.is("=>") || t.is("if")) {
                    break;
                }
                self.pos += 1;
            }
            let pat: Vec<String> = self.toks[start..self.pos]
                .iter()
                .map(|t| t.text.clone())
                .collect();
            let guard = if self.eat("if") {
                Some(self.parse_expr(true))
            } else {
                None
            };
            self.eat("=>");
            let body = self.parse_expr(true);
            self.eat(",");
            arms.push(Arm {
                pat: pat.join(" "),
                guard,
                body,
            });
            if self.pos == before {
                self.pos += 1;
            }
        }
        self.eat("}");
        Expr::Match {
            scrut: Box::new(scrut),
            arms,
            line,
        }
    }

    fn parse_closure(&mut self) -> Expr {
        let line = self.line();
        let mut params = Vec::new();
        if self.eat("||") {
            // Zero-parameter closure.
        } else {
            self.eat("|");
            let start = self.pos;
            let mut depth = 0usize;
            while let Some(t) = self.peek() {
                if t.is("(") || t.is("[") || t.is("<") {
                    depth += 1;
                } else if t.is(")") || t.is("]") || t.is(">") {
                    depth = depth.saturating_sub(1);
                } else if depth == 0 && (t.is("|") || t.is("{") || t.is("}")) {
                    break;
                }
                self.pos += 1;
            }
            params = param_names(&self.toks[start..self.pos]);
            self.eat("|");
        }
        if self.eat("->") {
            // Explicit return type: body must be a block.
            let mut depth = 0usize;
            while let Some(t) = self.peek() {
                if t.is("(") || t.is("[") || t.is("<") {
                    depth += 1;
                } else if t.is(")") || t.is("]") || t.is(">") {
                    depth = depth.saturating_sub(1);
                } else if depth == 0 && t.is("{") {
                    break;
                }
                self.pos += 1;
            }
        }
        let body = self.parse_expr(true);
        Expr::Closure {
            params,
            body: Box::new(body),
            line,
        }
    }

    /// Path expression, possibly a macro call or struct literal.
    fn parse_path_expr(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        let mut segs = Vec::new();
        if let Some(t) = self.peek() {
            segs.push(t.text.clone());
            self.pos += 1;
        }
        while self.at("::") {
            if self.at_off(1, "<") {
                self.pos += 1;
                self.skip_generics();
                continue;
            }
            match self.peek_at(1) {
                Some(t) if t.kind == TokKind::Ident => {
                    segs.push(t.text.clone());
                    self.pos += 2;
                }
                _ => break,
            }
        }
        if self.at("!") && !self.at_off(1, "=") {
            // Macro call: read the arguments as a comma-separated
            // expression list.
            self.pos += 1;
            let name = segs.last().cloned().unwrap_or_default();
            let mut args = Vec::new();
            if let Some((open, close)) = self.group_delims() {
                self.pos += 1;
                args = self.within_group(open, close, |p| p.parse_expr_list(""));
            }
            return Expr::Macro {
                name,
                args: Box::new(Expr::Tuple(args, line)),
                line,
            };
        }
        if allow_struct && self.at("{") && struct_lit_head(&segs) {
            self.pos += 1;
            let mut fields = Vec::new();
            while !self.done() && !self.at("}") {
                let before = self.pos;
                if self.at("..") {
                    self.pos += 1;
                    let e = self.parse_expr(true);
                    fields.push(("..".to_string(), e));
                } else if self
                    .peek()
                    .is_some_and(|t| t.kind == TokKind::Ident || t.kind == TokKind::Lit)
                {
                    let name = self.bump().map(|t| t.text).unwrap_or_default();
                    if self.eat(":") {
                        let e = self.parse_expr(true);
                        fields.push((name, e));
                    } else {
                        // Shorthand `Foo { x }`.
                        fields.push((name.clone(), Expr::Path(vec![name], line)));
                    }
                }
                self.eat(",");
                if self.pos == before {
                    self.pos += 1;
                }
            }
            self.eat("}");
            return Expr::StructLit {
                name: segs.last().cloned().unwrap_or_default(),
                fields,
                line,
            };
        }
        Expr::Path(segs, line)
    }
}

/// Should `Path { ... }` parse as a struct literal? Only when the last
/// segment looks like a type (`Uppercase` or `Self`), which matches the
/// workspace's style and avoids eating `match x { .. }`-style blocks
/// after lowercase bindings.
fn struct_lit_head(segs: &[String]) -> bool {
    segs.last()
        .and_then(|s| s.chars().next())
        .is_some_and(|c| c.is_uppercase())
}

/// Extracts bound identifier names from a parameter list / closure
/// parameter token run: identifiers before the `:` of each comma-
/// separated parameter, minus pattern keywords.
fn param_names(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut in_type = false;
    for t in toks {
        if t.is("(") || t.is("[") || t.is("<") {
            depth += 1;
        } else if t.is(")") || t.is("]") || t.is(">") {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is(",") {
            in_type = false;
        } else if depth == 0 && t.is(":") {
            in_type = true;
        } else if !in_type && t.kind == TokKind::Ident && is_binding_ident(&t.text) {
            out.push(t.text.clone());
        }
    }
    out
}

/// Extracts bound identifiers from a pattern token run (the `let` /
/// `for` heuristic): lowercase-or-underscore-start identifiers that are
/// not pattern keywords; uppercase names are variants/types.
fn pattern_idents(toks: &[Tok]) -> Vec<String> {
    toks.iter()
        .filter(|t| t.kind == TokKind::Ident && is_binding_ident(&t.text))
        .map(|t| t.text.clone())
        .collect()
}

fn is_binding_ident(s: &str) -> bool {
    if s == "_" || s == "mut" || s == "ref" || s == "box" || s == "self" {
        return s == "self";
    }
    s.chars()
        .next()
        .is_some_and(|c| c.is_lowercase() || c == '_')
        && s != "_"
}

/// Extracts the `cfg` marker from one attribute's inner token run.
fn cfg_marker(toks: &[Tok]) -> Option<String> {
    if let [t] = toks {
        return t.is("test").then(|| "test".into());
    }
    if toks.first().map(|t| t.text.as_str()) != Some("cfg") {
        return None;
    }
    // `cfg ( feature = "name" )` anywhere in the predicate.
    for w in toks.windows(3) {
        if w[0].is("feature") && w[1].is("=") && w[2].kind == TokKind::Lit {
            return Some(w[2].text.trim_matches('"').to_string());
        }
    }
    if toks.iter().any(|t| t.is("test")) {
        return Some("test".into());
    }
    // First predicate identifier (`miri`, `debug_assertions`, ...).
    toks.iter()
        .skip(1)
        .find(|t| t.kind == TokKind::Ident && !t.is("all") && !t.is("any") && !t.is("not"))
        .map(|t| t.text.clone())
}

#[cfg(test)]
mod tests {
    use super::super::ast::{dump_items, for_each_fn, Expr, Item, Stmt};
    use super::parse_file;

    fn first_fn(src: &str) -> super::FnItem {
        let items = parse_file(src).items;
        for it in items {
            if let Item::Fn(f) = it {
                return f;
            }
            if let Item::Impl { items, .. } = it {
                for it in items {
                    if let Item::Fn(f) = it {
                        return f;
                    }
                }
            }
        }
        panic!("no fn parsed");
    }

    #[test]
    fn fn_params_and_body() {
        let f = first_fn("pub fn get(&self, key: u64) -> Option<u64> { self.map.get(key) }");
        assert_eq!(f.name, "get");
        assert_eq!(f.params, ["self", "key"]);
        let body = f.body.expect("body");
        assert_eq!(body.stmts.len(), 1);
    }

    #[test]
    fn method_chain_shape() {
        let f = first_fn("fn f(&self) { self.shards[i].lock.execute(|ctx| ctx.read()); }");
        let body = f.body.unwrap();
        let Stmt::Expr(Expr::MethodCall {
            method, recv, args, ..
        }) = &body.stmts[0]
        else {
            panic!("expected method call, got {:?}", body.stmts[0]);
        };
        assert_eq!(method, "execute");
        let Expr::Field { base, name, .. } = &**recv else {
            panic!("expected `<..>.lock`, got {recv:?}");
        };
        assert_eq!(name, "lock");
        let Expr::Index { base, .. } = &**base else {
            panic!("expected `<..>.shards[i]`, got {base:?}");
        };
        assert!(matches!(&**base, Expr::Field { name, .. } if name == "shards"));
        assert!(matches!(args[0], Expr::Closure { .. }));
    }

    #[test]
    fn swap_pattern_survives() {
        let f = first_fn(
            "fn t(&self, s1: usize, s2: usize) {\n                let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };\n                self.with_shards_locked(&[lo, hi], |g| g.len());\n            }",
        );
        let body = f.body.unwrap();
        let Stmt::Let {
            pat, tuple, init, ..
        } = &body.stmts[0]
        else {
            panic!("expected let");
        };
        assert_eq!(pat, &["lo", "hi"]);
        assert!(tuple);
        let Some(Expr::If { cond, .. }) = init else {
            panic!("if init")
        };
        let Expr::Binary { op, lhs, rhs, .. } = &**cond else {
            panic!("cmp cond")
        };
        assert_eq!(op, "<");
        assert!(matches!(&**lhs, Expr::Path(p, _) if p == &["s1"]));
        assert!(matches!(&**rhs, Expr::Path(p, _) if p == &["s2"]));
    }

    #[test]
    fn cfg_feature_attr_is_captured() {
        let src = "#[cfg(feature = \"mutant-publication\")]\npub fn bad(&self) {}";
        let f = first_fn(src);
        assert_eq!(f.cfg_feature.as_deref(), Some("mutant-publication"));
    }

    #[test]
    fn cfg_test_mod_marks_fns() {
        let src = "#[cfg(test)]\nmod tests { fn helper() {} }\nfn real() {}";
        let items = parse_file(src).items;
        let mut seen = Vec::new();
        for_each_fn(&items, &mut |f, cfg| {
            seen.push((f.name.clone(), cfg.map(str::to_string)))
        });
        assert_eq!(
            seen,
            [
                ("helper".to_string(), Some("test".to_string())),
                ("real".to_string(), None)
            ]
        );
    }

    #[test]
    fn match_with_guards() {
        let f = first_fn(
            "fn m(x: Option<u32>) -> u32 { match x { Some(v) if v > 3 => v, Some(v) => v + 1, None => 0 } }",
        );
        let body = f.body.unwrap();
        let Stmt::Expr(Expr::Match { arms, .. }) = &body.stmts[0] else {
            panic!("match");
        };
        assert_eq!(arms.len(), 3);
        assert!(arms[0].guard.is_some());
        assert!(arms[1].guard.is_none());
    }

    #[test]
    fn macros_and_generics_skip_conservatively() {
        let f = first_fn(
            "fn g<T: Clone, const N: usize>(v: Vec<T>) { debug_assert!(idxs.windows(2).all(|w| w[0] < w[1]), \"ascending\"); }",
        );
        assert_eq!(f.params, ["v"]);
        let body = f.body.unwrap();
        let Stmt::Expr(Expr::Macro { name, args, .. }) = &body.stmts[0] else {
            panic!("macro");
        };
        assert_eq!(name, "debug_assert");
        let Expr::Tuple(items, _) = &**args else {
            panic!("macro arguments read as a list");
        };
        assert_eq!(items.len(), 2, "{items:?}");
        assert!(matches!(&items[0], Expr::MethodCall { method, .. } if method == "all"));
    }

    #[test]
    fn struct_literals_and_no_struct_contexts() {
        let f = first_fn("fn s() -> P { if x < y { return P { a: 1, b: 2 }; } P { a: 0, ..d } }");
        let body = f.body.unwrap();
        assert_eq!(body.stmts.len(), 2);
        let Stmt::Expr(Expr::If { .. }) = &body.stmts[0] else {
            panic!("if parsed as {:?}", body.stmts[0]);
        };
        let Stmt::Expr(Expr::StructLit { name, fields, .. }) = &body.stmts[1] else {
            panic!("struct lit");
        };
        assert_eq!(name, "P");
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn closures_nested_and_loops() {
        let src = "fn n(&self, idxs: &[usize]) {\n            for i in 0..idxs.len() {\n                let g = idxs.iter().map(|&i| self.shards[i].lock.lock_section());\n            }\n            while let Some(x) = it.next() { drop(x); }\n            'outer: loop { break 'outer; }\n        }";
        let f = first_fn(src);
        let dump = dump_items(&parse_file(src).items);
        assert!(dump.contains("for [i]"), "{dump}");
        assert!(dump.contains("closure |i|"), "{dump}");
        assert!(dump.contains("while"), "{dump}");
        assert!(dump.contains("loop"), "{dump}");
        assert_eq!(f.params, ["self", "idxs"]);
    }

    #[test]
    fn whole_workspace_files_parse_without_panic() {
        // Smoke: the parser must digest every real source file in the
        // workspace without panicking and find at least one fn in each
        // library root.
        let root = crate::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        for dir in ["crates/core/src", "crates/htm/src", "crates/shard/src"] {
            let d = root.join(dir);
            let Ok(rd) = std::fs::read_dir(&d) else {
                continue;
            };
            for entry in rd.flatten() {
                let p = entry.path();
                if p.extension().and_then(|e| e.to_str()) != Some("rs") {
                    continue;
                }
                let text = std::fs::read_to_string(&p).unwrap();
                let items = parse_file(&text).items;
                let mut fns = 0usize;
                for_each_fn(&items, &mut |_, _| fns += 1);
                // Re-export-only roots legitimately have no fns.
                if text.contains("fn ") {
                    assert!(fns > 0, "no fns parsed from {}", p.display());
                }
            }
        }
    }

    fn fn_names(src: &str) -> Vec<(String, Option<String>)> {
        let parsed = parse_file(src);
        let mut seen = Vec::new();
        for_each_fn(&parsed.items, &mut |f, cfg| {
            seen.push((f.name.clone(), cfg.map(str::to_string)))
        });
        seen
    }

    fn names_only(src: &str) -> Vec<String> {
        fn_names(src).into_iter().map(|(n, _)| n).collect()
    }

    #[test]
    fn shift_after_an_operand_is_an_operator() {
        // `x << 1` used to open a generic-argument list that ran to the
        // next `>` in the file, swallowing every function on the way.
        assert_eq!(
            names_only("fn a(x: u64) -> u64 { x << 1 } fn b() {} fn d() {}"),
            ["a", "b", "d"]
        );
        assert_eq!(names_only("fn a(x: u64) -> u64 { (x >> 1) | (x << 63) } fn b() -> Vec<Vec<u8>> { Vec::<Vec<u8>>::new() } fn d() {}"), ["a", "b", "d"]);
        let f = first_fn("fn a(x: u64) -> bool { x << 1 < y }");
        let Stmt::Expr(Expr::Binary { op, lhs, .. }) = &f.body.unwrap().stmts[0] else {
            panic!("binary")
        };
        assert_eq!(op, "<");
        assert!(matches!(&**lhs, Expr::Binary { op, .. } if op == "<<"));
    }

    #[test]
    fn trait_default_bodies_and_nested_items_are_functions() {
        let src = "pub trait Tm: Sync { fn name(&self) -> &str; fn write(&self, v: u64) { self.enter(); } }\n\
                   fn outer() { struct A; impl Drop for A { fn drop(&mut self) { g(); } } \
                   let c = || { fn deep() {} deep() }; fn sub() {} }";
        assert_eq!(
            names_only(src),
            ["name", "write", "outer", "drop", "deep", "sub"]
        );
    }

    #[test]
    fn macro_token_trees_are_read() {
        // Expression position: the arguments are expressions too.
        let f = first_fn("fn f(&self) -> Vec<u64> { vec![self.a.load(Relaxed), 2] }");
        let Stmt::Expr(Expr::Macro { name, args, .. }) = &f.body.unwrap().stmts[0] else {
            panic!("macro")
        };
        let Expr::Tuple(args, _) = &**args else {
            panic!("tuple")
        };
        assert_eq!((name.as_str(), args.len()), ("vec", 2));
        assert!(matches!(&args[0], Expr::MethodCall { method, .. } if method == "load"));
        // Item position: a template's functions are functions, and the
        // reading cannot leave the macro's braces.
        let src = "macro_rules! imp { ($t:ty) => { impl W for $t { fn to_word(self) -> u64 { self as u64 } } }; }\n\
                   imp!(u8);\nthread_local! { static T: Cell<u8> = const { Cell::new(0) }; }\nfn after() {}";
        assert_eq!(names_only(src), ["to_word", "after"]);
    }

    #[test]
    fn test_markers_cover_impls_test_fns_and_everything_inside() {
        let src = "#[cfg(test)]\nimpl X { #[cfg(debug_assertions)] fn a() {} }\n#[test]\nfn b() { fn c() {} }\n\
                   #[cfg(feature = \"mutant-x\")]\nfn m() { fn inner() {} }\nfn real() {}";
        let t = Some("test".to_string());
        let m = Some("mutant-x".to_string());
        assert_eq!(
            fn_names(src),
            [
                ("a".into(), t.clone()),
                ("b".into(), t.clone()),
                ("c".into(), t),
                ("m".into(), m.clone()),
                ("inner".into(), m),
                ("real".into(), None)
            ]
        );
        let parsed = parse_file(src);
        let tok = |text: &str| parsed.toks.iter().position(|t| t.is(text)).unwrap();
        assert!(parsed.in_test(tok("a")) && parsed.in_test(tok("c")));
        assert!(!parsed.in_test(tok("inner")) && !parsed.in_test(tok("real")));
    }

    #[test]
    fn statement_attributes_keep_the_statement() {
        let f = first_fn(
            "fn f() { #[cfg(not(feature = \"m\"))] let adv = wv != rv + 2; #[cfg(feature = \"m\")] let adv = false; if adv { g(); } }",
        );
        let body = f.body.unwrap();
        assert_eq!(body.stmts.len(), 3, "{body:?}");
        assert!(matches!(&body.stmts[0], Stmt::Let { pat, .. } if pat == &["adv"]));
        assert!(matches!(&body.stmts[2], Stmt::Expr(Expr::If { .. })));
    }
}
