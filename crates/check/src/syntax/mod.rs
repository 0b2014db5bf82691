//! Rust-subset syntax layer: lexer, AST, and recursive-descent parser.
//!
//! This is the one reading of the source every pass shares (the back
//! half is [`crate::cfg`] and [`crate::passes`]): each file is lexed and
//! parsed once into a [`ParsedFile`]. The parser is deliberately lossy —
//! types, generics, and most patterns are skipped — but control flow,
//! closures, call/method chains, and `cfg` attributes are kept
//! faithfully, which is exactly the subset the concurrency passes need,
//! and it never loses a function (`tests/conservation.rs`).

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::{dump_items, for_each_fn, Arm, Block, Expr, FnItem, Item, Stmt};
pub use lexer::{Comments, Tok, TokKind};
pub use parser::{parse_file, ParsedFile};
