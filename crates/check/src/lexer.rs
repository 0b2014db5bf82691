//! Token-level lexer: the one reading of the source the ordering pass
//! needs.
//!
//! Produces a flat token stream with line numbers, and the comments as
//! line-tagged trivia beside it ([`Comments`], which answers every
//! `// ordering:` lookup). String/char literals become a single `Lit`
//! token carrying their source text, so token-level patterns cannot match
//! inside them. [`test_mask`] marks the tokens of test-only items.

/// Token kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `self`, `shards`, ...).
    Ident,
    /// Lifetime (`'a`) or loop label.
    Lifetime,
    /// Any literal: string, raw string, char, number, byte string.
    Lit,
    /// Punctuation; multi-character operators are joined (`::`, `->`,
    /// `=>`, `..=`, `..`, `&&`, `||`, `==`, `!=`, `<=`, `>=`, compound
    /// assignments). `<<`/`>>` are left as two tokens.
    Punct,
}

/// One token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Kind.
    pub kind: TokKind,
    /// Source text (literal contents collapsed to `""`/`0`).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
}

impl Tok {
    /// Is this exactly the punctuation/identifier `s`?
    pub fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// The comments of one file, by line, and which lines carry code.
#[derive(Debug, Default)]
pub struct Comments {
    /// Index 0 = line 1: the comment text on the line (`//` tails and
    /// block-comment content), and whether a token other than an
    /// attribute's `#` starts it.
    lines: Vec<(String, bool)>,
}

impl Comments {
    fn line_mut(&mut self, line: usize) -> &mut (String, bool) {
        if self.lines.len() < line {
            self.lines.resize(line, Default::default());
        }
        &mut self.lines[line - 1]
    }

    /// The text after `needle` in a comment on `line` (1-based) or the
    /// three lines above it, or anywhere in the contiguous
    /// comment/attribute block immediately above (so multi-line
    /// annotations of any length count, up to a sanity cap).
    pub fn annotation(&self, line: usize, needle: &str) -> Option<&str> {
        let grab = |i: usize| {
            let comment = &self.lines.get(i)?.0;
            let at = comment.find(needle)?;
            Some(comment[at + needle.len()..].trim())
        };
        let idx = line.saturating_sub(1);
        (idx.saturating_sub(3)..=idx).find_map(grab).or_else(|| {
            (0..idx)
                .rev()
                .take(32)
                .take_while(|&i| !self.lines.get(i).is_some_and(|l| l.1))
                .find_map(grab)
        })
    }
}

/// Multi-char operators, longest first. `<<`/`>>` intentionally absent.
const MULTI_PUNCT: &[&str] = &[
    "..=", "<<=", ">>=", "::", "->", "=>", "..", "&&", "||", "==", "!=", "<=", ">=", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Lexes `text` into tokens and comments. Never fails: unrecognized bytes
/// are skipped.
pub fn lex(text: &str) -> (Vec<Tok>, Comments) {
    let b: Vec<char> = text.chars().collect();
    let mut toks: Vec<Tok> = Vec::new();
    let mut comments = Comments::default();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&'/') => {
                let from = i + 2;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                comments.line_mut(line).0.extend(&b[from.min(i)..i]);
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        comments.line_mut(line).0.push(b[i]);
                        i += 1;
                    }
                }
            }
            '"' => {
                let start = line;
                let from = i;
                i += 1;
                while i < b.len() {
                    match b[i] {
                        '\\' => i += 2,
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        '"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: b[from..i.min(b.len())].iter().collect(),
                    line: start,
                });
            }
            'r' | 'b' if is_raw_or_byte_string(&b, i) => {
                let start = line;
                let from = i;
                // Skip prefix letters, count hashes, then scan to the
                // matching `"#...#` close.
                while i < b.len() && (b[i] == 'r' || b[i] == 'b') {
                    i += 1;
                }
                let mut hashes = 0usize;
                while b.get(i) == Some(&'#') {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // opening quote
                while i < b.len() {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '"'
                        && b[i + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&c| c == '#')
                            .count()
                            == hashes
                    {
                        i += 1 + hashes;
                        break;
                    } else {
                        i += 1;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: b[from..i.min(b.len())].iter().collect(),
                    line: start,
                });
            }
            '\'' => {
                // Char literal vs. lifetime/label.
                let close = if b.get(i + 1) == Some(&'\\') {
                    // The escaped character may itself be a quote (`'\''`).
                    b.iter()
                        .skip(i + 3)
                        .position(|&c| c == '\'')
                        .map(|p| i + 3 + p)
                } else if b.get(i + 2) == Some(&'\'') && b.get(i + 1) != Some(&'\'') {
                    Some(i + 2)
                } else {
                    None
                };
                match close {
                    Some(end) => {
                        toks.push(Tok {
                            kind: TokKind::Lit,
                            text: "' '".into(),
                            line,
                        });
                        i = end + 1;
                    }
                    None => {
                        let mut j = i + 1;
                        let mut name = String::from("'");
                        while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                            name.push(b[j]);
                            j += 1;
                        }
                        toks.push(Tok {
                            kind: TokKind::Lifetime,
                            text: name,
                            line,
                        });
                        i = j;
                    }
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                let mut text = String::new();
                while j < b.len()
                    && (b[j].is_alphanumeric()
                        || b[j] == '_'
                        || (b[j] == '.'
                            && b.get(j + 1).is_some_and(|d| d.is_ascii_digit())
                            && !text.contains('.')))
                {
                    // Stop before `..` range operators.
                    if b[j] == '.' && b.get(j + 1) == Some(&'.') {
                        break;
                    }
                    text.push(b[j]);
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text,
                    line,
                });
                i = j;
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut j = i;
                let mut text = String::new();
                while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                    text.push(b[j]);
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line,
                });
                i = j;
            }
            _ => {
                let rest: String = b[i..b.len().min(i + 3)].iter().collect();
                let mut matched = None;
                for op in MULTI_PUNCT {
                    if rest.starts_with(op) {
                        matched = Some(*op);
                        break;
                    }
                }
                match matched {
                    Some(op) => {
                        toks.push(Tok {
                            kind: TokKind::Punct,
                            text: op.to_string(),
                            line,
                        });
                        i += op.len();
                    }
                    None => {
                        toks.push(Tok {
                            kind: TokKind::Punct,
                            text: c.to_string(),
                            line,
                        });
                        i += 1;
                    }
                }
            }
        }
    }
    let mut last = 0;
    for t in &toks {
        if t.line != last {
            last = t.line;
            comments.line_mut(last).1 = !t.is("#");
        }
    }
    (toks, comments)
}

/// Which tokens belong to test-only code: an item under `#[test]` or
/// `#[cfg(test)]`, from its first attribute to its closing `}` (or `;`).
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        let Some(end) = attribute_end(toks, i) else {
            i += 1;
            continue;
        };
        let inner: Vec<&str> = toks[i + 2..end].iter().map(|t| t.text.as_str()).collect();
        if !matches!(inner[..], ["test"] | ["cfg", "(", "test", ")"]) {
            i = end + 1;
            continue;
        }
        // The item runs past any further attributes to its first `{` or
        // `;` outside a group, and a `{` to its matching `}`.
        let mut j = end + 1;
        while let Some(e) = attribute_end(toks, j) {
            j = e + 1;
        }
        let mut depth = 0usize;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => break,
                "{" if depth == 0 => {
                    j = group_end(toks, j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let j = j.min(toks.len() - 1);
        mask[i..=j].fill(true);
        i = j + 1;
    }
    mask
}

/// The index of the `]` closing an outer attribute `#[…]` that starts at
/// `toks[i]`, if one does.
fn attribute_end(toks: &[Tok], i: usize) -> Option<usize> {
    (toks.get(i)?.is("#") && toks.get(i + 1)?.is("[")).then(|| group_end(toks, i + 1))
}

/// The index of the token closing the group `toks[open]` opens (the
/// stream's length when the file ends first).
pub(crate) fn group_end(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Is position `i` the start of a raw (`r"`, `r#"`) or byte (`b"`, `br"`)
/// string literal, as opposed to an identifier starting with `r`/`b`?
fn is_raw_or_byte_string(b: &[char], i: usize) -> bool {
    if i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    while j < b.len() && (b[j] == 'r' || b[j] == 'b') && j - i < 2 {
        j += 1;
    }
    while b.get(j) == Some(&'#') {
        j += 1;
    }
    b.get(j) == Some(&'"')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(code: &str) -> Vec<String> {
        lex(code).0.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn basic_stream() {
        assert_eq!(
            texts("let x = a.load(Ordering::Acquire);"),
            ["let", "x", "=", "a", ".", "load", "(", "Ordering", "::", "Acquire", ")", ";"]
        );
    }

    #[test]
    fn strings_become_single_tokens_and_comments_drop() {
        assert_eq!(
            texts("f(\"a.load(x)\"); // c.store(y)\n/* block */ g()"),
            ["f", "(", "\"a.load(x)\"", ")", ";", "g", "(", ")"]
        );
        assert_eq!(
            texts("let s = r#\"raw \" text\"#;"),
            ["let", "s", "=", "r#\"raw \" text\"#", ";"]
        );
    }

    #[test]
    fn lifetimes_vs_chars() {
        assert_eq!(texts("fn f<'a>(x: &'a u8) { let c = 'x'; }")[3], "'a");
        assert!(texts("let c = '\\n';").contains(&"' '".to_string()));
    }

    #[test]
    fn multi_char_ops() {
        assert_eq!(
            texts("a && b || c == d => e -> f :: g"),
            ["a", "&&", "b", "||", "c", "==", "d", "=>", "e", "->", "f", "::", "g"]
        );
        assert_eq!(texts("0..=n"), ["0", "..=", "n"]);
        // Shifts stay split.
        assert_eq!(texts("a << b"), ["a", "<", "<", "b"]);
    }

    #[test]
    fn lines_are_tracked() {
        let (toks, _) = lex("a\nb\n\nc");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn numbers_with_suffixes_and_ranges() {
        assert_eq!(
            texts("0xf422u64 1_000 2.5f64"),
            ["0xf422u64", "1_000", "2.5f64"]
        );
        assert_eq!(texts("0..3"), ["0", "..", "3"]);
    }

    #[test]
    fn escaped_quote_is_one_char_literal() {
        // `'\''` used to end at its second quote and leave a stray one
        // that swallowed code up to the next quote in the file.
        assert_eq!(
            texts("m('\\'', '\\\\'); fn b() {}"),
            ["m", "(", "' '", ",", "' '", ")", ";", "fn", "b", "(", ")", "{", "}"]
        );
    }

    #[test]
    fn comments_are_kept_by_line() {
        let (toks, c) = lex("a(); // ordering: one-off\n/* note: first line\n   second */ unsafe { b() }\nlet s = \"// safety: no\";");
        assert_eq!(c.annotation(1, "ordering:"), Some("one-off"));
        assert_eq!(
            c.annotation(3, "note:"),
            Some("first line"),
            "block comments are tagged line by line"
        );
        assert_eq!(
            c.annotation(4, "safety:"),
            None,
            "a literal is not a comment"
        );
        assert_eq!(
            toks.iter()
                .filter(|t| t.is("unsafe"))
                .map(|t| t.line)
                .collect::<Vec<_>>(),
            [3]
        );
    }

    #[test]
    fn annotation_window_and_comment_block() {
        // Three lines up whatever they hold; further only through a
        // contiguous comment/attribute block.
        let near = "// ordering: near\na();\nb();\nX.load(Relaxed);";
        assert_eq!(lex(near).1.annotation(4, "ordering:"), Some("near"));
        let far = "// ordering: far\na();\nb();\nc();\nX.load(Relaxed);";
        assert_eq!(lex(far).1.annotation(5, "ordering:"), None);
        let block =
            "x();\n// ordering: long\n// two\n// three\n// four\n#[inline]\nX.load(Relaxed);";
        assert_eq!(lex(block).1.annotation(7, "ordering:"), Some("long"));
        assert_eq!(
            lex("// ordering:\nf();").1.annotation(2, "ordering:"),
            Some(""),
            "an empty reason is found, and empty"
        );
    }
}
