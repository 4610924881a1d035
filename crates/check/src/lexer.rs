//! A minimal Rust token scanner — just enough lexical structure for the
//! linter rules, with no `syn`/`proc-macro2` dependency.
//!
//! The scanner understands the parts of Rust's surface syntax that would
//! otherwise produce false positives in a plain text search: line and
//! (nested) block comments, string/char literals in all their forms
//! (escaped, raw, byte, C), lifetimes vs char literals, and `::` path
//! separators. Everything else is emitted as single-character punctuation.
//!
//! Comments are retained separately (with line numbers) because two parts
//! of the linter consume them: the `stale-todo` rule and the
//! `// chiplet-check: allow(<rule>)` suppression pragmas.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`self`, `for`, `HashMap`, ...).
    Ident(String),
    /// Punctuation; multi-character only for `::`.
    Punct(&'static str),
    /// A numeric literal (value not retained).
    Num,
    /// A lifetime such as `'a` (name not retained).
    Lifetime,
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line.
    pub line: u32,
    /// The token.
    pub tok: Tok,
}

/// A comment (line or block) with its starting line and full text,
/// including the `//` / `/*` markers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based source line the comment starts on.
    pub line: u32,
    /// Raw comment text.
    pub text: String,
}

/// The result of scanning one source file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Code tokens, in source order, with comments and literals stripped.
    pub tokens: Vec<Token>,
    /// Comments, in source order.
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// The identifier text of token `i`, if it is an identifier.
    pub fn ident(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i) {
            Some(Token {
                tok: Tok::Ident(s), ..
            }) => Some(s),
            _ => None,
        }
    }

    /// True if token `i` is exactly the punctuation `p`.
    pub fn is_punct(&self, i: usize, p: &str) -> bool {
        matches!(self.tokens.get(i), Some(Token { tok: Tok::Punct(q), .. }) if *q == p)
    }

    /// True if token `i` is exactly the identifier `name`.
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        self.ident(i) == Some(name)
    }
}

/// Scans `src` into tokens and comments.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Advances `i` over `n` bytes, counting newlines into `line`.
    fn advance(b: &[u8], i: &mut usize, line: &mut u32, n: usize) {
        for _ in 0..n {
            if *i < b.len() {
                if b[*i] == b'\n' {
                    *line += 1;
                }
                *i += 1;
            }
        }
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                let start_line = line;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line: start_line,
                    text: src[start..i].to_owned(),
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                advance(b, &mut i, &mut line, 2);
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        advance(b, &mut i, &mut line, 2);
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        advance(b, &mut i, &mut line, 2);
                    } else {
                        advance(b, &mut i, &mut line, 1);
                    }
                }
                out.comments.push(Comment {
                    line: start_line,
                    text: src[start..i].to_owned(),
                });
            }
            b'"' => skip_string(b, &mut i, &mut line),
            b'\'' => {
                // Lifetime or char literal. A char literal is 'x', '\...',
                // or '\u{...}'; a lifetime is 'ident not followed by '.
                if is_char_literal(b, i) {
                    skip_char(b, &mut i, &mut line);
                } else {
                    i += 1; // the quote
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        line,
                        tok: Tok::Lifetime,
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                // String-literal prefixes: r"", r#""#, b"", br"", c"", b''.
                // A prefix only opens a literal when a quote actually
                // follows (raw forms may put `#`s in between); `r#ident`
                // is a raw identifier, and a stray `b#`/`c#` is no literal
                // at all — treating either as a string would swallow real
                // code until the next unrelated quote in the file.
                let is_prefix = matches!(word, "r" | "b" | "br" | "rb" | "c" | "cr");
                let opens_string = is_prefix
                    && (b.get(i) == Some(&b'"')
                        || (word.contains('r') && b.get(i) == Some(&b'#') && {
                            let mut j = i;
                            while b.get(j) == Some(&b'#') {
                                j += 1;
                            }
                            b.get(j) == Some(&b'"')
                        }));
                if opens_string {
                    skip_raw_or_prefixed_string(b, &mut i, &mut line, word);
                } else if word == "b" && b.get(i) == Some(&b'\'') {
                    skip_char(b, &mut i, &mut line);
                } else if word == "r"
                    && b.get(i) == Some(&b'#')
                    && b.get(i + 1)
                        .is_some_and(|&c| c.is_ascii_alphabetic() || c == b'_')
                {
                    // Raw identifier `r#name`: one identifier spelled `name`.
                    i += 1;
                    let ws = i;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        line,
                        tok: Tok::Ident(src[ws..i].to_owned()),
                    });
                } else {
                    out.tokens.push(Token {
                        line,
                        tok: Tok::Ident(word.to_owned()),
                    });
                }
            }
            c if c.is_ascii_digit() => {
                // Numeric literal: digits plus suffix/hex/underscores; a
                // `.` belongs to the number only when followed by a digit
                // (so `0..10` stays two tokens and a range).
                while i < b.len() {
                    let d = b[i];
                    let in_number = d.is_ascii_alphanumeric()
                        || d == b'_'
                        || (d == b'.'
                            && b.get(i + 1).is_some_and(u8::is_ascii_digit)
                            && b.get(i.wrapping_sub(1)).is_some_and(u8::is_ascii_digit));
                    if in_number {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    line,
                    tok: Tok::Num,
                });
            }
            b':' if b.get(i + 1) == Some(&b':') => {
                out.tokens.push(Token {
                    line,
                    tok: Tok::Punct("::"),
                });
                i += 2;
            }
            _ => {
                out.tokens.push(Token {
                    line,
                    tok: Tok::Punct(punct_str(c)),
                });
                i += 1;
            }
        }
    }
    out
}

/// Decides whether the `'` at `i` starts a char literal (vs a lifetime).
fn is_char_literal(b: &[u8], i: usize) -> bool {
    match b.get(i + 1) {
        Some(b'\\') => true,                     // '\n', '\u{..}', ...
        Some(b'\'') => false,                    // '' is not valid anyway
        Some(_) => b.get(i + 2) == Some(&b'\''), // 'x'
        None => false,
    }
}

fn skip_char(b: &[u8], i: &mut usize, line: &mut u32) {
    // Consumes an optional `b` prefix position already passed; `*i` is at
    // the opening quote or at `b` when called from the prefix path.
    if b.get(*i) == Some(&b'\'') || b.get(*i) == Some(&b'b') {
        if b[*i] == b'b' {
            *i += 1;
        }
        *i += 1; // opening quote
    }
    while *i < b.len() {
        match b[*i] {
            b'\\' => {
                *i += 2;
            }
            b'\'' => {
                *i += 1;
                return;
            }
            c => {
                if c == b'\n' {
                    *line += 1;
                }
                *i += 1;
            }
        }
    }
}

fn skip_string(b: &[u8], i: &mut usize, line: &mut u32) {
    *i += 1; // opening quote
    while *i < b.len() {
        match b[*i] {
            b'\\' => {
                if b.get(*i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                *i += 2;
            }
            b'"' => {
                *i += 1;
                return;
            }
            c => {
                if c == b'\n' {
                    *line += 1;
                }
                *i += 1;
            }
        }
    }
}

fn skip_raw_or_prefixed_string(b: &[u8], i: &mut usize, line: &mut u32, prefix: &str) {
    let raw = prefix.contains('r');
    if !raw {
        // b"..." / c"..." behave like ordinary strings.
        skip_string(b, i, line);
        return;
    }
    // Raw: count `#`s, then scan for `"` followed by that many `#`s.
    let mut hashes = 0usize;
    while b.get(*i) == Some(&b'#') {
        hashes += 1;
        *i += 1;
    }
    if b.get(*i) != Some(&b'"') {
        // Unreachable for input vetted by `lex` (which checks a quote
        // follows the hashes), kept as a defensive bail-out.
        return;
    }
    *i += 1;
    while *i < b.len() {
        if b[*i] == b'"' {
            let mut k = 0usize;
            while k < hashes && b.get(*i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                *i += 1 + hashes;
                return;
            }
        }
        if b[*i] == b'\n' {
            *line += 1;
        }
        *i += 1;
    }
}

fn punct_str(c: u8) -> &'static str {
    // A static table so `Tok::Punct` can borrow without allocation.
    const TABLE: &[(u8, &str)] = &[
        (b'(', "("),
        (b')', ")"),
        (b'[', "["),
        (b']', "]"),
        (b'{', "{"),
        (b'}', "}"),
        (b'<', "<"),
        (b'>', ">"),
        (b',', ","),
        (b';', ";"),
        (b':', ":"),
        (b'.', "."),
        (b'=', "="),
        (b'&', "&"),
        (b'|', "|"),
        (b'+', "+"),
        (b'-', "-"),
        (b'*', "*"),
        (b'/', "/"),
        (b'%', "%"),
        (b'!', "!"),
        (b'?', "?"),
        (b'#', "#"),
        (b'@', "@"),
        (b'^', "^"),
        (b'~', "~"),
        (b'$', "$"),
    ];
    for &(b, s) in TABLE {
        if b == c {
            return s;
        }
    }
    "?" // anything exotic; the rules never match on it
}

/// Token-index ranges `[start, end)` covered by `#[cfg(test)]` items
/// (typically `mod tests { ... }` blocks). Tokens inside these ranges are
/// exempt from the `no-panic` rule.
pub fn test_regions(lx: &Lexed) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let t = &lx.tokens;
    let mut i = 0usize;
    while i + 4 < t.len() {
        // `# [ cfg ( ... test ... ) ]`
        if lx.is_punct(i, "#") && lx.is_punct(i + 1, "[") && lx.is_ident(i + 2, "cfg") {
            // Find the attribute's closing `]`.
            let mut depth = 1usize;
            let mut j = i + 2;
            let mut saw_test = false;
            while j < t.len() && depth > 0 {
                if lx.is_punct(j, "[") {
                    depth += 1;
                } else if lx.is_punct(j, "]") {
                    depth -= 1;
                }
                if lx.is_ident(j, "test") {
                    saw_test = true;
                }
                j += 1;
            }
            if saw_test {
                // Skip any further attributes, then consume one item: up
                // to `;` if it comes before any `{`, else the matching
                // close of the first `{`.
                let mut k = j;
                while lx.is_punct(k, "#") && lx.is_punct(k + 1, "[") {
                    let mut d = 1usize;
                    k += 2;
                    while k < t.len() && d > 0 {
                        if lx.is_punct(k, "[") {
                            d += 1;
                        } else if lx.is_punct(k, "]") {
                            d -= 1;
                        }
                        k += 1;
                    }
                }
                let mut end = k;
                let mut brace: Option<usize> = None;
                while end < t.len() {
                    if lx.is_punct(end, ";") && brace.is_none() {
                        end += 1;
                        break;
                    }
                    if lx.is_punct(end, "{") {
                        brace = Some(end);
                        break;
                    }
                    end += 1;
                }
                if let Some(open) = brace {
                    let mut d = 0usize;
                    end = open;
                    while end < t.len() {
                        if lx.is_punct(end, "{") {
                            d += 1;
                        } else if lx.is_punct(end, "}") {
                            d -= 1;
                            if d == 0 {
                                end += 1;
                                break;
                            }
                        }
                        end += 1;
                    }
                }
                regions.push((i, end));
                i = end;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r##"
            // a comment with unwrap() inside
            /* block /* nested */ still comment .expect( */
            let s = "text with .unwrap() inside";
            let r = r#"raw "quoted" .expect( body"#;
            let b = b"bytes .unwrap()";
            let c = 'x';
            let nl = '\n';
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_owned()));
        assert!(!ids.contains(&"expect".to_owned()));
        assert_eq!(lex(src).comments.len(), 2);
    }

    #[test]
    fn raw_strings_with_hashes_are_opaque_and_line_synced() {
        // The `"#` on line 2 must not close the two-hash raw string, the
        // `.unwrap()` inside must never become a token, and the code after
        // the literal must keep exact line numbers.
        let src = "let s = r##\"\n.unwrap() \"# still inside\n\"##; let tail = 1;\nlet t = r\"plain .expect( \";\nafter.unwrap();";
        let lx = lex(src);
        let ids: Vec<(&str, u32)> = lx
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some((s.as_str(), t.line)),
                _ => None,
            })
            .collect();
        assert!(ids.contains(&("tail", 3)), "{ids:?}");
        assert!(ids.contains(&("after", 5)), "{ids:?}");
        assert!(
            ids.contains(&("unwrap", 5)),
            "real unwrap survives: {ids:?}"
        );
        assert_eq!(
            ids.iter().filter(|(s, _)| *s == "unwrap").count(),
            1,
            "the unwrap inside the raw string must stay hidden: {ids:?}"
        );
        assert!(!ids.iter().any(|(s, _)| *s == "expect"), "{ids:?}");
    }

    #[test]
    fn raw_string_closing_hashes_are_counted_exactly() {
        // `r#"x"##` is the literal `r#"x"#` followed by a stray `#`.
        let lx = lex("r#\"x\"## y");
        assert!(lx.is_punct(0, "#"), "{:?}", lx.tokens);
        assert!(lx.is_ident(1, "y"), "{:?}", lx.tokens);
    }

    #[test]
    fn raw_identifiers_lex_as_plain_identifiers() {
        let lx = lex("let r#type = r#match.field;");
        let ids = lex("let r#type = r#match.field;")
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert_eq!(ids, ["let", "type", "match", "field"], "{:?}", lx.tokens);
        // `r` as an ordinary identifier is untouched.
        assert_eq!(idents("let r = 1; r + 2"), ["let", "r", "r"]);
    }

    #[test]
    fn stray_prefix_hash_does_not_swallow_code() {
        // `b#` / `c#` are not literals; before the opens-string check they
        // were handed to the ordinary string scanner, which treated `#` as
        // an opening quote and swallowed everything up to the next real
        // quote — hiding `hidden.unwrap()` here.
        let src = "let x = b # y;\nhidden.unwrap();\nlet s = \"lit\";";
        let compact = "let x = b# y;\nhidden.unwrap();\nlet s = \"lit\";";
        for s in [src, compact] {
            let ids = idents(s);
            assert!(ids.contains(&"hidden".to_owned()), "{s}: {ids:?}");
            assert!(ids.contains(&"unwrap".to_owned()), "{s}: {ids:?}");
        }
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        // Pathological marker overlaps: `/*/` opens without closing,
        // `*/*/` closes two levels back-to-back.
        let lx = lex("/* a /*/ b */ */ after");
        assert!(lx.is_ident(0, "after"), "{:?}", lx.tokens);
        assert_eq!(lx.comments.len(), 1);

        let lx = lex("/*/* x */*/ tail");
        assert!(lx.is_ident(0, "tail"), "{:?}", lx.tokens);

        // `/**/` is a complete (empty) comment, not an opener.
        let lx = lex("/**/ y");
        assert!(lx.is_ident(0, "y"), "{:?}", lx.tokens);

        // An unterminated nested comment swallows the rest of the file
        // (as rustc treats it) without losing the comment record.
        let lx = lex("/* open /* deeper */ still open\nx.unwrap()");
        assert!(lx.tokens.is_empty(), "{:?}", lx.tokens);
        assert_eq!(lx.comments.len(), 1);
    }

    #[test]
    fn nested_block_comments_keep_line_sync() {
        let src = "/* l1\n /* l2\n l3 */\n l4 */ x = 1;\ny.unwrap();";
        let lx = lex(src);
        let x_line = lx
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("x".into()))
            .map(|t| t.line);
        assert_eq!(x_line, Some(4), "{:?}", lx.tokens);
        let y_line = lx
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("y".into()))
            .map(|t| t.line);
        assert_eq!(y_line, Some(5), "{:?}", lx.tokens);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let lx = lex(src);
        let lifetimes = lx.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        assert_eq!(lifetimes, 3);
        assert!(idents(src).contains(&"str".to_owned()));
    }

    #[test]
    fn path_separator_is_one_token() {
        let lx = lex("std::time::Instant");
        assert!(lx.is_ident(0, "std"));
        assert!(lx.is_punct(1, "::"));
        assert!(lx.is_ident(2, "time"));
        assert!(lx.is_punct(3, "::"));
        assert!(lx.is_ident(4, "Instant"));
    }

    #[test]
    fn ranges_do_not_eat_numbers() {
        let lx = lex("0..10");
        assert_eq!(lx.tokens.len(), 4); // Num . . Num
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"x\n y\";\nlet b = 1; // c\nlet d = 2;";
        let lx = lex(src);
        let d_line = lx
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("d".into()))
            .map(|t| t.line);
        assert_eq!(d_line, Some(4));
        assert_eq!(lx.comments[0].line, 3);
    }

    #[test]
    fn cfg_test_region_covers_mod_block() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn tail() {}";
        let lx = lex(src);
        let regions = test_regions(&lx);
        assert_eq!(regions.len(), 1);
        let (s, e) = regions[0];
        // `tail` must lie outside the region.
        let tail_ix = lx
            .tokens
            .iter()
            .position(|t| t.tok == Tok::Ident("tail".into()))
            .expect("tail token");
        assert!(tail_ix >= e);
        // `unwrap` must lie inside.
        let unwrap_ix = lx
            .tokens
            .iter()
            .position(|t| t.tok == Tok::Ident("unwrap".into()))
            .expect("unwrap token");
        assert!(unwrap_ix > s && unwrap_ix < e);
    }

    #[test]
    fn cfg_test_on_single_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn after() {}";
        let lx = lex(src);
        let regions = test_regions(&lx);
        assert_eq!(regions.len(), 1);
        let after_ix = lx
            .tokens
            .iter()
            .position(|t| t.tok == Tok::Ident("after".into()))
            .expect("after token");
        assert!(after_ix >= regions[0].1);
    }
}
