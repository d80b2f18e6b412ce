//! Comment- and string-literal-aware Rust source scanner.
//!
//! The rule engine must never fire on the *word* `unsafe` inside a doc
//! comment, nor miss a pragma because it shares a line with code — so
//! the scanner splits every source line into three channels:
//!
//! * `code` — the line with comment text removed and the *contents* of
//!   string/char literals blanked (delimiters are kept, so the code
//!   channel stays structurally recognizable, e.g. `env::var("")`);
//! * `comment` — the concatenated text of every comment on the line
//!   (pragmas are read from here);
//! * `strings` — the concatenated contents of every string literal on
//!   the line (the env-discipline rule needs to see `"TASKBENCH_*"`).
//!
//! The state machine understands line comments, nested block comments,
//! normal/byte strings with escapes, raw strings (`r"…"`, `r#"…"#`,
//! `br…`/`cr…` prefixes, any hash depth, spanning lines), char and byte
//! literals, and tells lifetimes (`'a`) apart from char literals
//! (`'a'`). It is a lexer for *this* job, not a full Rust lexer: the
//! known approximations (e.g. whitespace inside a path like
//! `Instant :: now` defeating a token match) are documented on the
//! rules that depend on them.

/// One source line split into its three channels.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Code with comments removed and literal contents blanked.
    pub code: String,
    /// Concatenated comment text (without the `//` / `/*` markers).
    pub comment: String,
    /// Concatenated string-literal contents.
    pub strings: String,
}

impl Line {
    /// Whether the line carries any code (used to resolve which line a
    /// comment-only pragma applies to).
    pub fn has_code(&self) -> bool {
        !self.code.trim().is_empty()
    }
}

/// Scanner state that survives a newline.
enum St {
    Code,
    /// Block comment at a nesting depth (Rust block comments nest).
    Block(u32),
    /// Normal (or byte) string literal.
    Str,
    /// Raw string literal closed by `"` followed by this many `#`s.
    Raw(u32),
}

/// Would-be raw-string opener: the code emitted so far ends with
/// `r`/`br`/`cr` plus `hashes` trailing `#`s, at an identifier boundary.
fn raw_prefix(code: &str) -> Option<u32> {
    let trimmed = code.trim_end_matches('#');
    let hashes = (code.len() - trimmed.len()) as u32;
    let b = trimmed.as_bytes();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    match b.last() {
        Some(b'r') => {
            let at = b.len() - 1;
            let at = match at.checked_sub(1).map(|j| b[j]) {
                Some(b'b') | Some(b'c') => at - 1,
                _ => at,
            };
            match at.checked_sub(1).map(|j| b[j]) {
                Some(c) if ident(c) => None,
                _ => Some(hashes),
            }
        }
        _ => None,
    }
}

/// Split `src` into per-line channel records (1-based line `i` is
/// `scan(src)[i - 1]`).
pub fn scan(src: &str) -> Vec<Line> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut cur = Line::default();
    let mut st = St::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            out.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    // Line comment: the rest of the line is comment text.
                    i += 2;
                    while i < chars.len() && chars[i] != '\n' {
                        cur.comment.push(chars[i]);
                        i += 1;
                    }
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = St::Block(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    st = match raw_prefix(&cur.code[..cur.code.len() - 1]) {
                        Some(hashes) => St::Raw(hashes),
                        None => St::Str,
                    };
                    i += 1;
                } else if c == '\'' {
                    // Char/byte literal vs lifetime.
                    let next = chars.get(i + 1).copied();
                    let is_char = match next {
                        Some('\\') => true,
                        Some(n) => n != '\'' && chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    cur.code.push('\'');
                    i += 1;
                    if is_char {
                        while i < chars.len() {
                            match chars[i] {
                                '\\' => i += 2,
                                '\'' => {
                                    cur.code.push('\'');
                                    i += 1;
                                    break;
                                }
                                '\n' => break, // malformed; resync at newline
                                _ => i += 1,
                            }
                        }
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            St::Block(depth) => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = St::Block(depth + 1);
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::Block(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    // Keep escape sequences in the strings channel verbatim;
                    // the consumers only substring-match. A line-continuation
                    // escape leaves its newline to the main loop so line
                    // numbering stays exact.
                    cur.strings.push(c);
                    match chars.get(i + 1) {
                        Some(&'\n') | None => i += 1,
                        Some(&n) => {
                            cur.strings.push(n);
                            i += 2;
                        }
                    }
                } else if c == '"' {
                    cur.code.push('"');
                    st = St::Code;
                    i += 1;
                } else {
                    cur.strings.push(c);
                    i += 1;
                }
            }
            St::Raw(hashes) => {
                let closes =
                    c == '"' && (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'));
                if closes {
                    cur.code.push('"');
                    for _ in 0..hashes {
                        cur.code.push('#');
                    }
                    st = St::Code;
                    i += 1 + hashes as usize;
                } else {
                    cur.strings.push(c);
                    i += 1;
                }
            }
        }
    }
    if cur.has_code() || !cur.comment.is_empty() || !cur.strings.is_empty() {
        out.push(cur);
    }
    out
}

/// Whether `tok` occurs in `code` at identifier boundaries on both sides
/// (`tok` itself may contain `::`).
pub fn has_token(code: &str, tok: &str) -> bool {
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(tok) {
        let at = start + pos;
        let end = at + tok.len();
        let before_ok = at == 0 || !ident(bytes[at - 1]);
        let after_ok = end >= bytes.len() || !ident(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// Whether macro `name` is invoked in `code` (`name` at identifier
/// boundaries, immediately followed by `!` — so `println` never matches
/// inside `eprintln`).
pub fn has_macro(code: &str, name: &str) -> bool {
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(name) {
        let at = start + pos;
        let end = at + name.len();
        let before_ok = at == 0 || !ident(bytes[at - 1]);
        if before_ok && bytes.get(end) == Some(&b'!') {
            return true;
        }
        start = at + 1;
    }
    false
}

/// Whether `name` is called in `code` as a method (`x.name(`) or through
/// a path (`Trait::name(`, `<T as Trait>::name(`). A bare `name(` call
/// and longer names such as `.name_all(` never match.
pub fn has_qualified_call(code: &str, name: &str) -> bool {
    code.contains(&format!(".{name}(")) || code.contains(&format!("::{name}("))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_leave_the_code_channel() {
        let l = scan("let x = 1; // unsafe Instant::now\n");
        assert_eq!(l.len(), 1);
        assert_eq!(l[0].code.trim_end(), "let x = 1;");
        assert!(l[0].comment.contains("unsafe Instant::now"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let l = scan("a /* one /* two */ still */ b\n/* open\nunsafe */ c\n");
        assert_eq!(l[0].code.replace(' ', ""), "ab");
        assert!(l[1].code.trim().is_empty());
        assert!(l[1].comment.contains("open"));
        assert!(l[2].comment.contains("unsafe"));
        assert_eq!(l[2].code.trim(), "c");
    }

    #[test]
    fn string_contents_are_blanked_but_recorded() {
        let l = scan("env::var(\"TASKBENCH_X\") ; \"Instant::now\"\n");
        assert!(!l[0].code.contains("TASKBENCH_X"));
        assert!(l[0].code.contains("env::var(\"\")"));
        assert!(l[0].strings.contains("TASKBENCH_X"));
        assert!(!has_token(&l[0].code, "Instant::now"));
    }

    #[test]
    fn raw_strings_any_depth() {
        let l = scan("let s = r#\"unsafe \" quote\"#; let t = r\"x\";\n");
        assert!(!l[0].code.contains("unsafe"));
        assert!(l[0].strings.contains("unsafe \" quote"));
        assert!(l[0].strings.contains('x'));
    }

    #[test]
    fn raw_string_spans_lines_holding_state() {
        let l = scan("let s = r#\"line one\nunsafe fn evil()\n\"#; done();\n");
        assert!(l[1].code.trim().is_empty());
        assert!(l[1].strings.contains("unsafe"));
        assert!(l[2].code.contains("done()"));
    }

    #[test]
    fn byte_and_c_raw_prefixes() {
        let l = scan("let a = br#\"raw\"#; let b = b\"bytes\"; let c = cr\"c\";\n");
        assert_eq!(l[0].strings, "rawbytesc");
        assert!(!l[0].code.contains("raw"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_prefix() {
        // `var "x"` is not valid Rust, but the scanner must not treat the
        // trailing `r` of an identifier as a raw-string opener.
        let l = scan("for_var(\"TASKBENCH_Y\")\n");
        assert!(l[0].strings.contains("TASKBENCH_Y"));
        assert!(l[0].code.contains("(\"\")"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let l = scan("let c = 'x'; let n = '\\n'; fn f<'a>(v: &'a str) {}\n");
        assert!(!l[0].code.contains('x'));
        assert!(l[0].code.contains("<'a>"));
        assert!(l[0].code.contains("&'a str"));
    }

    #[test]
    fn token_boundaries() {
        assert!(has_token("use std::time::Instant;", "Instant"));
        assert!(!has_token("let unsafe_code = 1;", "unsafe"));
        assert!(has_token("x.load(Relaxed)", "Relaxed"));
        assert!(has_token("Ordering::Relaxed", "Relaxed"));
        assert!(!has_token("RelaxedCounter", "Relaxed"));
        assert!(has_token("t0 = Instant::now();", "Instant::now"));
    }

    #[test]
    fn macro_matching_excludes_eprintln() {
        assert!(has_macro("println!(\"x\")", "println"));
        assert!(!has_macro("eprintln!(\"x\")", "println"));
        assert!(!has_macro("let println = 1;", "println"));
        assert!(has_macro("print!(\"x\")", "print"));
        assert!(!has_macro("println!(\"x\")", "print"));
    }

    #[test]
    fn last_line_without_newline_is_kept() {
        let l = scan("let a = 1;\nlet b = 2;");
        assert_eq!(l.len(), 2);
        assert!(l[1].code.contains("b = 2"));
    }
}
