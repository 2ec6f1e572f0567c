//! A line-aware lexical view of one Rust source file.
//!
//! Every tidy check needs the same three questions answered before it can
//! look at a line: *is this code or a comment/string*, *which comment text
//! (markers live in comments) is attached to this line*, and *is this line
//! inside `#[cfg(test)]` code*. Answering them does not need a parser —
//! only a faithful lexer for the token classes that can hide other tokens:
//! line/block comments (nested), string literals (plain, raw, byte), char
//! literals vs. lifetimes, and attributes. [`SourceFile::parse`] runs that
//! lexer once and exposes:
//!
//! * [`SourceFile::code`] — the source with every comment and string
//!   literal blanked to spaces (newlines preserved), so checks can search
//!   for tokens like `Instant::now` or `std::collections::HashMap` without being
//!   fooled by prose;
//! * per-line comment text ([`SourceFile::comment_text`]) for the
//!   `// tidy: allow(...)` marker directive;
//! * the extracted string literals ([`SourceFile::strings`]) with their
//!   offsets into `code`, so checks can recover e.g. `Persist` section
//!   labels;
//! * a per-line *test* flag: lines belonging to an item annotated
//!   `#[cfg(test)]` (the attribute, the item header and its whole body).
//!
//! The lexer is intentionally forgiving: on malformed input it degrades to
//! treating the rest of the file as whatever state it was in, which for a
//! lint is the right failure mode (rustc reports the real error).

/// One extracted string literal (plain, raw or byte).
#[derive(Debug, Clone)]
pub struct StrLit {
    /// Byte offset of the literal's first quote in [`SourceFile::code`].
    pub offset: usize,
    /// 1-based line the literal starts on.
    pub line: usize,
    /// The literal's content, quotes and raw-string hashes excluded.
    pub text: String,
}

/// The lexical view of one file. See the module docs.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Source with comments and string/char literals blanked to spaces.
    /// Newlines (including those inside comments and strings) are kept, so
    /// offsets into `code` map to real line numbers.
    pub code: String,
    /// Extracted string literals in source order.
    pub strings: Vec<StrLit>,
    /// Per-line accumulated comment text (doc and plain), 0-indexed.
    comments: Vec<String>,
    /// Per-line flag: the line belongs to a `#[cfg(test)]` item.
    test_lines: Vec<bool>,
    /// Byte offset in `code` where each 0-indexed line starts.
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Lex `source` into a [`SourceFile`]. Never fails; see module docs for
    /// the degradation policy on malformed input.
    pub fn parse(rel_path: &str, source: &str) -> SourceFile {
        let chars: Vec<char> = source.chars().collect();
        let n = chars.len();
        let mut code = String::with_capacity(source.len());
        let mut comments: Vec<String> = vec![String::new()];
        let mut strings = Vec::new();
        let mut line = 0usize;
        let mut i = 0usize;

        // Push `c` as blank space into `code`, preserving newlines, and (for
        // comments) also into the current line's comment text.
        macro_rules! blank {
            ($c:expr, $as_comment:expr) => {{
                let c = $c;
                if c == '\n' {
                    code.push('\n');
                    line += 1;
                    comments.push(String::new());
                } else {
                    code.push(' ');
                    if $as_comment {
                        comments[line].push(c);
                    }
                }
            }};
        }

        while i < n {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            let prev_is_ident = i
                .checked_sub(1)
                .map(|p| is_ident_char(chars[p]))
                .unwrap_or(false);
            match c {
                '\n' => {
                    code.push('\n');
                    line += 1;
                    comments.push(String::new());
                    i += 1;
                }
                '/' if next == Some('/') => {
                    while i < n && chars[i] != '\n' {
                        blank!(chars[i], true);
                        i += 1;
                    }
                }
                '/' if next == Some('*') => {
                    let mut depth = 0usize;
                    while i < n {
                        if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                            depth += 1;
                            blank!('/', false);
                            blank!('*', false);
                            i += 2;
                        } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                            depth -= 1;
                            blank!('*', false);
                            blank!('/', false);
                            i += 2;
                            if depth == 0 {
                                break;
                            }
                        } else {
                            blank!(chars[i], true);
                            i += 1;
                        }
                    }
                }
                '"' => {
                    i = lex_string(
                        &chars,
                        i,
                        0,
                        false,
                        &mut code,
                        &mut comments,
                        &mut line,
                        &mut strings,
                    )
                }
                'r' | 'b' if !prev_is_ident => {
                    // Candidate raw/byte string (r"", r#""#, b"", br"", b'',
                    // rb is not a thing). Work out where the quote is; if
                    // there is none this is a plain identifier.
                    let mut j = i;
                    if chars[j] == 'b' && chars.get(j + 1) == Some(&'r') {
                        j += 2;
                    } else if chars[j] == 'b' || chars[j] == 'r' {
                        j += 1;
                    }
                    let mut hashes = 0usize;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let raw = j > i + 1 || chars[i] == 'r' || hashes > 0;
                    if chars.get(j) == Some(&'"') && (raw || chars[i] == 'b') {
                        // Blank the prefix (r/b/br and hashes) then the body.
                        while i < j {
                            blank!(chars[i], false);
                            i += 1;
                        }
                        let hashes = if raw { hashes } else { 0 };
                        i = lex_string(
                            &chars,
                            i,
                            hashes,
                            raw,
                            &mut code,
                            &mut comments,
                            &mut line,
                            &mut strings,
                        );
                    } else if chars[i] == 'b' && chars.get(i + 1) == Some(&'\'') {
                        blank!('b', false);
                        i += 1; // fall through to the char-literal arm next loop
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal or lifetime. A literal is '\...' or 'X'
                    // with a closing quote right after one character.
                    let is_char_lit = match next {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char_lit {
                        blank!('\'', false);
                        i += 1;
                        if chars.get(i) == Some(&'\\') {
                            blank!('\\', false);
                            i += 1;
                            // Escape payload: consume up to the closing quote.
                            while i < n && chars[i] != '\'' {
                                blank!(chars[i], false);
                                i += 1;
                            }
                        } else if i < n {
                            blank!(chars[i], false);
                            i += 1;
                        }
                        if i < n {
                            blank!('\'', false);
                            i += 1;
                        }
                    } else {
                        // Lifetime: keep the tick so `code` stays honest.
                        code.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    code.push(c);
                    i += 1;
                }
            }
        }

        let line_starts = std::iter::once(0)
            .chain(
                code.char_indices()
                    .filter(|(_, c)| *c == '\n')
                    .map(|(o, _)| o + 1),
            )
            .collect::<Vec<_>>();
        let test_lines = compute_test_lines(&code, comments.len());
        SourceFile {
            rel_path: rel_path.to_string(),
            code,
            strings,
            comments,
            test_lines,
            line_starts,
        }
    }

    /// Number of lines in the file.
    pub fn line_count(&self) -> usize {
        self.comments.len()
    }

    /// 1-based line containing byte `offset` of [`SourceFile::code`].
    pub fn line_of_offset(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(idx) => idx + 1,
            Err(idx) => idx,
        }
    }

    /// Comment text accumulated on 1-based `line` (empty if none).
    pub fn comment_text(&self, line: usize) -> &str {
        self.comments
            .get(line.wrapping_sub(1))
            .map(String::as_str)
            .unwrap_or("")
    }

    /// True when 1-based `line` belongs to a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines
            .get(line.wrapping_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// The comment-and-string-blanked text of 1-based `line`.
    pub fn code_line(&self, line: usize) -> &str {
        let start = match self.line_starts.get(line.wrapping_sub(1)) {
            Some(&s) => s,
            None => return "",
        };
        let end = self
            .line_starts
            .get(line)
            .map(|&e| e.saturating_sub(1)) // exclude the newline
            .unwrap_or(self.code.len());
        &self.code[start..end]
    }

    /// True when `line` carries no code: only blank space, a comment, or an
    /// attribute (`#[...]` / `#![...]`).
    pub fn line_is_passive(&self, line: usize) -> bool {
        let code = self.code_line(line).trim();
        code.is_empty() || code.starts_with('#')
    }
}

/// Lex one string literal starting at the opening quote `chars[i]`, with
/// `hashes` trailing `#` for raw strings. Returns the index past the close.
#[allow(clippy::too_many_arguments)]
fn lex_string(
    chars: &[char],
    mut i: usize,
    hashes: usize,
    raw: bool,
    code: &mut String,
    comments: &mut Vec<String>,
    line: &mut usize,
    strings: &mut Vec<StrLit>,
) -> usize {
    let n = chars.len();
    let offset = code.len();
    let start_line = *line + 1;
    let mut text = String::new();
    // Opening quote.
    code.push(' ');
    i += 1;
    while i < n {
        let c = chars[i];
        if c == '\\' && !raw {
            // Escape: consume the backslash and the next char.
            code.push(' ');
            i += 1;
            if i < n {
                if chars[i] == '\n' {
                    code.push('\n');
                    *line += 1;
                    comments.push(String::new());
                } else {
                    code.push(' ');
                }
                i += 1;
            }
            continue;
        }
        if c == '"' {
            // Closing candidate: for raw strings the quote must be followed
            // by `hashes` hash marks.
            let closes = (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#'));
            if closes {
                code.push(' ');
                i += 1;
                for _ in 0..hashes {
                    code.push(' ');
                    i += 1;
                }
                break;
            }
        }
        if c == '\n' {
            code.push('\n');
            *line += 1;
            comments.push(String::new());
        } else {
            code.push(' ');
        }
        text.push(c);
        i += 1;
    }
    strings.push(StrLit {
        offset,
        line: start_line,
        text,
    });
    i
}

/// True for characters that can appear in an identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Mark every line belonging to a `#[cfg(test)]`-annotated item (attribute
/// lines, the item header, and the item body through its closing brace).
/// `#![cfg(test)]` (inner attribute) marks the whole file.
fn compute_test_lines(code: &str, n_lines: usize) -> Vec<bool> {
    let chars: Vec<char> = code.chars().collect();
    let n = chars.len();
    let mut flags = vec![false; n_lines];
    let mut line = 0usize;
    let mut i = 0usize;
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c != '#' {
            i += 1;
            continue;
        }
        // Attribute?
        let mut j = i + 1;
        let inner = chars.get(j) == Some(&'!');
        if inner {
            j += 1;
        }
        if chars.get(j) != Some(&'[') {
            i += 1;
            continue;
        }
        // Collect the bracket group (attrs can nest brackets).
        let attr_start_line = line;
        let mut depth = 0usize;
        let mut content = String::new();
        let mut attr_lines = 0usize;
        while j < n {
            let a = chars[j];
            if a == '\n' {
                attr_lines += 1;
            }
            if a == '[' {
                depth += 1;
            } else if a == ']' {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if depth >= 1 && a != '[' {
                content.push(a);
            }
            j += 1;
        }
        let normalized: String = content.chars().filter(|c| !c.is_whitespace()).collect();
        if !is_test_cfg(&normalized) {
            line += attr_lines;
            i = j + 1;
            continue;
        }
        if inner {
            for f in flags.iter_mut() {
                *f = true;
            }
            return flags;
        }
        // Find the annotated item: skip whitespace and further attributes,
        // then scan to the item body `{ ... }` (or a `;` for bodiless items).
        line += attr_lines;
        i = j + 1;
        let mut k = i;
        let mut kline = line;
        // Skip whitespace and subsequent attribute groups.
        loop {
            while k < n && chars[k].is_whitespace() {
                if chars[k] == '\n' {
                    kline += 1;
                }
                k += 1;
            }
            if chars.get(k) == Some(&'#') {
                let mut depth = 0usize;
                while k < n {
                    let a = chars[k];
                    if a == '\n' {
                        kline += 1;
                    }
                    if a == '[' {
                        depth += 1;
                    } else if a == ']' {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    k += 1;
                }
            } else {
                break;
            }
        }
        // Scan for the body-opening brace or a terminating semicolon.
        let mut end_line = kline;
        let mut brace_depth = 0usize;
        let mut entered = false;
        while k < n {
            let a = chars[k];
            if a == '\n' {
                end_line += 1;
            } else if a == '{' {
                brace_depth += 1;
                entered = true;
            } else if a == '}' {
                brace_depth = brace_depth.saturating_sub(1);
                if entered && brace_depth == 0 {
                    break;
                }
            } else if a == ';' && !entered {
                break;
            }
            k += 1;
        }
        for f in flags
            .iter_mut()
            .take((end_line + 1).min(n_lines))
            .skip(attr_start_line)
        {
            *f = true;
        }
        line = end_line;
        i = k + 1;
        // Re-count: `line` tracked manually above; resync by recounting is
        // unnecessary because end_line counted every newline we passed.
    }
    flags
}

/// Does a whitespace-stripped attribute body gate on `test`?
/// Matches `cfg(test)`, `cfg(all(test, ...))`, `cfg(any(..., test))`, and
/// `cfg_attr(test, ...)`.
fn is_test_cfg(normalized: &str) -> bool {
    if !(normalized.starts_with("cfg(") || normalized.starts_with("cfg_attr(")) {
        return false;
    }
    let bytes = normalized.as_bytes();
    let ident_byte = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80;
    let mut start = 0;
    while let Some(p) = normalized[start..].find("test") {
        let pos = start + p;
        let before_ok = pos == 0 || !ident_byte(bytes[pos - 1]);
        let after_ok = bytes.get(pos + 4).map(|&b| !ident_byte(b)).unwrap_or(true);
        if before_ok && after_ok {
            return true;
        }
        start = pos + 4;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = \"std::collections::HashMap\"; // HashMap here\nlet b = 1;\n",
        );
        assert!(!f.code.contains("HashMap"));
        assert!(f.comment_text(1).contains("HashMap here"));
        assert_eq!(f.strings.len(), 1);
        assert_eq!(f.strings[0].text, "std::collections::HashMap");
        assert_eq!(f.strings[0].line, 1);
    }

    #[test]
    fn raw_and_byte_strings() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = r#\"raw \"quoted\" text\"#; let b = b\"bytes\"; let c = br#\"x\"#;",
        );
        assert_eq!(f.strings.len(), 3);
        assert_eq!(f.strings[0].text, "raw \"quoted\" text");
        assert_eq!(f.strings[1].text, "bytes");
        assert_eq!(f.strings[2].text, "x");
        assert!(!f.code.contains("raw"));
    }

    #[test]
    fn char_literals_versus_lifetimes() {
        let f = SourceFile::parse(
            "x.rs",
            "fn f<'a>(x: &'a str) { let c = '{'; let d = '\\n'; let e = '_'; }",
        );
        // The brace char literal must not unbalance brace tracking.
        assert!(!f.code.contains("'{'"));
        assert!(f.code.contains("'a"));
        // '_' is a char literal, not a lifetime.
        assert!(!f.code.contains("'_'"));
    }

    #[test]
    fn multiline_strings_keep_line_numbers() {
        let f = SourceFile::parse("x.rs", "let a = \"one\ntwo\nthree\";\nlet done = 4;\n");
        assert_eq!(f.line_count(), 5);
        assert!(f.code_line(4).contains("done"));
        assert_eq!(f.strings[0].text, "one\ntwo\nthree");
    }

    #[test]
    fn nested_block_comments() {
        let f = SourceFile::parse("x.rs", "/* outer /* inner */ still comment */ let x = 1;");
        assert!(f.code.contains("let x"));
        assert!(!f.code.contains("outer"));
        assert!(f.comment_text(1).contains("inner"));
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "\
use std::fmt;

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() {}
}

fn real() {}
";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3), "attribute line");
        assert!(f.is_test_line(5), "body line");
        assert!(f.is_test_line(8), "closing brace");
        assert!(!f.is_test_line(10), "code after the test mod");
    }

    #[test]
    fn cfg_test_with_stacked_attributes_and_semicolon_items() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn helper() { body(); }\n\n#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.is_test_line(1) && f.is_test_line(2) && f.is_test_line(3));
        assert!(f.is_test_line(5) && f.is_test_line(6));
        assert!(!f.is_test_line(7));
    }

    #[test]
    fn cfg_all_test_is_test_but_feature_test_name_is_not() {
        let f = SourceFile::parse("x.rs", "#[cfg(all(test, feature = \"x\"))]\nfn a() {}\n");
        assert!(f.is_test_line(2));
        let g = SourceFile::parse("x.rs", "#[cfg(feature = \"testing\")]\nfn a() {}\n");
        assert!(!g.is_test_line(2));
    }

    #[test]
    fn passive_lines() {
        let f = SourceFile::parse("x.rs", "// comment\n#[derive(Debug)]\nstruct S;\n\n");
        assert!(f.line_is_passive(1));
        assert!(f.line_is_passive(2));
        assert!(!f.line_is_passive(3));
        assert!(f.line_is_passive(4));
    }
}
