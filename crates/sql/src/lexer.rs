//! Hand-written lexer for CrowdSQL.

use crowddb_common::{CrowdError, Result};

use crate::token::{Keyword, Token, TokenKind};

/// Streaming lexer over a SQL string.
///
/// Produces a flat token vector via [`Lexer::tokenize`]; the parser indexes
/// into that vector. Identifiers are lower-cased at lexing time (CrowdDB
/// identifiers are case-insensitive), keywords are recognized here, and
/// `--` line comments plus `/* */` block comments are skipped.
///
/// Quoted text, comments, words and numbers are found with a slice search
/// and stepped over in one move; a literal's text is copied out of the
/// source once.
pub struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Lex the whole input, returning tokens terminated by `Eof`.
    pub fn tokenize(mut self) -> Result<Vec<Token>> {
        let mut out = Vec::new();
        loop {
            let tok = self.next_token()?;
            let eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if eof {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Step over the source up to byte `end`, moving line and column as
    /// [`Lexer::bump`] would have, a byte at a time.
    fn skip_to(&mut self, end: usize) {
        let skipped = &self.src[self.pos..end];
        match skipped.iter().rposition(|&c| c == b'\n') {
            Some(last) => {
                self.line += skipped.iter().filter(|&&c| c == b'\n').count() as u32;
                self.col = (skipped.len() - last) as u32;
            }
            None => self.col += skipped.len() as u32,
        }
        self.pos = end;
    }

    /// Where the first `needle` at or after byte `from` starts.
    fn find(&self, from: usize, needle: &[u8]) -> Option<usize> {
        let mut at = from;
        loop {
            at += self.src[at..].iter().position(|&c| c == needle[0])?;
            if self.src[at..].starts_with(needle) {
                return Some(at);
            }
            at += 1;
        }
    }

    /// The end of the run of bytes from `from` that `keep` accepts.
    fn run_end(&self, from: usize, keep: impl Fn(u8) -> bool) -> usize {
        (self.src[from..].iter())
            .position(|&c| !keep(c))
            .map_or(self.src.len(), |at| from + at)
    }

    fn err(&self, msg: impl Into<String>) -> CrowdError {
        CrowdError::Parse(format!(
            "{} at line {}, column {}",
            msg.into(),
            self.line,
            self.col
        ))
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.skip_to(self.run_end(self.pos, |c| c.is_ascii_whitespace()));
                }
                Some(b'-') if self.peek2() == Some(b'-') => {
                    self.skip_to(self.run_end(self.pos, |c| c != b'\n'));
                }
                Some(b'/') if self.peek2() == Some(b'*') => match self.find(self.pos + 2, b"*/") {
                    Some(close) => self.skip_to(close + 2),
                    None => {
                        self.skip_to(self.src.len());
                        return Err(self.err("unterminated block comment"));
                    }
                },
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token> {
        self.skip_trivia()?;
        let (line, col) = (self.line, self.col);
        let tok = |k| Token::new(k, line, col);
        let c = match self.peek() {
            None => return Ok(tok(TokenKind::Eof)),
            Some(c) => c,
        };
        let kind = match c {
            b'(' => {
                self.bump();
                TokenKind::LParen
            }
            b')' => {
                self.bump();
                TokenKind::RParen
            }
            b',' => {
                self.bump();
                TokenKind::Comma
            }
            b';' => {
                self.bump();
                TokenKind::Semicolon
            }
            b'.' => {
                self.bump();
                TokenKind::Dot
            }
            b'*' => {
                self.bump();
                TokenKind::Star
            }
            b'+' => {
                self.bump();
                TokenKind::Plus
            }
            b'-' => {
                self.bump();
                TokenKind::Minus
            }
            b'/' => {
                self.bump();
                TokenKind::Slash
            }
            b'%' => {
                self.bump();
                TokenKind::Percent
            }
            b'=' => {
                self.bump();
                TokenKind::Eq
            }
            b'<' => {
                self.bump();
                match self.peek() {
                    Some(b'=') => {
                        self.bump();
                        TokenKind::LtEq
                    }
                    Some(b'>') => {
                        self.bump();
                        TokenKind::NotEq
                    }
                    _ => TokenKind::Lt,
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::GtEq
                } else {
                    TokenKind::Gt
                }
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::NotEq
                } else {
                    return Err(self.err("expected '=' after '!'"));
                }
            }
            b'~' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::CrowdEq
                } else {
                    return Err(self.err("expected '=' after '~' (CROWDEQUAL shorthand is '~=')"));
                }
            }
            b'|' => {
                self.bump();
                if self.peek() == Some(b'|') {
                    self.bump();
                    TokenKind::Concat
                } else {
                    return Err(self.err("expected '|' after '|'"));
                }
            }
            b'\'' => self.lex_string()?,
            b'"' => self.lex_quoted_ident()?,
            b'0'..=b'9' => self.lex_number()?,
            c if is_word_start(c) => self.lex_word(),
            other => {
                return Err(self.err(format!("unexpected character '{}'", other as char)));
            }
        };
        Ok(tok(kind))
    }

    /// A `'...'` literal: the text between the quotes, copied once, each
    /// `''` (an escaped quote) spliced in as one `'`. Slicing the source
    /// `&str` between two ASCII quotes always cuts whole UTF-8 sequences.
    fn lex_string(&mut self) -> Result<TokenKind> {
        let mut from = self.pos + 1; // past the opening quote
        let mut text = String::new();
        loop {
            let Some(quote) = self.find(from, b"'") else {
                self.skip_to(self.src.len());
                return Err(self.err("unterminated string literal"));
            };
            text.push_str(&self.text[from..quote]);
            if self.src.get(quote + 1) != Some(&b'\'') {
                self.skip_to(quote + 1);
                return Ok(TokenKind::StringLit(text));
            }
            text.push('\'');
            from = quote + 2;
        }
    }

    fn lex_quoted_ident(&mut self) -> Result<TokenKind> {
        let from = self.pos + 1; // past the opening quote
        let Some(quote) = self.find(from, b"\"") else {
            self.skip_to(self.src.len());
            return Err(self.err("unterminated quoted identifier"));
        };
        let name = self.text[from..quote].to_ascii_lowercase();
        self.skip_to(quote + 1);
        Ok(TokenKind::Ident(name))
    }

    fn lex_number(&mut self) -> Result<TokenKind> {
        let start = self.pos;
        let digits = |from| self.run_end(from, |c| c.is_ascii_digit());
        let mut end = digits(start);
        let mut is_float = false;
        // Only consume '.' when followed by a digit, so "1." is not eaten
        // and "tbl.1" style input errors in the parser, not the lexer.
        let at = |i: usize| self.src.get(i).copied();
        if at(end) == Some(b'.') && at(end + 1).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            end = digits(end + 1);
        }
        if matches!(at(end), Some(b'e') | Some(b'E')) {
            let mut look = end + 1;
            if matches!(at(look), Some(b'+') | Some(b'-')) {
                look += 1;
            }
            if at(look).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                end = digits(look);
            }
        }
        self.skip_to(end);
        let text = &self.text[start..end];
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::FloatLit)
                .map_err(|e| self.err(format!("invalid float literal '{text}': {e}")))
        } else {
            text.parse::<i64>()
                .map(TokenKind::IntLit)
                .map_err(|e| self.err(format!("invalid integer literal '{text}': {e}")))
        }
    }

    fn lex_word(&mut self) -> TokenKind {
        let start = self.pos;
        self.skip_to(self.run_end(start, is_word_byte));
        let text = &self.text[start..self.pos];
        match Keyword::from_str(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(text.to_ascii_lowercase()),
        }
    }
}

fn is_word_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic()
}

fn is_word_byte(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Whether `text` lexes as exactly one word (an identifier or a keyword):
/// what rendering asks before it writes a name without quotes.
pub(crate) fn is_word(text: &str) -> bool {
    let mut bytes = text.bytes();
    bytes.next().is_some_and(is_word_start) && bytes.all(is_word_byte)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        Lexer::new(sql)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lex_simple_select() {
        let k = kinds("SELECT abstract FROM paper WHERE title = 'CrowdDB';");
        assert_eq!(
            k,
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Ident("abstract".into()),
                TokenKind::Keyword(Keyword::From),
                TokenKind::Ident("paper".into()),
                TokenKind::Keyword(Keyword::Where),
                TokenKind::Ident("title".into()),
                TokenKind::Eq,
                TokenKind::StringLit("CrowdDB".into()),
                TokenKind::Semicolon,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_crowd_keywords() {
        let k = kinds("CREATE CROWD TABLE t (a CROWD STRING)");
        assert!(k.contains(&TokenKind::Keyword(Keyword::Crowd)));
        let k = kinds("x ~= 'IBM'");
        assert_eq!(k[1], TokenKind::CrowdEq);
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(kinds("42")[0], TokenKind::IntLit(42));
        assert_eq!(kinds("3.25")[0], TokenKind::FloatLit(3.25));
        assert_eq!(kinds("1e3")[0], TokenKind::FloatLit(1000.0));
        assert_eq!(kinds("2.5e-1")[0], TokenKind::FloatLit(0.25));
    }

    #[test]
    fn dot_after_int_is_separate_when_not_float() {
        // "t.1" style — lexer must not swallow the dot into the number
        let k = kinds("1 .x");
        assert_eq!(k[0], TokenKind::IntLit(1));
        assert_eq!(k[1], TokenKind::Dot);
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            kinds("'it''s here'")[0],
            TokenKind::StringLit("it's here".into())
        );
    }

    #[test]
    fn quoted_text_keeps_characters_outside_ascii() {
        // Read a byte at a time, 'Zürich' came back as 'ZÃ¼rich' — and once
        // more mangled by every WAL replay of the statement.
        assert_eq!(
            kinds("'Z\u{fc}rich \u{4e2d} \u{1f600}'")[0],
            TokenKind::StringLit("Z\u{fc}rich \u{4e2d} \u{1f600}".into())
        );
        assert_eq!(
            kinds("\"T\u{e9}l\"")[0],
            TokenKind::Ident("t\u{e9}l".into())
        );
    }

    #[test]
    fn quoted_identifiers_lowercased() {
        assert_eq!(kinds("\"MyTable\"")[0], TokenKind::Ident("mytable".into()));
    }

    #[test]
    fn comments_skipped() {
        let k = kinds("SELECT -- line comment\n 1 /* block\ncomment */ + 2");
        assert_eq!(
            k,
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::IntLit(1),
                TokenKind::Plus,
                TokenKind::IntLit(2),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn operators() {
        let k = kinds("<> != <= >= < > = || ~=");
        assert_eq!(
            k,
            vec![
                TokenKind::NotEq,
                TokenKind::NotEq,
                TokenKind::LtEq,
                TokenKind::GtEq,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eq,
                TokenKind::Concat,
                TokenKind::CrowdEq,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn errors_carry_position() {
        let err = Lexer::new("SELECT\n  @").tokenize().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(Lexer::new("'abc").tokenize().is_err());
        assert!(Lexer::new("/* abc").tokenize().is_err());
        assert!(Lexer::new("~x").tokenize().is_err());
    }
}
