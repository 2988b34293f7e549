//! Token model for the CrowdSQL lexer.

use std::fmt;

/// SQL keywords recognized by CrowdDB, including the CrowdSQL extensions
/// (`CROWD`, `CNULL`, `CROWDEQUAL`, `CROWDORDER`, `REF`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant is the keyword it names
pub enum Keyword {
    All,
    And,
    As,
    Asc,
    Between,
    Boolean,
    By,
    Case,
    Cast,
    Cnull,
    Create,
    Cross,
    Crowd,
    Crowdequal,
    Crowdorder,
    Delete,
    Desc,
    Distinct,
    Double,
    Drop,
    Else,
    End,
    Exists,
    Explain,
    False,
    Float,
    Foreign,
    From,
    Group,
    Having,
    If,
    In,
    Index,
    Inner,
    Insert,
    Int,
    Integer,
    Into,
    Is,
    Join,
    Key,
    Left,
    Like,
    Limit,
    Not,
    Null,
    Offset,
    On,
    Or,
    Order,
    Outer,
    Primary,
    Ref,
    References,
    Select,
    Set,
    String,
    Table,
    Text,
    Then,
    True,
    Union,
    Unique,
    Update,
    Values,
    Varchar,
    When,
    Where,
}

impl Keyword {
    /// Look up a keyword from an identifier, case-insensitively.
    #[allow(clippy::should_implement_trait)] // fallible lookup, not parsing
    pub fn from_str(s: &str) -> Option<Keyword> {
        // Upper-case into a stack buffer as long as the longest keyword;
        // a longer word is no keyword.
        let mut buf = [0u8; 10];
        let up = buf.get_mut(..s.len())?;
        up.copy_from_slice(s.as_bytes());
        up.make_ascii_uppercase();
        Some(match &*up {
            b"ALL" => Keyword::All,
            b"AND" => Keyword::And,
            b"AS" => Keyword::As,
            b"ASC" => Keyword::Asc,
            b"BETWEEN" => Keyword::Between,
            b"BOOLEAN" | b"BOOL" => Keyword::Boolean,
            b"BY" => Keyword::By,
            b"CASE" => Keyword::Case,
            b"CAST" => Keyword::Cast,
            b"CNULL" => Keyword::Cnull,
            b"CREATE" => Keyword::Create,
            b"CROSS" => Keyword::Cross,
            b"CROWD" => Keyword::Crowd,
            b"CROWDEQUAL" => Keyword::Crowdequal,
            b"CROWDORDER" => Keyword::Crowdorder,
            b"DELETE" => Keyword::Delete,
            b"DESC" => Keyword::Desc,
            b"DISTINCT" => Keyword::Distinct,
            b"DOUBLE" => Keyword::Double,
            b"DROP" => Keyword::Drop,
            b"ELSE" => Keyword::Else,
            b"END" => Keyword::End,
            b"EXISTS" => Keyword::Exists,
            b"EXPLAIN" => Keyword::Explain,
            b"FALSE" => Keyword::False,
            b"FLOAT" => Keyword::Float,
            b"FOREIGN" => Keyword::Foreign,
            b"FROM" => Keyword::From,
            b"GROUP" => Keyword::Group,
            b"HAVING" => Keyword::Having,
            b"IF" => Keyword::If,
            b"IN" => Keyword::In,
            b"INDEX" => Keyword::Index,
            b"INNER" => Keyword::Inner,
            b"INSERT" => Keyword::Insert,
            b"INT" => Keyword::Int,
            b"INTEGER" => Keyword::Integer,
            b"INTO" => Keyword::Into,
            b"IS" => Keyword::Is,
            b"JOIN" => Keyword::Join,
            b"KEY" => Keyword::Key,
            b"LEFT" => Keyword::Left,
            b"LIKE" => Keyword::Like,
            b"LIMIT" => Keyword::Limit,
            b"NOT" => Keyword::Not,
            b"NULL" => Keyword::Null,
            b"OFFSET" => Keyword::Offset,
            b"ON" => Keyword::On,
            b"OR" => Keyword::Or,
            b"ORDER" => Keyword::Order,
            b"OUTER" => Keyword::Outer,
            b"PRIMARY" => Keyword::Primary,
            b"REF" => Keyword::Ref,
            b"REFERENCES" => Keyword::References,
            b"SELECT" => Keyword::Select,
            b"SET" => Keyword::Set,
            b"STRING" => Keyword::String,
            b"TABLE" => Keyword::Table,
            b"TEXT" => Keyword::Text,
            b"THEN" => Keyword::Then,
            b"TRUE" => Keyword::True,
            b"UNION" => Keyword::Union,
            b"UNIQUE" => Keyword::Unique,
            b"UPDATE" => Keyword::Update,
            b"VALUES" => Keyword::Values,
            b"VARCHAR" => Keyword::Varchar,
            b"WHEN" => Keyword::When,
            b"WHERE" => Keyword::Where,
            _ => return None,
        })
    }
}

/// The kind of a lexed token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A recognized SQL keyword.
    Keyword(Keyword),
    /// An identifier (table/column/function name), lower-cased.
    Ident(String),
    /// A single-quoted string literal (quotes stripped, `''` unescaped).
    StringLit(String),
    /// An integer literal.
    IntLit(i64),
    /// A floating-point literal.
    FloatLit(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `~=` — CrowdSQL shorthand for `CROWDEQUAL`.
    CrowdEq,
    /// `||` — string concatenation.
    Concat,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{k:?}").map(|_| ()),
            TokenKind::Ident(s) => write!(f, "identifier '{s}'"),
            TokenKind::StringLit(s) => write!(f, "string '{s}'"),
            TokenKind::IntLit(v) => write!(f, "integer {v}"),
            TokenKind::FloatLit(v) => write!(f, "float {v}"),
            TokenKind::LParen => f.write_str("'('"),
            TokenKind::RParen => f.write_str("')'"),
            TokenKind::Comma => f.write_str("','"),
            TokenKind::Semicolon => f.write_str("';'"),
            TokenKind::Dot => f.write_str("'.'"),
            TokenKind::Star => f.write_str("'*'"),
            TokenKind::Plus => f.write_str("'+'"),
            TokenKind::Minus => f.write_str("'-'"),
            TokenKind::Slash => f.write_str("'/'"),
            TokenKind::Percent => f.write_str("'%'"),
            TokenKind::Eq => f.write_str("'='"),
            TokenKind::NotEq => f.write_str("'<>'"),
            TokenKind::Lt => f.write_str("'<'"),
            TokenKind::LtEq => f.write_str("'<='"),
            TokenKind::Gt => f.write_str("'>'"),
            TokenKind::GtEq => f.write_str("'>='"),
            TokenKind::CrowdEq => f.write_str("'~='"),
            TokenKind::Concat => f.write_str("'||'"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source position (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Token {
    /// Construct a token at a position.
    pub fn new(kind: TokenKind, line: u32, col: u32) -> Token {
        Token { kind, line, col }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_is_case_insensitive() {
        assert_eq!(Keyword::from_str("select"), Some(Keyword::Select));
        assert_eq!(Keyword::from_str("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::from_str("crowd"), Some(Keyword::Crowd));
        assert_eq!(Keyword::from_str("CNULL"), Some(Keyword::Cnull));
        assert_eq!(Keyword::from_str("nonsense"), None);
    }

    #[test]
    fn type_aliases() {
        assert_eq!(Keyword::from_str("BOOL"), Some(Keyword::Boolean));
        assert_eq!(Keyword::from_str("VARCHAR"), Some(Keyword::Varchar));
        assert_eq!(Keyword::from_str("TEXT"), Some(Keyword::Text));
    }

    #[test]
    fn words_longer_than_any_keyword_are_not_keywords() {
        assert_eq!(Keyword::from_str("CrowdOrder"), Some(Keyword::Crowdorder));
        assert_eq!(Keyword::from_str("REFERENCESX"), None);
        assert_eq!(Keyword::from_str("a_rather_long_column_name"), None);
        assert_eq!(Keyword::from_str(""), None);
    }

    #[test]
    fn crowd_extensions_present() {
        for kw in ["CROWDEQUAL", "CROWDORDER", "REF", "CNULL", "CROWD"] {
            assert!(Keyword::from_str(kw).is_some(), "missing {kw}");
        }
    }

    #[test]
    fn token_kind_display() {
        assert_eq!(TokenKind::CrowdEq.to_string(), "'~='");
        assert_eq!(
            TokenKind::Ident("abc".into()).to_string(),
            "identifier 'abc'"
        );
    }
}
