//! Lexer for the kernel language.

use crate::error::{FrontendError, Span};

/// The kind of a lexical token. An identifier borrows its text from the
/// source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TokenKind<'src> {
    /// The `kernel` keyword.
    Kernel,
    /// The `let` keyword.
    Let,
    /// The `out` keyword.
    Out,
    /// An identifier (variable, kernel or function name).
    Ident(&'src str),
    /// The magnitude of an integer literal, at most 2^31: the sign is the
    /// parser's, and only a negated literal may reach 2^31.
    Number(u32),
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `<<`
    ShiftLeft,
    /// `>>`
    ShiftRight,
    /// `&`
    Ampersand,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `=`
    Equals,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// End of input.
    #[default]
    Eof,
}

impl TokenKind<'_> {
    /// Short human-readable description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Kernel => "`kernel`".into(),
            TokenKind::Let => "`let`".into(),
            TokenKind::Out => "`out`".into(),
            TokenKind::Ident(name) => format!("identifier `{name}`"),
            TokenKind::Number(value) => format!("number `{value}`"),
            TokenKind::Plus => "`+`".into(),
            TokenKind::Minus => "`-`".into(),
            TokenKind::Star => "`*`".into(),
            TokenKind::ShiftLeft => "`<<`".into(),
            TokenKind::ShiftRight => "`>>`".into(),
            TokenKind::Ampersand => "`&`".into(),
            TokenKind::Pipe => "`|`".into(),
            TokenKind::Caret => "`^`".into(),
            TokenKind::Equals => "`=`".into(),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::LBrace => "`{`".into(),
            TokenKind::RBrace => "`}`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Semicolon => "`;`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// A token together with its source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Token<'src> {
    /// The token kind and payload.
    pub kind: TokenKind<'src>,
    /// Where the token starts.
    pub span: Span,
}

/// A hand-written lexer, read a token at a time or all at once.
///
/// Comments start with `#` and run to the end of the line. Whitespace is
/// insignificant.
///
/// # Example
///
/// ```
/// use overlay_frontend::{Lexer, TokenKind};
///
/// # fn main() -> Result<(), overlay_frontend::FrontendError> {
/// let tokens = Lexer::new("let y = x * 3;").tokenize()?;
/// assert_eq!(tokens[0].kind, TokenKind::Let);
/// assert_eq!(tokens[5].kind, TokenKind::Number(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Lexer<'src> {
    source: &'src str,
    /// Byte offset of the next unread character.
    index: usize,
    line: usize,
    /// Byte offset of the line's first character.
    line_start: usize,
    /// The line's bytes so far past each character's first: columns count characters.
    wide: usize,
    /// The first lexical error, where the stream ends with [`TokenKind::Eof`].
    pub(crate) error: Option<FrontendError>,
}

/// The largest literal magnitude: `-2147483648` is an `i32`.
pub(crate) const MAX_MAGNITUDE: u32 = 1 << 31;

impl<'src> Lexer<'src> {
    /// Creates a lexer over `source`.
    pub fn new(source: &'src str) -> Self {
        Lexer {
            source,
            index: 0,
            line: 1,
            line_start: 0,
            wide: 0,
            error: None,
        }
    }

    fn span(&self) -> Span {
        Span {
            line: self.line,
            column: self.index - self.line_start - self.wide + 1,
        }
    }

    /// The character at the cursor; the cursor is always on a boundary.
    fn peek_char(&self) -> Option<char> {
        self.source[self.index..].chars().next()
    }

    /// Consumes the run of ASCII bytes `accepted` holds for and returns it.
    fn take_while(&mut self, accepted: impl Fn(u8) -> bool) -> &'src str {
        let rest = &self.source.as_bytes()[self.index..];
        let len = rest.iter().take_while(|&&byte| accepted(byte)).count();
        self.index += len;
        &self.source[self.index - len..self.index]
    }

    fn skip_whitespace_and_comments(&mut self) {
        let bytes = self.source.as_bytes();
        while let Some(&byte) = bytes.get(self.index) {
            match byte {
                b'\n' => {
                    self.index += 1;
                    self.line += 1;
                    self.line_start = self.index;
                    self.wide = 0;
                }
                b'\t' | b'\x0B' | b'\x0C' | b'\r' | b' ' => self.index += 1,
                b'#' => {
                    let comment = &bytes[self.index..];
                    let len = comment.iter().position(|&b| b == b'\n');
                    let comment = &comment[..len.unwrap_or(comment.len())];
                    let continuing = comment.iter().filter(|&&b| b & 0xC0 == 0x80);
                    self.wide += continuing.count();
                    self.index += comment.len();
                }
                // Whitespace beyond ASCII is still whitespace.
                0x80.. => match self.peek_char() {
                    Some(ch) if ch.is_whitespace() => {
                        self.index += ch.len_utf8();
                        self.wide += ch.len_utf8() - 1;
                    }
                    _ => return,
                },
                _ => return,
            }
        }
    }

    /// Consumes the whole input and returns the token stream, ending with an
    /// [`TokenKind::Eof`] token.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::UnexpectedChar`] for characters outside the
    /// language and [`FrontendError::LiteralOutOfRange`] for numeric literals
    /// above 2^31.
    pub fn tokenize(mut self) -> Result<Vec<Token<'src>>, FrontendError> {
        // A token and the space after it rarely take fewer than two bytes.
        let mut tokens = Vec::with_capacity(self.source.len() / 2 + 1);
        let mut token = Token::default();
        loop {
            self.read(&mut token);
            tokens.push(token);
            if token.kind == TokenKind::Eof {
                return self.error.map_or(Ok(tokens), Err);
            }
        }
    }

    /// Consumes and returns the next token; [`TokenKind::Eof`] at the end of
    /// the input, again on every later call.
    ///
    /// # Errors
    ///
    /// As [`Lexer::tokenize`], for the token in hand. A lexical error ends
    /// the stream: every later call reports it again.
    pub fn next_token(&mut self) -> Result<Token<'src>, FrontendError> {
        let mut token = Token::default();
        self.read(&mut token);
        match &self.error {
            Some(error) if token.kind == TokenKind::Eof => Err(error.clone()),
            _ => Ok(token),
        }
    }

    /// Ends the stream at `error`.
    fn fail(&mut self, error: FrontendError, token: &mut Token<'src>) {
        self.error = Some(error);
        self.index = self.source.len();
        self.read(token);
    }

    /// Reads the next token into `token` where it lies, or
    /// [`TokenKind::Eof`] once the input or a lexical error ends: the
    /// parser's path carries no error and copies no returned token.
    pub(crate) fn read(&mut self, token: &mut Token<'src>) {
        self.skip_whitespace_and_comments();
        token.span = self.span();
        let span = token.span;
        let Some(&byte) = self.source.as_bytes().get(self.index) else {
            return token.kind = TokenKind::Eof;
        };
        let kind = if byte.is_ascii_alphabetic() || byte == b'_' {
            match self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_') {
                "kernel" => TokenKind::Kernel,
                "let" => TokenKind::Let,
                "out" => TokenKind::Out,
                ident => TokenKind::Ident(ident),
            }
        } else if byte.is_ascii_digit() {
            let text = self.take_while(|b| b.is_ascii_digit());
            match text.parse() {
                Ok(magnitude) if magnitude <= MAX_MAGNITUDE => TokenKind::Number(magnitude),
                _ => {
                    let text = text.to_owned();
                    return self.fail(FrontendError::LiteralOutOfRange { text, span }, token);
                }
            }
        } else {
            let second = self.source.as_bytes().get(self.index + 1);
            let kind = match byte {
                b'+' => TokenKind::Plus,
                b'-' => TokenKind::Minus,
                b'*' => TokenKind::Star,
                b'&' => TokenKind::Ampersand,
                b'|' => TokenKind::Pipe,
                b'^' => TokenKind::Caret,
                b'=' => TokenKind::Equals,
                b'(' => TokenKind::LParen,
                b')' => TokenKind::RParen,
                b'{' => TokenKind::LBrace,
                b'}' => TokenKind::RBrace,
                b',' => TokenKind::Comma,
                b';' => TokenKind::Semicolon,
                b'<' if second == Some(&b'<') => TokenKind::ShiftLeft,
                b'>' if second == Some(&b'>') => TokenKind::ShiftRight,
                _ => {
                    let ch = self.peek_char().unwrap_or_default();
                    return self.fail(FrontendError::UnexpectedChar { ch, span }, token);
                }
            };
            self.index += if matches!(byte, b'<' | b'>') { 2 } else { 1 };
            kind
        };
        token.kind = kind;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(source: &str) -> Vec<TokenKind<'_>> {
        Lexer::new(source)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn keywords_identifiers_and_numbers() {
        let kinds = kinds("kernel foo(x) { let y = x * 42; out z = y; }");
        assert_eq!(kinds[0], TokenKind::Kernel);
        assert_eq!(kinds[1], TokenKind::Ident("foo"));
        assert!(kinds.contains(&TokenKind::Number(42)));
        assert!(kinds.contains(&TokenKind::Out));
        assert_eq!(*kinds.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn comments_and_whitespace_are_skipped() {
        let kinds = kinds("# a comment\n  let x = 1; # trailing\n");
        assert_eq!(
            kinds,
            vec![
                TokenKind::Let,
                TokenKind::Ident("x"),
                TokenKind::Equals,
                TokenKind::Number(1),
                TokenKind::Semicolon,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn shift_operators_are_two_characters() {
        let kinds = kinds("a << 2 >> 1");
        assert!(kinds.contains(&TokenKind::ShiftLeft));
        assert!(kinds.contains(&TokenKind::ShiftRight));
    }

    #[test]
    fn unexpected_character_is_reported_with_position() {
        let err = Lexer::new("let x = $;").tokenize().unwrap_err();
        match err {
            FrontendError::UnexpectedChar { ch, span } => {
                assert_eq!(ch, '$');
                assert_eq!(span.line, 1);
                assert_eq!(span.column, 9);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn oversized_literal_is_rejected() {
        let err = Lexer::new("let x = 99999999999;").tokenize().unwrap_err();
        assert!(matches!(err, FrontendError::LiteralOutOfRange { .. }));
    }

    #[test]
    fn the_largest_magnitude_is_two_to_the_31() {
        assert_eq!(kinds("2147483648")[0], TokenKind::Number(1 << 31));
        for text in ["2147483649", "4294967296", "18446744073709551616"] {
            let err = Lexer::new(text).tokenize().unwrap_err();
            let span = Span { line: 1, column: 1 };
            let text = text.to_owned();
            assert_eq!(err, FrontendError::LiteralOutOfRange { text, span });
        }
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        let tokens = Lexer::new("# \u{3bb}\u{2003}\n\u{a0}x # \u{3bb}\u{3bb}")
            .tokenize()
            .unwrap();
        assert_eq!(tokens[0].span, Span { line: 2, column: 2 });
        assert_eq!(tokens[1].span, Span { line: 2, column: 8 });
        assert_eq!(tokens[1].kind, TokenKind::Eof);
    }

    #[test]
    fn line_and_column_tracking() {
        let tokens = Lexer::new("let x = 1;\nlet y = 2;").tokenize().unwrap();
        let second_let = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Let)
            .nth(1)
            .unwrap();
        assert_eq!(second_let.span.line, 2);
        assert_eq!(second_let.span.column, 1);
    }
}
