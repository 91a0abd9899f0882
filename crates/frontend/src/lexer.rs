//! Lexer for the kernel language.

use crate::error::{FrontendError, Span};

/// The kind of a lexical token. An identifier borrows its text from the
/// source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// 1-based, in characters.
    column: usize,
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
            column: 1,
        }
    }

    /// The source text this lexer reads from.
    pub fn source(&self) -> &'src str {
        self.source
    }

    fn span(&self) -> Span {
        Span {
            line: self.line,
            column: self.column,
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.source.as_bytes().get(self.index).copied()
    }

    /// The character at the cursor; the cursor is always on a boundary.
    fn peek_char(&self) -> Option<char> {
        self.source[self.index..].chars().next()
    }

    /// Steps over `bytes` bytes holding `chars` characters, none a newline.
    fn advance(&mut self, bytes: usize, chars: usize) {
        self.index += bytes;
        self.column += chars;
    }

    /// Consumes the run of ASCII bytes `accepted` holds for and returns it.
    fn take_while(&mut self, accepted: impl Fn(u8) -> bool) -> &'src str {
        let rest = &self.source.as_bytes()[self.index..];
        let len = rest.iter().take_while(|&&byte| accepted(byte)).count();
        let run = &self.source[self.index..self.index + len];
        self.advance(len, len);
        run
    }

    fn skip_whitespace_and_comments(&mut self) {
        while let Some(byte) = self.peek_byte() {
            match byte {
                b'\n' => {
                    self.index += 1;
                    self.line += 1;
                    self.column = 1;
                }
                b'\t' | b'\x0B' | b'\x0C' | b'\r' | b' ' => self.advance(1, 1),
                b'#' => {
                    let rest = &self.source[self.index..];
                    let comment = &rest[..rest.find('\n').unwrap_or(rest.len())];
                    self.advance(comment.len(), comment.chars().count());
                }
                // Whitespace beyond ASCII is still whitespace.
                0x80.. => match self.peek_char() {
                    Some(ch) if ch.is_whitespace() => self.advance(ch.len_utf8(), 1),
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
        loop {
            let token = self.next_token()?;
            tokens.push(token);
            if token.kind == TokenKind::Eof {
                return Ok(tokens);
            }
        }
    }

    /// Consumes and returns the next token; [`TokenKind::Eof`] at the end of
    /// the input, again on every later call.
    ///
    /// # Errors
    ///
    /// As [`Lexer::tokenize`], for the token in hand.
    pub fn next_token(&mut self) -> Result<Token<'src>, FrontendError> {
        self.skip_whitespace_and_comments();
        let span = self.span();
        let Some(byte) = self.peek_byte() else {
            let kind = TokenKind::Eof;
            return Ok(Token { kind, span });
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
            let magnitude = text.parse().ok().filter(|&m: &u32| m <= MAX_MAGNITUDE);
            TokenKind::Number(magnitude.ok_or_else(|| FrontendError::LiteralOutOfRange {
                text: text.to_owned(),
                span,
            })?)
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
                    let ch = self.peek_char().expect("a byte is left");
                    return Err(FrontendError::UnexpectedChar { ch, span });
                }
            };
            let len = if matches!(byte, b'<' | b'>') { 2 } else { 1 };
            self.advance(len, len);
            kind
        };
        Ok(Token { kind, span })
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
