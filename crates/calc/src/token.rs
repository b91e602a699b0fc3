//! Lexer for the PITS calculator language.
//!
//! The surface syntax is the "simplified programming language" shown in
//! the lower window of the paper's Figure 4 calculator panel: keyword
//! blocks (`task`/`begin`/`end`, `if`/`then`/`else`, `while`/`do`,
//! `for`/`to`), `:=` assignment, numeric literals, identifiers and the
//! usual operator set.

use crate::error::{ParseError, Pos};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Numeric literal.
    Num(f64),
    /// Identifier (variable or function name).
    Ident(String),
    /// `task`
    Task,
    /// `in`
    In,
    /// `out`
    Out,
    /// `local`
    Local,
    /// `begin`
    Begin,
    /// `end`
    End,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `while`
    While,
    /// `do`
    Do,
    /// `for`
    For,
    /// `to`
    To,
    /// `print`
    Print,
    /// `and`
    And,
    /// `or`
    Or,
    /// `not`
    Not,
    /// `:=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `^`
    Caret,
    /// `%` (modulo)
    Percent,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// End of input.
    Eof,
}

/// A token plus its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// Where it starts.
    pub pos: Pos,
}

/// Lexes a complete source text.
///
/// The lexer walks the bytes of `src`: every token is ASCII, so a token's
/// text is a slice of `src` and only an identifier allocates (its name).
/// Columns count characters, and they still do: a non-ASCII character can
/// only sit in a comment, which runs to the end of its line, or be the
/// character an error names.
pub fn lex(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes = src.as_bytes();
    // About one token per four bytes of program text: one allocation
    // instead of a growing vector's dozen.
    let mut out = Vec::with_capacity(src.len() / 4 + 1);
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    let keyword = |s: &str| -> Option<Tok> {
        Some(match s {
            "task" => Tok::Task,
            "in" => Tok::In,
            "out" => Tok::Out,
            "local" => Tok::Local,
            "begin" => Tok::Begin,
            "end" => Tok::End,
            "if" => Tok::If,
            "then" => Tok::Then,
            "else" => Tok::Else,
            "while" => Tok::While,
            "do" => Tok::Do,
            "for" => Tok::For,
            "to" => Tok::To,
            "print" => Tok::Print,
            "and" => Tok::And,
            "or" => Tok::Or,
            "not" => Tok::Not,
            _ => return None,
        })
    };

    while i < bytes.len() {
        let pos = Pos { line, col };
        let start = i;
        // Every arm below but the newline's, the comment's and the
        // error's consumes ASCII only, so `i - start` is also the number
        // of columns it took.
        let tok = match bytes[i] {
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                col += 1;
                continue;
            }
            b'#' => {
                // Comment to end of line; the newline resets the column.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b'0'..=b'9' | b'.' => {
                let mut seen_dot = false;
                let mut seen_exp = false;
                while i < bytes.len() {
                    let d = bytes[i];
                    if d.is_ascii_digit() {
                        i += 1;
                    } else if d == b'.' && !seen_dot && !seen_exp {
                        seen_dot = true;
                        i += 1;
                    } else if (d == b'e' || d == b'E')
                        && !seen_exp
                        && exponent_digits(&bytes[i + 1..])
                    {
                        seen_exp = true;
                        i += 1;
                        if bytes[i] == b'+' || bytes[i] == b'-' {
                            i += 1;
                        }
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                let value: f64 = text.parse().map_err(|_| ParseError {
                    pos,
                    message: format!("bad number literal {text:?}"),
                })?;
                Tok::Num(value)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                keyword(word).unwrap_or_else(|| Tok::Ident(word.to_string()))
            }
            b':' if bytes.get(i + 1) == Some(&b'=') => {
                i += 2;
                Tok::Assign
            }
            b':' => {
                return Err(ParseError {
                    pos,
                    message: "expected `:=`".into(),
                })
            }
            b'<' => match bytes.get(i + 1) {
                Some(b'=') => {
                    i += 2;
                    Tok::Le
                }
                Some(b'>') => {
                    i += 2;
                    Tok::Ne
                }
                _ => {
                    i += 1;
                    Tok::Lt
                }
            },
            b'>' if bytes.get(i + 1) == Some(&b'=') => {
                i += 2;
                Tok::Ge
            }
            c => {
                i += 1;
                match c {
                    b'>' => Tok::Gt,
                    b'=' => Tok::Eq,
                    b'+' => Tok::Plus,
                    b'-' => Tok::Minus,
                    b'*' => Tok::Star,
                    b'/' => Tok::Slash,
                    b'^' => Tok::Caret,
                    b'%' => Tok::Percent,
                    b'(' => Tok::LParen,
                    b')' => Tok::RParen,
                    b'[' => Tok::LBracket,
                    b']' => Tok::RBracket,
                    b',' => Tok::Comma,
                    _ => {
                        let other = src[start..]
                            .chars()
                            .next()
                            .expect("a character starts here");
                        return Err(ParseError {
                            pos,
                            message: format!("unexpected character {other:?}"),
                        });
                    }
                }
            }
        };
        col += (i - start) as u32;
        out.push(Spanned { tok, pos });
    }
    out.push(Spanned {
        tok: Tok::Eof,
        pos: Pos { line, col },
    });
    Ok(out)
}

/// Whether `rest`, the text after an `e`/`E` in a number, starts an
/// exponent: a digit, or a sign and a digit.
fn exponent_digits(rest: &[u8]) -> bool {
    match rest {
        [d, ..] if d.is_ascii_digit() => true,
        [b'+' | b'-', d, ..] => d.is_ascii_digit(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("task Sqrt in a out x"),
            vec![
                Tok::Task,
                Tok::Ident("Sqrt".into()),
                Tok::In,
                Tok::Ident("a".into()),
                Tok::Out,
                Tok::Ident("x".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Tok::Num(42.0), Tok::Eof]);
        assert_eq!(toks("3.5"), vec![Tok::Num(3.5), Tok::Eof]);
        assert_eq!(toks("1e-3"), vec![Tok::Num(0.001), Tok::Eof]);
        assert_eq!(toks("2.5E2"), vec![Tok::Num(250.0), Tok::Eof]);
        assert_eq!(toks(".5"), vec![Tok::Num(0.5), Tok::Eof]);
    }

    #[test]
    fn number_followed_by_ident() {
        // `2e` is a number 2 followed by identifier e (no exponent digits)
        assert_eq!(
            toks("2e"),
            vec![Tok::Num(2.0), Tok::Ident("e".into()), Tok::Eof]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("x := a + b * c - d / e ^ f % g"),
            vec![
                Tok::Ident("x".into()),
                Tok::Assign,
                Tok::Ident("a".into()),
                Tok::Plus,
                Tok::Ident("b".into()),
                Tok::Star,
                Tok::Ident("c".into()),
                Tok::Minus,
                Tok::Ident("d".into()),
                Tok::Slash,
                Tok::Ident("e".into()),
                Tok::Caret,
                Tok::Ident("f".into()),
                Tok::Percent,
                Tok::Ident("g".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            toks("= <> < <= > >="),
            vec![
                Tok::Eq,
                Tok::Ne,
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a # this is a comment\nb"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn positions_tracked() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!(ts[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(ts[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn bare_colon_is_error() {
        let err = lex("a : b").unwrap_err();
        assert!(err.message.contains(":="));
        assert_eq!(err.pos.col, 3);
    }

    #[test]
    fn unknown_char_is_error() {
        assert!(lex("a $ b").is_err());
        assert!(lex("a @ b").is_err());
    }

    /// Tokens with their `(line, col)`, or the error.
    fn spanned(src: &str) -> Result<Vec<(Tok, u32, u32)>, ParseError> {
        lex(src).map(|ts| {
            ts.into_iter()
                .map(|s| (s.tok, s.pos.line, s.pos.col))
                .collect()
        })
    }

    fn ident(name: &str) -> Tok {
        Tok::Ident(name.into())
    }

    fn unexpected(line: u32, col: u32, c: char) -> Result<Vec<(Tok, u32, u32)>, ParseError> {
        Err(ParseError {
            pos: Pos { line, col },
            message: format!("unexpected character {c:?}"),
        })
    }

    // The expected values below are what the character-level lexer this
    // byte-level one replaced gave for the same texts.

    #[test]
    fn non_ascii_text_in_a_comment_moves_no_position() {
        assert_eq!(
            spanned("a # héllo wörld ✓\n  b := 1 # ü\nc"),
            Ok(vec![
                (ident("a"), 1, 1),
                (ident("b"), 2, 3),
                (Tok::Assign, 2, 5),
                (Tok::Num(1.0), 2, 8),
                (ident("c"), 3, 1),
                (Tok::Eof, 3, 2),
            ])
        );
        assert_eq!(
            spanned("# ✓✓✓\n\tx := 2 # end ünïcode\n  y"),
            Ok(vec![
                (ident("x"), 2, 2),
                (Tok::Assign, 2, 4),
                (Tok::Num(2.0), 2, 7),
                (ident("y"), 3, 3),
                (Tok::Eof, 3, 4),
            ])
        );
    }

    #[test]
    fn a_non_ascii_character_outside_a_comment_is_named_whole() {
        assert_eq!(spanned("x := é"), unexpected(1, 6, 'é'));
        assert_eq!(spanned("a ✓ b"), unexpected(1, 3, '✓'));
        assert_eq!(spanned("# ok é\n  z := 1 + ü"), unexpected(2, 12, 'ü'));
    }

    #[test]
    fn number_literals_end_where_the_number_does() {
        assert_eq!(
            spanned("1e5 .5 1. 2e-3 1e+"),
            Ok(vec![
                (Tok::Num(100000.0), 1, 1),
                (Tok::Num(0.5), 1, 5),
                (Tok::Num(1.0), 1, 8),
                (Tok::Num(0.002), 1, 11),
                (Tok::Num(1.0), 1, 16),
                (ident("e"), 1, 17),
                (Tok::Plus, 1, 18),
                (Tok::Eof, 1, 19),
            ])
        );
        assert_eq!(
            spanned("1.e5 1..2 3E+2 4e-"),
            Ok(vec![
                (Tok::Num(100000.0), 1, 1),
                (Tok::Num(1.0), 1, 6),
                (Tok::Num(0.2), 1, 8),
                (Tok::Num(300.0), 1, 11),
                (Tok::Num(4.0), 1, 16),
                (ident("e"), 1, 17),
                (Tok::Minus, 1, 18),
                (Tok::Eof, 1, 19),
            ])
        );
        assert_eq!(
            spanned("x:=1.5e3+y"),
            Ok(vec![
                (ident("x"), 1, 1),
                (Tok::Assign, 1, 2),
                (Tok::Num(1500.0), 1, 4),
                (Tok::Plus, 1, 9),
                (ident("y"), 1, 10),
                (Tok::Eof, 1, 11),
            ])
        );
        let bare_dot = Err(ParseError {
            pos: Pos { line: 1, col: 6 },
            message: "bad number literal \".\"".into(),
        });
        assert_eq!(spanned("x := ."), bare_dot);
    }

    #[test]
    fn words_that_start_with_a_keyword_are_identifiers() {
        let words = [
            "ender", "do_x", "iff", "to2", "_end", "end_", "in_", "notx", "orr",
        ];
        let want: Vec<(Tok, u32, u32)> = [1, 7, 12, 16, 20, 25, 30, 34, 39]
            .into_iter()
            .zip(words)
            .map(|(col, w)| (ident(w), 1, col))
            .chain([(Tok::Eof, 1, 42)])
            .collect();
        assert_eq!(spanned(&words.join(" ")), Ok(want));
    }

    #[test]
    fn brackets_and_commas() {
        assert_eq!(
            toks("f(a, b[1])"),
            vec![
                Tok::Ident("f".into()),
                Tok::LParen,
                Tok::Ident("a".into()),
                Tok::Comma,
                Tok::Ident("b".into()),
                Tok::LBracket,
                Tok::Num(1.0),
                Tok::RBracket,
                Tok::RParen,
                Tok::Eof
            ]
        );
    }
}
