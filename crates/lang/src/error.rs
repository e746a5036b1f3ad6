//! Language-level errors with source positions.

use std::fmt;

use mera_core::CoreError;

/// A line/column source position (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number, starting at 1.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors from lexing, parsing or lowering XRA source.
#[derive(Debug, Clone, PartialEq)]
pub enum LangError {
    /// Lexical error at a position.
    Lex {
        /// Where.
        pos: Pos,
        /// What went wrong.
        message: String,
    },
    /// Parse error at a position.
    Parse {
        /// Where.
        pos: Pos,
        /// What went wrong.
        message: String,
    },
    /// A semantic error from lowering (schema resolution, typing).
    Semantic(CoreError),
}

impl LangError {
    /// Builds a lexical error.
    pub fn lex(pos: Pos, message: impl Into<String>) -> Self {
        LangError::Lex {
            pos,
            message: message.into(),
        }
    }

    /// Builds a parse error.
    pub fn parse(pos: Pos, message: impl Into<String>) -> Self {
        LangError::Parse {
            pos,
            message: message.into(),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Lex { pos, message } => write!(f, "lex error at {pos}: {message}"),
            LangError::Parse { pos, message } => write!(f, "parse error at {pos}: {message}"),
            LangError::Semantic(e) => write!(f, "semantic error: {e}"),
        }
    }
}

impl std::error::Error for LangError {}

impl From<CoreError> for LangError {
    fn from(e: CoreError) -> Self {
        LangError::Semantic(e)
    }
}

/// Result alias for language operations.
pub type LangResult<T> = Result<T, LangError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = LangError::parse(Pos { line: 3, col: 7 }, "expected ')'");
        assert_eq!(e.to_string(), "parse error at 3:7: expected ')'");
        let e = LangError::lex(Pos { line: 1, col: 1 }, "bad char");
        assert!(e.to_string().contains("1:1"));
    }

    #[test]
    fn core_errors_convert() {
        let e: LangError = CoreError::UnknownRelation("beer".into()).into();
        assert!(matches!(e, LangError::Semantic(_)));
        assert!(e.to_string().contains("beer"));
    }
}
