//! Error type shared by the storage layer.

use std::fmt;

/// Storage-layer error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A column id was out of range for the schema.
    UnknownColumn(usize),
    /// A column name was not found in the schema.
    UnknownColumnName(String),
    /// A value's type did not match the column's declared type.
    TypeMismatch {
        column: String,
        expected: &'static str,
        got: &'static str,
    },
    /// NULL written to a non-nullable column.
    NullViolation(String),
    /// A row index was out of range.
    RowOutOfRange { row: usize, len: usize },
    /// A row id addressed a tombstoned (deleted or superseded) row in a
    /// versioned table.
    RowDeleted { row: usize },
    /// The number of values in a row did not match the schema width.
    ArityMismatch { expected: usize, got: usize },
    /// A layout did not form a disjoint cover of the schema's columns.
    InvalidLayout(String),
    /// Durability I/O failed (WAL append, checkpoint write, recovery
    /// read). Carries the rendered `std::io::Error` so this enum stays
    /// `Clone + Eq`.
    Io(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownColumn(id) => write!(f, "unknown column id {id}"),
            Error::UnknownColumnName(n) => write!(f, "unknown column name {n:?}"),
            Error::TypeMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "type mismatch on column {column:?}: expected {expected}, got {got}"
            ),
            Error::NullViolation(c) => write!(f, "NULL written to non-nullable column {c:?}"),
            Error::RowOutOfRange { row, len } => {
                write!(f, "row {row} out of range (table has {len} rows)")
            }
            Error::RowDeleted { row } => write!(f, "row {row} is deleted"),
            Error::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: schema has {expected} columns, got {got}"
                )
            }
            Error::InvalidLayout(msg) => write!(f, "invalid layout: {msg}"),
            Error::Io(msg) => write!(f, "durability I/O error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Storage-layer result.
pub type Result<T> = std::result::Result<T, Error>;
