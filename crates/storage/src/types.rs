//! Column data types and the dynamic [`Value`] representation.
//!
//! All types are stored at a fixed width inside partitions so that every
//! partition has a constant stride (`R.w` in the paper's cost model).
//! Strings occupy 4 bytes in-line: a `u32` code into the column's
//! [`crate::Dictionary`].

use std::fmt;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit signed integer.
    Int32,
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE-754 float.
    Float64,
    /// Dictionary-encoded UTF-8 string (stored as a `u32` code).
    Str,
}

impl DataType {
    /// Logical width in bytes of this type, the one the cost model and the
    /// layout advisor price. A number is stored this wide; a `Str` field's
    /// stored code is 1, 2 or 4 bytes, as its dictionary needs (see
    /// [`crate::partition::code_width`]).
    #[inline]
    pub const fn width(self) -> usize {
        match self {
            DataType::Int32 => 4,
            DataType::Int64 => 8,
            DataType::Float64 => 8,
            DataType::Str => 4,
        }
    }

    /// Human-readable name (used in error messages).
    pub const fn name(self) -> &'static str {
        match self {
            DataType::Int32 => "Int32",
            DataType::Int64 => "Int64",
            DataType::Float64 => "Float64",
            DataType::Str => "Str",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamically typed value, used at the storage API boundary (inserts,
/// point reads, query results). Hot paths in the execution engines never
/// touch `Value`; they use the typed column readers instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    Int32(i32),
    Int64(i64),
    Float64(f64),
    Str(String),
}

impl Value {
    /// The [`DataType`] this value conforms to, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int32(_) => Some(DataType::Int32),
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Int32(_) => "Int32",
            Value::Int64(_) => "Int64",
            Value::Float64(_) => "Float64",
            Value::Str(_) => "Str",
        }
    }

    /// True iff the value is SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer view (widening `Int32` to `i64`), `None` for other variants.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int32(v) => Some(*v as i64),
            Value::Int64(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric view (integers widened to `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int32(v) => Some(*v as f64),
            Value::Int64(v) => Some(*v as f64),
            Value::Float64(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int32(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int32(v) => write!(f, "{v}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Total ordering over values of the *same* type, with NULL sorting first
/// and an unordered float pair (a NaN) read as equal: the order `ORDER BY`
/// and `min`/`max` use. Mixed-type comparisons order by type tag; the
/// planner never produces them.
pub fn cmp_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    partial_cmp_values(a, b).unwrap_or(std::cmp::Ordering::Equal)
}

/// [`cmp_values`], except that a comparison with a float NaN has no order
/// (`None`), as `f64::partial_cmp` has it: the comparison a predicate
/// applies, so that NaN passes none of `=`, `<>`, `<`, `<=`, `>`, `>=`.
pub fn partial_cmp_values(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    use std::cmp::Ordering::*;
    use Value::*;
    Some(match (a, b) {
        (Null, Null) => Equal,
        (Null, _) => Less,
        (_, Null) => Greater,
        (Int32(x), Int32(y)) => x.cmp(y),
        (Int64(x), Int64(y)) => x.cmp(y),
        (Int32(x), Int64(y)) => (*x as i64).cmp(y),
        (Int64(x), Int32(y)) => x.cmp(&(*y as i64)),
        (Float64(x), Float64(y)) => return x.partial_cmp(y),
        (Float64(x), Int32(y)) => return x.partial_cmp(&(*y as f64)),
        (Float64(x), Int64(y)) => return x.partial_cmp(&(*y as f64)),
        (Int32(x), Float64(y)) => return (*x as f64).partial_cmp(y),
        (Int64(x), Float64(y)) => return (*x as f64).partial_cmp(y),
        (Str(x), Str(y)) => x.cmp(y),
        (Str(_), _) => Greater,
        (_, Str(_)) => Less,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn widths_match_paper_fixed_stride_assumption() {
        assert_eq!(DataType::Int32.width(), 4);
        assert_eq!(DataType::Int64.width(), 8);
        assert_eq!(DataType::Float64.width(), 8);
        assert_eq!(DataType::Str.width(), 4); // dictionary code
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(7i32).as_i64(), Some(7));
        assert_eq!(Value::from(7i64).as_f64(), Some(7.0));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::from(1.5).data_type(), Some(DataType::Float64));
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(cmp_values(&Value::Null, &Value::Int32(0)), Ordering::Less);
        assert_eq!(
            cmp_values(&Value::Int32(0), &Value::Null),
            Ordering::Greater
        );
        assert_eq!(cmp_values(&Value::Null, &Value::Null), Ordering::Equal);
    }

    #[test]
    fn nan_has_no_order_but_sorts_as_equal() {
        let nan = Value::Float64(f64::NAN);
        for other in [Value::Float64(1.0), Value::Int32(1), nan.clone()] {
            assert_eq!(partial_cmp_values(&nan, &other), None);
            assert_eq!(partial_cmp_values(&other, &nan), None);
            assert_eq!(cmp_values(&nan, &other), Ordering::Equal);
        }
        assert_eq!(
            partial_cmp_values(&Value::Float64(-0.0), &Value::Int64(0)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn cross_width_integer_comparison() {
        assert_eq!(
            cmp_values(&Value::Int32(5), &Value::Int64(5)),
            Ordering::Equal
        );
        assert_eq!(
            cmp_values(&Value::Int64(-1), &Value::Int32(1)),
            Ordering::Less
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::from(3i32).to_string(), "3");
        assert_eq!(Value::from("abc").to_string(), "abc");
        assert_eq!(DataType::Str.to_string(), "Str");
    }
}
