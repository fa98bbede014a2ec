//! Scalar expressions and their interpreter.
//!
//! The interpreter works on dynamically typed [`Value`]s and is deliberately
//! the *slow* path: the Volcano engine calls it per tuple (that is the
//! point of the baseline), while the bulk and compiled engines lower
//! expressions to typed kernels and never touch it in inner loops.

use pdsm_storage::types::{partial_cmp_values, Value};
use pdsm_storage::ColId;

/// Positional read access to one input row: what [`Expr::eval`] reads.
/// A row is usually one slice; a join's output can also be read as a view
/// over its build row and its probe row, without concatenating them.
pub trait Columns {
    /// The value of column `c`.
    fn col(&self, c: ColId) -> &Value;
}

impl Columns for [Value] {
    #[inline(always)]
    fn col(&self, c: ColId) -> &Value {
        &self[c]
    }
}

impl Columns for Vec<Value> {
    #[inline(always)]
    fn col(&self, c: ColId) -> &Value {
        &self[c]
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Apply to an ordering.
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// Arithmetic operators (`(price/10)*10` in the CNET queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// A scalar expression over the columns of one (logical) input row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column by position.
    Col(ColId),
    /// Literal value.
    Lit(Value),
    /// Binary comparison; NULL operands compare to false (two-valued
    /// simplification of SQL's 3VL, adequate for the benchmark queries).
    Cmp {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// SQL LIKE with `%`/`_` against a string column expression.
    Like { expr: Box<Expr>, pattern: String },
    /// Logical conjunction (short-circuiting left to right).
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction (short-circuiting left to right).
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// NULL test.
    IsNull(Box<Expr>),
    /// Integer/float arithmetic; NULL propagates.
    Arith {
        op: ArithOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
}

// The builder API deliberately uses SQL-flavoured method names (`add`,
// `not`, ...) rather than operator traits: plans read as plans.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Column reference.
    pub fn col(c: ColId) -> Expr {
        Expr::Col(c)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self op other`.
    pub fn cmp(self, op: CmpOp, other: Expr) -> Expr {
        Expr::Cmp {
            op,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Eq, other)
    }

    /// `self != other`.
    pub fn ne(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Ne, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Lt, other)
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Le, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Gt, other)
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Ge, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    /// `self LIKE pattern`.
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: pattern.into(),
        }
    }

    /// `self op other` arithmetic.
    pub fn arith(self, op: ArithOp, other: Expr) -> Expr {
        Expr::Arith {
            op,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self + other`.
    pub fn add(self, other: Expr) -> Expr {
        self.arith(ArithOp::Add, other)
    }

    /// `self - other`.
    pub fn sub(self, other: Expr) -> Expr {
        self.arith(ArithOp::Sub, other)
    }

    /// `self * other`.
    pub fn mul(self, other: Expr) -> Expr {
        self.arith(ArithOp::Mul, other)
    }

    /// `self / other`.
    pub fn div(self, other: Expr) -> Expr {
        self.arith(ArithOp::Div, other)
    }

    /// Evaluate to a [`Value`] over `row`: a slice, or any other
    /// [`Columns`] view.
    pub fn eval<R: Columns + ?Sized>(&self, row: &R) -> Value {
        match self {
            Expr::Col(c) => row.col(*c).clone(),
            Expr::Lit(v) => v.clone(),
            Expr::Cmp { op, left, right } => {
                let l = left.eval(row);
                let r = right.eval(row);
                if l.is_null() || r.is_null() {
                    return Value::Int32(0);
                }
                let pass = partial_cmp_values(&l, &r).is_some_and(|o| op.matches(o));
                Value::Int32(pass as i32)
            }
            Expr::Like { expr, pattern } => {
                let v = expr.eval(row);
                match v.as_str() {
                    Some(s) => {
                        Value::Int32(pdsm_storage::dictionary::like_match(pattern, s) as i32)
                    }
                    None => Value::Int32(0),
                }
            }
            Expr::And(a, b) => {
                if !a.eval(row).truthy() {
                    Value::Int32(0)
                } else {
                    Value::Int32(b.eval(row).truthy() as i32)
                }
            }
            Expr::Or(a, b) => {
                if a.eval(row).truthy() {
                    Value::Int32(1)
                } else {
                    Value::Int32(b.eval(row).truthy() as i32)
                }
            }
            Expr::Not(a) => Value::Int32(!a.eval(row).truthy() as i32),
            Expr::IsNull(a) => Value::Int32(a.eval(row).is_null() as i32),
            Expr::Arith { op, left, right } => {
                let l = left.eval(row);
                let r = right.eval(row);
                if l.is_null() || r.is_null() {
                    return Value::Null;
                }
                arith(*op, &l, &r)
            }
        }
    }

    /// Evaluate as a predicate.
    pub fn eval_bool<R: Columns + ?Sized>(&self, row: &R) -> bool {
        self.eval(row).truthy()
    }

    /// All referenced input columns (deduplicated, sorted).
    pub fn columns(&self) -> Vec<ColId> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<ColId>) {
        match self {
            Expr::Col(c) => out.push(*c),
            Expr::Lit(_) => {}
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(a) | Expr::IsNull(a) | Expr::Like { expr: a, .. } => a.collect_columns(out),
        }
    }

    /// Rewrite all column references through `f` (used to shift join sides).
    pub fn map_columns(&self, f: &impl Fn(ColId) -> ColId) -> Expr {
        match self {
            Expr::Col(c) => Expr::Col(f(*c)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp { op, left, right } => Expr::Cmp {
                op: *op,
                left: Box::new(left.map_columns(f)),
                right: Box::new(right.map_columns(f)),
            },
            Expr::Like { expr, pattern } => Expr::Like {
                expr: Box::new(expr.map_columns(f)),
                pattern: pattern.clone(),
            },
            Expr::And(a, b) => Expr::And(Box::new(a.map_columns(f)), Box::new(b.map_columns(f))),
            Expr::Or(a, b) => Expr::Or(Box::new(a.map_columns(f)), Box::new(b.map_columns(f))),
            Expr::Not(a) => Expr::Not(Box::new(a.map_columns(f))),
            Expr::IsNull(a) => Expr::IsNull(Box::new(a.map_columns(f))),
            Expr::Arith { op, left, right } => Expr::Arith {
                op: *op,
                left: Box::new(left.map_columns(f)),
                right: Box::new(right.map_columns(f)),
            },
        }
    }
}

fn arith(op: ArithOp, l: &Value, r: &Value) -> Value {
    // Integer op integer stays integer; anything involving floats is float.
    match (l, r) {
        (Value::Float64(_), _) | (_, Value::Float64(_)) => {
            let (a, b) = (l.as_f64().unwrap(), r.as_f64().unwrap());
            Value::Float64(match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => a / b,
                ArithOp::Mod => a % b,
            })
        }
        _ => {
            let (a, b) = (l.as_i64().unwrap_or(0), r.as_i64().unwrap_or(0));
            match op {
                ArithOp::Add => Value::Int64(a.wrapping_add(b)),
                ArithOp::Sub => Value::Int64(a.wrapping_sub(b)),
                ArithOp::Mul => Value::Int64(a.wrapping_mul(b)),
                ArithOp::Div => {
                    if b == 0 {
                        Value::Null
                    } else {
                        Value::Int64(a / b)
                    }
                }
                ArithOp::Mod => {
                    if b == 0 {
                        Value::Null
                    } else {
                        Value::Int64(a % b)
                    }
                }
            }
        }
    }
}

/// The AND-conjuncts of a predicate, in evaluation order — what scans
/// compile to kernels one by one and what the planner prices per conjunct.
pub fn conjuncts(pred: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        match e {
            Expr::And(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            other => out.push(other),
        }
    }
    walk(pred, &mut out);
    out
}

/// Decompose `col ⟨op⟩ literal` into `(col, op, literal)`. The literal may
/// stand on either side; `op` is flipped so it always reads column-first.
pub fn simple_cmp(e: &Expr) -> Option<(ColId, CmpOp, &Value)> {
    if let Expr::Cmp { op, left, right } = e {
        match (left.as_ref(), right.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) => return Some((*c, *op, v)),
            (Expr::Lit(v), Expr::Col(c)) => {
                let flipped = match op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    other => *other,
                };
                return Some((*c, flipped, v));
            }
            _ => {}
        }
    }
    None
}

/// Truthiness of a value used as a predicate result.
trait Truthy {
    fn truthy(&self) -> bool;
}

impl Truthy for Value {
    fn truthy(&self) -> bool {
        match self {
            Value::Int32(v) => *v != 0,
            Value::Int64(v) => *v != 0,
            Value::Float64(v) => *v != 0.0,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![
            Value::Int32(10),
            Value::Str("hello world".into()),
            Value::Float64(2.5),
            Value::Null,
        ]
    }

    #[test]
    fn comparisons() {
        let r = row();
        assert!(Expr::col(0).eq(Expr::lit(10)).eval_bool(&r));
        assert!(Expr::col(0).lt(Expr::lit(11)).eval_bool(&r));
        assert!(Expr::col(0).ge(Expr::lit(10)).eval_bool(&r));
        assert!(!Expr::col(0).ne(Expr::lit(10)).eval_bool(&r));
        assert!(Expr::col(2).gt(Expr::lit(2.0)).eval_bool(&r));
    }

    #[test]
    fn null_comparisons_are_false() {
        let r = row();
        assert!(!Expr::col(3).eq(Expr::lit(0)).eval_bool(&r));
        assert!(!Expr::col(3).ne(Expr::lit(0)).eval_bool(&r));
        assert!(Expr::col(3).is_null().eval_bool(&r));
        assert!(!Expr::col(0).is_null().eval_bool(&r));
    }

    #[test]
    fn boolean_connectives() {
        let r = row();
        let t = Expr::col(0).eq(Expr::lit(10));
        let f = Expr::col(0).eq(Expr::lit(11));
        assert!(t.clone().and(t.clone()).eval_bool(&r));
        assert!(!t.clone().and(f.clone()).eval_bool(&r));
        assert!(t.clone().or(f.clone()).eval_bool(&r));
        assert!(f.clone().or(t.clone()).eval_bool(&r));
        assert!(!f.clone().or(f.clone()).eval_bool(&r));
        assert!(f.not().eval_bool(&r));
    }

    #[test]
    fn like_predicate() {
        let r = row();
        assert!(Expr::col(1).like("hello%").eval_bool(&r));
        assert!(Expr::col(1).like("%world").eval_bool(&r));
        assert!(!Expr::col(1).like("%xyz%").eval_bool(&r));
        // LIKE over non-string is false
        assert!(!Expr::col(0).like("1%").eval_bool(&r));
    }

    #[test]
    fn arithmetic_and_nulls() {
        let r = row();
        // (10 / 3) * 3 = 9 (integer division, the CNET price-bucket idiom)
        let bucket = Expr::col(0).div(Expr::lit(3)).mul(Expr::lit(3));
        assert_eq!(bucket.eval(&r), Value::Int64(9));
        assert_eq!(
            Expr::col(2).add(Expr::lit(0.5)).eval(&r),
            Value::Float64(3.0)
        );
        assert_eq!(Expr::col(3).add(Expr::lit(1)).eval(&r), Value::Null);
        assert_eq!(Expr::col(0).div(Expr::lit(0)).eval(&r), Value::Null);
    }

    #[test]
    fn conjuncts_split_ands_in_evaluation_order() {
        let a = Expr::col(0).eq(Expr::lit(1));
        let b = Expr::col(1).lt(Expr::lit(2));
        let c = Expr::col(2).gt(Expr::lit(3)).or(Expr::col(3).is_null());
        let pred = a.clone().and(b.clone()).and(c.clone());
        assert_eq!(conjuncts(&pred), vec![&a, &b, &c]);
        // nested on the right, and a lone non-AND predicate
        let pred = a.clone().and(b.clone().and(c.clone()));
        assert_eq!(conjuncts(&pred), vec![&a, &b, &c]);
        assert_eq!(conjuncts(&c), vec![&c]);
    }

    #[test]
    fn simple_cmp_reads_column_first_in_either_orientation() {
        let seven = Value::Int32(7);
        let e = Expr::col(4).le(Expr::lit(7));
        assert_eq!(simple_cmp(&e), Some((4, CmpOp::Le, &seven)));
        for (op, flipped) in [
            (CmpOp::Lt, CmpOp::Gt),
            (CmpOp::Le, CmpOp::Ge),
            (CmpOp::Gt, CmpOp::Lt),
            (CmpOp::Ge, CmpOp::Le),
            (CmpOp::Eq, CmpOp::Eq),
            (CmpOp::Ne, CmpOp::Ne),
        ] {
            let e = Expr::lit(7).cmp(op, Expr::col(4));
            assert_eq!(simple_cmp(&e), Some((4, flipped, &seven)), "{op:?}");
        }
        // column-column, arithmetic and non-comparisons are not simple
        assert_eq!(simple_cmp(&Expr::col(0).eq(Expr::col(1))), None);
        assert_eq!(
            simple_cmp(&Expr::col(0).add(Expr::lit(1)).eq(Expr::lit(2))),
            None
        );
        assert_eq!(simple_cmp(&Expr::col(0).is_null()), None);
    }

    #[test]
    fn columns_and_mapping() {
        let e = Expr::col(2)
            .gt(Expr::lit(1))
            .and(Expr::col(0).eq(Expr::col(2)))
            .or(Expr::col(5).like("x%"));
        assert_eq!(e.columns(), vec![0, 2, 5]);
        let shifted = e.map_columns(&|c| c + 10);
        assert_eq!(shifted.columns(), vec![10, 12, 15]);
    }
}
