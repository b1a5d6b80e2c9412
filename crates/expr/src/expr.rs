//! The expression AST and structural helpers.

use ishare_common::Value;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Logical conjunction (three-valued).
    And,
    /// Logical disjunction (three-valued).
    Or,
}

impl BinaryOp {
    /// `true` for comparison operators producing booleans.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }

    /// `true` for `And`/`Or`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Eq => "=",
            BinaryOp::Ne => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// Supported `LIKE` patterns. TPC-H only ever uses `'x%'`, `'%x'` and
/// `'%x%'` shapes, so the engine supports exactly those three (documented
/// substitution; see DESIGN.md §5).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LikePattern {
    /// `LIKE 'x%'`.
    Prefix(String),
    /// `LIKE '%x'`.
    Suffix(String),
    /// `LIKE '%x%'`.
    Contains(String),
}

impl LikePattern {
    /// Test a string against the pattern.
    pub fn matches(&self, s: &str) -> bool {
        match self {
            LikePattern::Prefix(p) => s.starts_with(p.as_str()),
            LikePattern::Suffix(p) => s.ends_with(p.as_str()),
            LikePattern::Contains(p) => s.contains(p.as_str()),
        }
    }
}

impl fmt::Display for LikePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LikePattern::Prefix(p) => write!(f, "'{p}%'"),
            LikePattern::Suffix(p) => write!(f, "'%{p}'"),
            LikePattern::Contains(p) => write!(f, "'%{p}%'"),
        }
    }
}

/// Scalar functions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarFunc {
    /// `EXTRACT(YEAR FROM <date>)` → `Int`.
    Year,
    /// `SUBSTRING(<str>, start, len)` with 1-based `start` → `Str`.
    Substr {
        /// 1-based start offset.
        start: usize,
        /// Substring length.
        len: usize,
    },
}

impl fmt::Display for ScalarFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarFunc::Year => write!(f, "year"),
            ScalarFunc::Substr { start, len } => write!(f, "substr[{start},{len}]"),
        }
    }
}

/// A scalar expression over a positional row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Reference to the input column at a position.
    Column(usize),
    /// A constant.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation (three-valued).
    Not(Box<Expr>),
    /// `<expr> IS NULL`.
    IsNull(Box<Expr>),
    /// Membership in a literal list.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Value>,
    },
    /// String pattern match.
    Like {
        /// Tested expression (must be a string).
        expr: Box<Expr>,
        /// Pattern.
        pattern: LikePattern,
    },
    /// `CASE WHEN cond THEN then ELSE els END`.
    Case {
        /// Condition.
        when: Box<Expr>,
        /// Value when the condition holds.
        then: Box<Expr>,
        /// Value otherwise (or when the condition is NULL).
        els: Box<Expr>,
    },
    /// Scalar function application.
    Func {
        /// The function.
        func: ScalarFunc,
        /// Single argument (all supported functions are unary).
        arg: Box<Expr>,
    },
}

// The builder methods deliberately mirror SQL operator names (`add`, `mul`,
// `not`, …); they are DSL constructors, not the std operator traits.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// The always-true predicate (a pass-through select branch).
    pub fn true_lit() -> Expr {
        Expr::Literal(Value::Bool(true))
    }

    /// `true` iff this is the literal `TRUE` (pass-through predicate).
    pub fn is_true_lit(&self) -> bool {
        matches!(self, Expr::Literal(Value::Bool(true)))
    }

    fn bin(op: BinaryOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(l), right: Box::new(r) }
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::bin(BinaryOp::Eq, self, other)
    }
    /// `self <> other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::bin(BinaryOp::Ne, self, other)
    }
    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::bin(BinaryOp::Lt, self, other)
    }
    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::bin(BinaryOp::Le, self, other)
    }
    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::bin(BinaryOp::Gt, self, other)
    }
    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::bin(BinaryOp::Ge, self, other)
    }
    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::bin(BinaryOp::And, self, other)
    }
    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::bin(BinaryOp::Or, self, other)
    }
    /// `self + other`.
    pub fn add(self, other: Expr) -> Expr {
        Expr::bin(BinaryOp::Add, self, other)
    }
    /// `self - other`.
    pub fn sub(self, other: Expr) -> Expr {
        Expr::bin(BinaryOp::Sub, self, other)
    }
    /// `self * other`.
    pub fn mul(self, other: Expr) -> Expr {
        Expr::bin(BinaryOp::Mul, self, other)
    }
    /// `self / other`.
    pub fn div(self, other: Expr) -> Expr {
        Expr::bin(BinaryOp::Div, self, other)
    }
    /// Logical negation.
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// `self IN (list…)`.
    pub fn in_list(self, list: Vec<Value>) -> Expr {
        Expr::InList { expr: Box::new(self), list }
    }
    /// `self LIKE pattern`.
    pub fn like(self, pattern: LikePattern) -> Expr {
        Expr::Like { expr: Box::new(self), pattern }
    }
    /// `EXTRACT(YEAR FROM self)`.
    pub fn year(self) -> Expr {
        Expr::Func { func: ScalarFunc::Year, arg: Box::new(self) }
    }
    /// `SUBSTRING(self, start, len)` (1-based start).
    pub fn substr(self, start: usize, len: usize) -> Expr {
        Expr::Func { func: ScalarFunc::Substr { start, len }, arg: Box::new(self) }
    }
    /// `CASE WHEN self THEN then ELSE els END`.
    pub fn case(self, then: Expr, els: Expr) -> Expr {
        Expr::Case { when: Box::new(self), then: Box::new(then), els: Box::new(els) }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(i) => write!(f, "#{i}"),
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::IsNull(e) => write!(f, "({e}) IS NULL"),
            Expr::InList { expr, list } => {
                write!(f, "({expr} IN (")?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match v {
                        Value::Str(s) => write!(f, "'{s}'")?,
                        other => write!(f, "{other}")?,
                    }
                }
                write!(f, "))")
            }
            Expr::Like { expr, pattern } => write!(f, "({expr} LIKE {pattern})"),
            Expr::Case { when, then, els } => {
                write!(f, "CASE WHEN {when} THEN {then} ELSE {els} END")
            }
            Expr::Func { func, arg } => write!(f, "{func}({arg})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_display() {
        let e = Expr::col(0).add(Expr::lit(1i64)).gt(Expr::col(2));
        assert_eq!(e.to_string(), "((#0 + 1) > #2)");
        let p = Expr::col(1).like(LikePattern::Prefix("PROMO".into()));
        assert_eq!(p.to_string(), "(#1 LIKE 'PROMO%')");
        let c = Expr::col(0).eq(Expr::lit(1i64)).case(Expr::lit(1i64), Expr::lit(0i64));
        assert!(c.to_string().starts_with("CASE WHEN"));
    }

    #[test]
    fn like_matching() {
        assert!(LikePattern::Prefix("ab".into()).matches("abc"));
        assert!(!LikePattern::Prefix("ab".into()).matches("xab"));
        assert!(LikePattern::Suffix("bc".into()).matches("abc"));
        assert!(LikePattern::Contains("b".into()).matches("abc"));
        assert!(!LikePattern::Contains("z".into()).matches("abc"));
    }

    #[test]
    fn op_classification() {
        assert!(BinaryOp::Eq.is_comparison());
        assert!(BinaryOp::And.is_logical());
        assert!(!BinaryOp::Mul.is_comparison());
    }
}
