//! Expression evaluation with SQL-style NULL semantics.
//!
//! * Arithmetic and comparisons propagate NULL.
//! * `AND`/`OR` use three-valued logic (`NULL AND FALSE = FALSE`,
//!   `NULL OR TRUE = TRUE`).
//! * [`eval_predicate`] collapses NULL to *not selected*, which is SQL's
//!   `WHERE` semantics.

use crate::expr::{BinaryOp, Expr, ScalarFunc};
use ishare_common::{days_to_ymd, Error, Result, Value};
use ishare_storage::Columns;

/// Evaluate an expression against a positional row (a [`Row`] or a value
/// slice).
///
/// [`Row`]: ishare_storage::Row
pub fn eval<R: Columns + ?Sized>(expr: &Expr, row: &R) -> Result<Value> {
    match expr {
        Expr::Column(i) => column(row, *i).cloned(),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { op, left, right } => {
            if op.is_logical() {
                return eval_logical(*op, left, right, row);
            }
            let l = eval(left, row)?;
            let r = eval(right, row)?;
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            if op.is_comparison() {
                return eval_comparison(*op, &l, &r);
            }
            eval_arithmetic(*op, &l, &r)
        }
        Expr::Not(e) => match eval(e, row)? {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(Error::TypeMismatch(format!("NOT applied to {other}"))),
        },
        Expr::IsNull(e) => Ok(Value::Bool(eval(e, row)?.is_null())),
        Expr::InList { expr, list } => {
            let v = eval(expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Bool(list.contains(&v)))
        }
        Expr::Like { expr, pattern } => {
            let v = eval(expr, row)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Bool(pattern.matches(&s))),
                other => Err(Error::TypeMismatch(format!("LIKE applied to {other}"))),
            }
        }
        Expr::Case { when, then, els } => match eval(when, row)? {
            Value::Bool(true) => eval(then, row),
            // SQL: a NULL condition falls through to ELSE.
            Value::Bool(false) | Value::Null => eval(els, row),
            other => Err(Error::TypeMismatch(format!("CASE condition evaluated to {other}"))),
        },
        Expr::Func { func, arg } => {
            let v = eval(arg, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            match func {
                ScalarFunc::Year => match v {
                    Value::Date(d) => Ok(Value::Int(days_to_ymd(d).0 as i64)),
                    other => Err(Error::TypeMismatch(format!("year() applied to {other}"))),
                },
                ScalarFunc::Substr { start, len } => match v {
                    Value::Str(s) => {
                        let begin = start.saturating_sub(1).min(s.len());
                        let end = (begin + len).min(s.len());
                        Ok(Value::str(&s[begin..end]))
                    }
                    other => Err(Error::TypeMismatch(format!("substr() applied to {other}"))),
                },
            }
        }
    }
}

/// Column `i` of `row`, or the out-of-bounds error every evaluator reports.
#[inline]
pub(crate) fn column<R: Columns + ?Sized>(row: &R, i: usize) -> Result<&Value> {
    row.column(i).ok_or_else(|| Error::ColumnOutOfBounds { index: i, arity: row.width() })
}

fn eval_logical<R: Columns + ?Sized>(
    op: BinaryOp,
    left: &Expr,
    right: &Expr,
    row: &R,
) -> Result<Value> {
    let l = to_tribool(&eval(left, row)?)?;
    // Short circuit where three-valued logic allows it.
    match (op, l) {
        (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
        (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
        _ => {}
    }
    let r = to_tribool(&eval(right, row)?)?;
    let out = match op {
        BinaryOp::And => match (l, r) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinaryOp::Or => match (l, r) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!("eval_logical called with non-logical op"),
    };
    Ok(out.map_or(Value::Null, Value::Bool))
}

pub(crate) fn to_tribool(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(Error::TypeMismatch(format!("boolean operator applied to {other}"))),
    }
}

pub(crate) fn eval_comparison(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    use std::cmp::Ordering;
    let ord = l.cmp(r);
    let b = match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::Ne => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::Le => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::Ge => ord != Ordering::Less,
        _ => unreachable!(),
    };
    Ok(Value::Bool(b))
}

pub(crate) fn eval_arithmetic(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    // Integer-preserving where both sides are Int; otherwise f64.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        let out = match op {
            BinaryOp::Add => a.checked_add(*b),
            BinaryOp::Sub => a.checked_sub(*b),
            BinaryOp::Mul => a.checked_mul(*b),
            BinaryOp::Div => {
                // Integer division follows SQL and returns NULL on /0.
                if *b == 0 {
                    return Ok(Value::Null);
                }
                a.checked_div(*b)
            }
            _ => unreachable!(),
        };
        return match out {
            Some(v) => Ok(Value::Int(v)),
            None => Err(Error::TypeMismatch(format!("integer overflow in {a} {op} {b}"))),
        };
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(Error::TypeMismatch(format!("arithmetic {op} applied to {l} and {r}"))),
    };
    let v = match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a / b
        }
        _ => unreachable!(),
    };
    Ok(Value::Float(v))
}

/// Evaluate a predicate for filtering: NULL counts as *not selected*.
pub fn eval_predicate<R: Columns + ?Sized>(expr: &Expr, row: &R) -> Result<bool> {
    match eval(expr, row)? {
        Value::Bool(b) => Ok(b),
        Value::Null => Ok(false),
        other => Err(Error::TypeMismatch(format!("predicate evaluated to {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LikePattern;
    use ishare_common::date;

    fn row() -> Vec<Value> {
        vec![
            Value::Int(10),
            Value::Float(2.5),
            Value::str("PROMO BRUSHED"),
            Value::Null,
            date("1995-06-17"),
        ]
    }

    #[test]
    fn arithmetic_and_comparison() {
        let r = &row()[..];
        assert_eq!(eval(&Expr::col(0).add(Expr::lit(5i64)), r).unwrap(), Value::Int(15));
        assert_eq!(eval(&Expr::col(0).mul(Expr::col(1)), r).unwrap(), Value::Float(25.0));
        assert_eq!(eval(&Expr::col(0).div(Expr::lit(0i64)), r).unwrap(), Value::Null);
        assert_eq!(eval(&Expr::col(1).div(Expr::lit(0.0)), r).unwrap(), Value::Null);
        assert!(eval_predicate(&Expr::col(0).ge(Expr::lit(10i64)), r).unwrap());
        assert!(!eval_predicate(&Expr::col(0).lt(Expr::lit(10i64)), r).unwrap());
        // Int/Float cross-type comparison.
        assert!(eval_predicate(&Expr::col(1).lt(Expr::lit(3i64)), r).unwrap());
    }

    #[test]
    fn null_propagation() {
        let r = &row()[..];
        assert_eq!(eval(&Expr::col(3).add(Expr::lit(1i64)), r).unwrap(), Value::Null);
        assert_eq!(eval(&Expr::col(3).eq(Expr::lit(1i64)), r).unwrap(), Value::Null);
        assert!(!eval_predicate(&Expr::col(3).eq(Expr::lit(1i64)), r).unwrap());
        assert!(eval_predicate(&Expr::IsNull(Box::new(Expr::col(3))), r).unwrap());
    }

    #[test]
    fn three_valued_logic() {
        let r = &row()[..];
        let null_pred = Expr::col(3).eq(Expr::lit(1i64)); // NULL
        let t = Expr::true_lit();
        let f = Expr::lit(false);
        // NULL AND FALSE = FALSE
        assert_eq!(eval(&null_pred.clone().and(f.clone()), r).unwrap(), Value::Bool(false));
        // NULL AND TRUE = NULL
        assert_eq!(eval(&null_pred.clone().and(t.clone()), r).unwrap(), Value::Null);
        // NULL OR TRUE = TRUE
        assert_eq!(eval(&null_pred.clone().or(t), r).unwrap(), Value::Bool(true));
        // NULL OR FALSE = NULL
        assert_eq!(eval(&null_pred.clone().or(f), r).unwrap(), Value::Null);
        // NOT NULL = NULL
        assert_eq!(eval(&null_pred.not(), r).unwrap(), Value::Null);
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        let r = &row()[..];
        // RHS would be a type error, but FALSE AND _ short-circuits.
        let bad = Expr::col(2).add(Expr::lit(1i64)); // string arithmetic: error
        let e = Expr::lit(false).and(bad.clone().eq(Expr::lit(1i64)));
        // lhs FALSE → no rhs evaluation under AND.
        assert_eq!(eval(&e, r).unwrap(), Value::Bool(false));
        let e = Expr::true_lit().or(bad.eq(Expr::lit(1i64)));
        assert_eq!(eval(&e, r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn strings_and_funcs() {
        let r = &row()[..];
        assert!(eval_predicate(&Expr::col(2).like(LikePattern::Prefix("PROMO".into())), r).unwrap());
        assert_eq!(eval(&Expr::col(2).substr(1, 5), r).unwrap(), Value::str("PROMO"));
        assert_eq!(eval(&Expr::col(2).substr(7, 100), r).unwrap(), Value::str("BRUSHED"));
        assert_eq!(eval(&Expr::col(4).year(), r).unwrap(), Value::Int(1995));
        assert_eq!(
            eval(&Expr::col(0).in_list(vec![Value::Int(9), Value::Int(10)]), r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval(&Expr::col(3).in_list(vec![Value::Int(9)]), r).unwrap(), Value::Null);
    }

    #[test]
    fn case_expression() {
        let r = &row()[..];
        let e = Expr::col(0).gt(Expr::lit(5i64)).case(Expr::lit(1i64), Expr::lit(0i64));
        assert_eq!(eval(&e, r).unwrap(), Value::Int(1));
        // NULL condition takes ELSE.
        let e = Expr::col(3).gt(Expr::lit(5i64)).case(Expr::lit(1i64), Expr::lit(0i64));
        assert_eq!(eval(&e, r).unwrap(), Value::Int(0));
    }

    #[test]
    fn type_errors_reported() {
        let r = &row()[..];
        assert!(eval(&Expr::col(2).add(Expr::lit(1i64)), r).is_err());
        assert!(eval(&Expr::col(0).like(LikePattern::Prefix("x".into())), r).is_err());
        assert!(eval(&Expr::col(0).year(), r).is_err());
        assert!(eval(&Expr::col(9), r).is_err());
        assert!(eval_predicate(&Expr::col(0), r).is_err());
    }

    #[test]
    fn overflow_is_error_not_panic() {
        let r = &[Value::Int(i64::MAX)][..];
        assert!(eval(&Expr::col(0).add(Expr::lit(1i64)), r).is_err());
    }
}
