//! Properties of expression evaluation:
//! * any expression that passes the static type check evaluates without
//!   error on rows of the checked schema — typechecking is sound for the
//!   evaluator (modulo integer overflow, excluded by the value ranges);
//! * the compiled forms, which borrow what they read, agree with the
//!   interpreter value for value, error for error — on flat rows and on
//!   joined rows made of shared segments.

use ishare_common::{DataType, Result, Value};
use ishare_expr::compile::{CompiledPredicate, Program};
use ishare_expr::eval::{eval, eval_predicate};
use ishare_expr::typecheck::infer_type;
use ishare_expr::{Expr, LikePattern};
use ishare_storage::{Field, Row, Schema};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
        Field::new("d", DataType::Date),
        Field::new("b", DataType::Bool),
    ])
}

/// Leaves over columns `0..cols`.
fn leaf(cols: usize) -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0..cols).prop_map(Expr::col),
        (-1000i64..1000).prop_map(Expr::lit),
        (-100.0f64..100.0).prop_map(Expr::lit),
        proptest::bool::ANY.prop_map(Expr::lit),
        "[a-z]{0,6}".prop_map(|s| Expr::lit(s.as_str())),
        Just(Expr::Literal(Value::Null)),
        Just(Expr::Literal(Value::Date(9000))),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    arb_expr_over(5)
}

fn arb_expr_over(cols: usize) -> impl Strategy<Value = Expr> {
    leaf(cols).prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0usize..12).prop_map(|(a, b, op)| {
                use ishare_expr::BinaryOp::*;
                let ops = [Add, Sub, Mul, Div, Eq, Ne, Lt, Le, Gt, Ge, And, Or];
                Expr::Binary { op: ops[op], left: Box::new(a), right: Box::new(b) }
            }),
            inner.clone().prop_map(|e| e.not()),
            inner.clone().prop_map(|e| Expr::IsNull(Box::new(e))),
            inner.clone().prop_map(|e| e.like(LikePattern::Contains("a".into()))),
            inner.clone().prop_map(|e| e.year()),
            inner.clone().prop_map(|e| e.substr(1, 3)),
            inner.clone().prop_map(|e| e.in_list(vec![Value::Int(7), Value::str("ab")])),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| c.case(t, e)),
        ]
    })
}

fn row() -> impl Strategy<Value = Vec<Value>> {
    (-500i64..500, -50.0f64..50.0, "[a-z]{0,8}", 0i32..20000, proptest::bool::ANY).prop_map(
        |(i, f, s, d, b)| {
            vec![
                Value::Int(i),
                Value::Float(f),
                Value::str(s.as_str()),
                Value::Date(d),
                Value::Bool(b),
            ]
        },
    )
}

/// Rows of the schema's types, any value possibly NULL, floats including
/// `-0.0` and NaN (where only bit comparison tells results apart).
fn nullable_row() -> impl Strategy<Value = Vec<Value>> {
    fn cell(v: impl Strategy<Value = Value>) -> impl Strategy<Value = Value> {
        (proptest::bool::weighted(0.2), v).prop_map(|(null, v)| if null { Value::Null } else { v })
    }
    let float = prop_oneof![
        (-50.0f64..50.0).prop_map(Value::Float),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::NAN)),
    ];
    (
        cell((-500i64..500).prop_map(Value::Int)),
        cell(float),
        cell("[a-c]{0,3}".prop_map(|s| Value::str(s.as_str()))),
        cell((0i32..20000).prop_map(Value::Date)),
        cell(proptest::bool::ANY.prop_map(Value::Bool)),
    )
        .prop_map(|(i, f, s, d, b)| vec![i, f, s, d, b])
}

/// `values` as a joined row of `1 + cuts.len()` segments (fewer where cuts
/// coincide), cut at the given positions.
fn joined(values: &[Value], cuts: &[usize]) -> Row {
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (values.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.push(values.len());
    let mut row: Option<Row> = None;
    let mut start = 0;
    for end in cuts {
        if end == start {
            continue;
        }
        let seg = Row::new(values[start..end].to_vec());
        row = Some(match row {
            Some(r) => r.concat(&seg),
            None => seg,
        });
        start = end;
    }
    row.expect("rows are never empty")
}

/// A result as a string that is equal exactly when the results are: floats
/// by their bits, other values by `Debug`, errors by their message.
fn exact(r: Result<Value>) -> String {
    match r {
        Ok(Value::Float(f)) => format!("Float({:#x})", f.to_bits()),
        Ok(v) => format!("{v:?}"),
        Err(e) => format!("error: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Program::eval` and `CompiledPredicate::matches` against the
    /// interpreter, on any expression (well-typed or not, columns up to one
    /// past the end), over the flat row and over joined rows of the same
    /// values.
    #[test]
    fn compiled_eval_matches_interpreter(
        e in arb_expr_over(6),
        values in nullable_row(),
        cuts in proptest::collection::vec(0usize..8, 0..3),
    ) {
        let program = Program::compile(&e);
        let predicate = CompiledPredicate::compile(&e);
        let want = exact(eval(&e, &values[..]));
        let want_pred = eval_predicate(&e, &values[..]).map_err(|err| err.to_string());
        let rows = [Row::new(values.clone()), joined(&values, &cuts)];
        prop_assert_eq!(exact(program.eval(&values[..])), want.clone(), "slice, {}", e);
        prop_assert_eq!(predicate.matches(&values[..]).map_err(|err| err.to_string()), want_pred.clone());
        for row in &rows {
            prop_assert_eq!(exact(eval(&e, row)), want.clone(), "interpreter on {:?}, {}", row, e);
            prop_assert_eq!(exact(program.eval(row)), want.clone(), "program on {:?}, {}", row, e);
            prop_assert_eq!(
                predicate.matches(row).map_err(|err| err.to_string()),
                want_pred.clone(),
                "predicate on {:?}, {}", row, e
            );
        }
    }

    #[test]
    fn typechecked_expressions_evaluate(e in arb_expr(), r in row()) {
        let schema = schema();
        if infer_type(&e, &schema).is_ok() {
            // Well-typed ⇒ evaluation succeeds (NULL is a value, not an
            // error); the value ranges above cannot overflow i64 within
            // depth-3 arithmetic.
            let v = eval(&e, &r[..]);
            prop_assert!(v.is_ok(), "expr {} failed: {:?}", e, v.err());
        }
    }
}
