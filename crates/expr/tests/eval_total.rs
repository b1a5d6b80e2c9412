//! Property: any expression that passes the static type check evaluates
//! without error on rows of the checked schema — typechecking is sound for
//! the evaluator (modulo integer overflow, excluded by the value ranges).

use ishare_common::{DataType, Value};
use ishare_expr::eval::eval;
use ishare_expr::typecheck::infer_type;
use ishare_expr::{Expr, LikePattern};
use ishare_storage::{Field, Schema};
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

fn leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0usize..5).prop_map(Expr::col),
        (-1000i64..1000).prop_map(Expr::lit),
        (-100.0f64..100.0).prop_map(Expr::lit),
        proptest::bool::ANY.prop_map(Expr::lit),
        "[a-z]{0,6}".prop_map(|s| Expr::lit(s.as_str())),
        Just(Expr::Literal(Value::Null)),
        Just(Expr::Literal(Value::Date(9000))),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    leaf().prop_recursive(3, 24, 3, |inner| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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

    #[test]
    fn column_remap_commutes_with_eval(e in arb_expr(), r in row()) {
        // Shifting columns by k and evaluating on a k-padded row equals
        // evaluating in place.
        let schema = schema();
        prop_assume!(infer_type(&e, &schema).is_ok());
        let shifted = e.shift_columns(2);
        let mut padded = vec![Value::Null, Value::Null];
        padded.extend(r.iter().cloned());
        let a = eval(&e, &r[..]);
        let b = eval(&shifted, &padded[..]);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "divergence: {:?} vs {:?}", x, y),
        }
    }
}
