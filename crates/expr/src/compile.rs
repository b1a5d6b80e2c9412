//! Compiled expressions: one-time lowering of [`Expr`] trees into flat,
//! column-resolved programs for the hot-path datapath kernels.
//!
//! The interpreter in [`crate::eval`] walks a boxed tree per row; operators
//! evaluate the same expression millions of times, so the kernels lower each
//! expression *once* at executor-build time:
//!
//! * [`Program`] — the general form: the tree flattened into an arena
//!   (`Vec<Node>` addressed by `u32`), with literals pre-extracted. One
//!   contiguous allocation per expression, no `Box` pointer chasing.
//! * [`CompiledPredicate`] — select-branch fast paths: constant `TRUE`
//!   (pass-through branches) and the dominant `col ⊕ literal` shape, which
//!   evaluates with one bounds check and one `Value::cmp` — no tree at all.
//! * [`CompiledProjection`] — projection fast paths: pure column gathers,
//!   and the identity projection (columns `0..n` over an `n`-ary row) which
//!   reuses the input row's allocation outright.
//! * [`CompiledScalar`] — join keys / group keys / aggregate arguments,
//!   where a bare column reference is the overwhelmingly common shape.
//!
//! Lowering is structure-preserving: evaluation order, NULL semantics,
//! three-valued short-circuiting, and every error message are identical to
//! the interpreter (the kernel-equivalence suites assert this bit-for-bit
//! through the engine's work totals and results).

use crate::eval::{eval_arithmetic, eval_comparison, to_tribool};
use crate::expr::{BinaryOp, Expr, LikePattern, ScalarFunc};
use ishare_common::{days_to_ymd, norm_f64_bits, Error, Result, Value};
use ishare_storage::columnar::{Column, ColumnBuilder, ColumnarBatch};
use std::cmp::Ordering;

/// One lowered expression node; children are arena indices.
#[derive(Debug, Clone)]
enum Node {
    Col(u32),
    Lit(Value),
    /// Non-logical binary op (comparison or arithmetic).
    Bin {
        op: BinaryOp,
        l: u32,
        r: u32,
    },
    /// `AND`/`OR` with three-valued short-circuit.
    Logical {
        op: BinaryOp,
        l: u32,
        r: u32,
    },
    Not(u32),
    IsNull(u32),
    InList {
        e: u32,
        list: Vec<Value>,
    },
    Like {
        e: u32,
        pattern: LikePattern,
    },
    Case {
        when: u32,
        then: u32,
        els: u32,
    },
    Func {
        func: ScalarFunc,
        arg: u32,
    },
}

/// An [`Expr`] lowered into a flat arena.
#[derive(Debug, Clone)]
pub struct Program {
    nodes: Vec<Node>,
    root: u32,
}

impl Program {
    /// Lower `expr`. Infallible: every `Expr` has a program form.
    pub fn compile(expr: &Expr) -> Program {
        let mut nodes = Vec::new();
        let root = lower(expr, &mut nodes);
        Program { nodes, root }
    }

    /// Evaluate against a positional row; semantics identical to
    /// [`crate::eval::eval`].
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        self.eval_node(self.root, row)
    }

    fn eval_node(&self, idx: u32, row: &[Value]) -> Result<Value> {
        match &self.nodes[idx as usize] {
            Node::Col(i) => {
                let i = *i as usize;
                row.get(i).cloned().ok_or(Error::ColumnOutOfBounds { index: i, arity: row.len() })
            }
            Node::Lit(v) => Ok(v.clone()),
            Node::Bin { op, l, r } => {
                let lv = self.eval_node(*l, row)?;
                let rv = self.eval_node(*r, row)?;
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                if op.is_comparison() {
                    eval_comparison(*op, &lv, &rv)
                } else {
                    eval_arithmetic(*op, &lv, &rv)
                }
            }
            Node::Logical { op, l, r } => {
                let lv = to_tribool(self.eval_node(*l, row)?)?;
                match (op, lv) {
                    (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
                    (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
                    _ => {}
                }
                let rv = to_tribool(self.eval_node(*r, row)?)?;
                let out = match op {
                    BinaryOp::And => match (lv, rv) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    },
                    BinaryOp::Or => match (lv, rv) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    },
                    _ => unreachable!("Logical node with non-logical op"),
                };
                Ok(out.map_or(Value::Null, Value::Bool))
            }
            Node::Not(e) => match self.eval_node(*e, row)? {
                Value::Null => Ok(Value::Null),
                Value::Bool(b) => Ok(Value::Bool(!b)),
                other => Err(Error::TypeMismatch(format!("NOT applied to {other}"))),
            },
            Node::IsNull(e) => Ok(Value::Bool(self.eval_node(*e, row)?.is_null())),
            Node::InList { e, list } => {
                let v = self.eval_node(*e, row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Bool(list.contains(&v)))
            }
            Node::Like { e, pattern } => match self.eval_node(*e, row)? {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Bool(pattern.matches(&s))),
                other => Err(Error::TypeMismatch(format!("LIKE applied to {other}"))),
            },
            Node::Case { when, then, els } => match self.eval_node(*when, row)? {
                Value::Bool(true) => self.eval_node(*then, row),
                Value::Bool(false) | Value::Null => self.eval_node(*els, row),
                other => Err(Error::TypeMismatch(format!("CASE condition evaluated to {other}"))),
            },
            Node::Func { func, arg } => {
                let v = self.eval_node(*arg, row)?;
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
}

impl Program {
    /// `Some(i)` iff this program is a bare column reference — the batch
    /// projection kernel turns such outputs into column gathers.
    fn as_col(&self) -> Option<usize> {
        match &self.nodes[self.root as usize] {
            Node::Col(i) => Some(*i as usize),
            _ => None,
        }
    }
}

/// Post-order lowering: children first, so every child index is final
/// before its parent node is pushed.
fn lower(expr: &Expr, nodes: &mut Vec<Node>) -> u32 {
    let node = match expr {
        Expr::Column(i) => Node::Col(*i as u32),
        Expr::Literal(v) => Node::Lit(v.clone()),
        Expr::Binary { op, left, right } => {
            let l = lower(left, nodes);
            let r = lower(right, nodes);
            if op.is_logical() {
                Node::Logical { op: *op, l, r }
            } else {
                Node::Bin { op: *op, l, r }
            }
        }
        Expr::Not(e) => Node::Not(lower(e, nodes)),
        Expr::IsNull(e) => Node::IsNull(lower(e, nodes)),
        Expr::InList { expr, list } => Node::InList { e: lower(expr, nodes), list: list.clone() },
        Expr::Like { expr, pattern } => {
            Node::Like { e: lower(expr, nodes), pattern: pattern.clone() }
        }
        Expr::Case { when, then, els } => Node::Case {
            when: lower(when, nodes),
            then: lower(then, nodes),
            els: lower(els, nodes),
        },
        Expr::Func { func, arg } => Node::Func { func: func.clone(), arg: lower(arg, nodes) },
    };
    let idx = u32::try_from(nodes.len()).expect("program arena overflow");
    nodes.push(node);
    idx
}

/// A compiled select-branch predicate.
#[derive(Debug, Clone)]
pub enum CompiledPredicate {
    /// Constant `TRUE` (a pass-through branch): always selected, no eval.
    True,
    /// `col ⊕ literal` for a comparison `⊕` — the dominant TPC-H predicate
    /// shape. One bounds check, one `Value::cmp`.
    ColCmpLit {
        /// Input column index.
        col: usize,
        /// The comparison operator.
        op: BinaryOp,
        /// The literal right-hand side.
        lit: Value,
    },
    /// Anything else, via the flattened [`Program`].
    General(Program),
}

impl CompiledPredicate {
    /// Lower a predicate expression.
    pub fn compile(expr: &Expr) -> CompiledPredicate {
        if expr.is_true_lit() {
            return CompiledPredicate::True;
        }
        if let Expr::Binary { op, left, right } = expr {
            if op.is_comparison() {
                if let (Expr::Column(i), Expr::Literal(v)) = (left.as_ref(), right.as_ref()) {
                    return CompiledPredicate::ColCmpLit { col: *i, op: *op, lit: v.clone() };
                }
            }
        }
        CompiledPredicate::General(Program::compile(expr))
    }

    /// The single column the `ColCmpLit` fast path reads, if this predicate
    /// compiled to that shape. `True` reads nothing and `General` programs
    /// evaluate over backing rows — so this is exactly the set of columns
    /// [`Self::eval_batch`] needs materialized, which late-materializing
    /// callers feed to `ColumnarBatch::from_rows_pruned`.
    #[inline]
    pub fn fast_path_col(&self) -> Option<usize> {
        match self {
            CompiledPredicate::ColCmpLit { col, .. } => Some(*col),
            CompiledPredicate::True | CompiledPredicate::General(_) => None,
        }
    }

    /// Evaluate as a filter predicate: NULL counts as *not selected*
    /// (identical to [`crate::eval::eval_predicate`]).
    #[inline]
    pub fn matches(&self, row: &[Value]) -> Result<bool> {
        match self {
            CompiledPredicate::True => Ok(true),
            CompiledPredicate::ColCmpLit { col, op, lit } => {
                let v = row
                    .get(*col)
                    .ok_or(Error::ColumnOutOfBounds { index: *col, arity: row.len() })?;
                if v.is_null() || lit.is_null() {
                    return Ok(false);
                }
                match eval_comparison(*op, v, lit)? {
                    Value::Bool(b) => Ok(b),
                    _ => unreachable!("comparison returned non-bool"),
                }
            }
            CompiledPredicate::General(p) => match p.eval(row)? {
                Value::Bool(b) => Ok(b),
                Value::Null => Ok(false),
                other => Err(Error::TypeMismatch(format!("predicate evaluated to {other}"))),
            },
        }
    }

    /// Batch form of [`Self::matches`]: evaluate over the rows of `batch`
    /// named by the selection vector `sel` (ascending) and append the
    /// indices of *matching* rows to `out`, preserving order.
    ///
    /// Row-for-row semantics are identical to `matches` — NULL column or
    /// NULL literal is "not selected", `ColumnOutOfBounds` on a short row —
    /// but the `ColCmpLit` shape runs as one tight loop per
    /// (column type, literal type) pair with the operator lowered to an
    /// [`Ordering`] lookup table, instead of per-row enum dispatch. Callers
    /// must not pass an empty `sel` expecting bounds errors: a batch with no
    /// selected rows evaluates nothing, exactly like the row path.
    pub fn eval_batch(&self, batch: &ColumnarBatch, sel: &[u32], out: &mut Vec<u32>) -> Result<()> {
        if sel.is_empty() {
            return Ok(());
        }
        match self {
            CompiledPredicate::True => out.extend_from_slice(sel),
            CompiledPredicate::ColCmpLit { col, op, lit } => {
                let column = batch
                    .columns
                    .get(*col)
                    .ok_or(Error::ColumnOutOfBounds { index: *col, arity: batch.arity() })?;
                if lit.is_null() {
                    return Ok(());
                }
                let tbl = op_table(*op);
                match (column, lit) {
                    // Same-type arms mirror `Value::cmp`'s direct arms…
                    (Column::Int(v), Value::Int(y)) => {
                        for &i in sel {
                            if tbl_hit(tbl, v[i as usize].cmp(y)) {
                                out.push(i);
                            }
                        }
                    }
                    (Column::Date(v), Value::Date(y)) => {
                        for &i in sel {
                            if tbl_hit(tbl, v[i as usize].cmp(y)) {
                                out.push(i);
                            }
                        }
                    }
                    (Column::Bool(v), Value::Bool(y)) => {
                        for &i in sel {
                            if tbl_hit(tbl, v[i as usize].cmp(y)) {
                                out.push(i);
                            }
                        }
                    }
                    // …cross-numeric arms go through f64 like `Value::cmp`'s
                    // rank-2 fallback (Float/Float also lands there)…
                    (Column::Int(v), lit) if value_rank(lit) == 2 => {
                        let y = lit.as_f64().expect("rank-2 literal");
                        for &i in sel {
                            if tbl_hit(tbl, f64_total_cmp(v[i as usize] as f64, y)) {
                                out.push(i);
                            }
                        }
                    }
                    (Column::Float(v), lit) if value_rank(lit) == 2 => {
                        let y = lit.as_f64().expect("rank-2 literal");
                        for &i in sel {
                            if tbl_hit(tbl, f64_total_cmp(f64::from_bits(v[i as usize]), y)) {
                                out.push(i);
                            }
                        }
                    }
                    (Column::Date(v), lit) if value_rank(lit) == 2 => {
                        let y = lit.as_f64().expect("rank-2 literal");
                        for &i in sel {
                            if tbl_hit(tbl, f64_total_cmp(v[i as usize] as f64, y)) {
                                out.push(i);
                            }
                        }
                    }
                    // …string columns pre-resolve one verdict per dictionary
                    // id, so the row loop is a table lookup…
                    (Column::Str { ids, dict }, Value::Str(y)) => {
                        let verdicts: Vec<bool> =
                            dict.iter().map(|d| tbl_hit(tbl, (**d).cmp(y))).collect();
                        for &i in sel {
                            if verdicts[ids[i as usize] as usize] {
                                out.push(i);
                            }
                        }
                    }
                    // …NULLs only occur in Mixed columns; fall back to the
                    // row comparison there…
                    (Column::Mixed(v), lit) => {
                        for &i in sel {
                            let x = &v[i as usize];
                            if !x.is_null() && tbl_hit(tbl, x.cmp(lit)) {
                                out.push(i);
                            }
                        }
                    }
                    // …and a typed column against a different-rank literal
                    // has one constant verdict (rank order) for every row.
                    (column, lit) => {
                        let col_rank = match column {
                            Column::Bool(_) => 1,
                            Column::Int(_) | Column::Float(_) | Column::Date(_) => 2,
                            Column::Str { .. } => 3,
                            Column::Mixed(_) => unreachable!("handled above"),
                            Column::Pruned { .. } => {
                                panic!("read of a pruned column (bad needed-column set)")
                            }
                        };
                        if tbl_hit(tbl, col_rank.cmp(&value_rank(lit))) {
                            out.extend_from_slice(sel);
                        }
                    }
                }
            }
            CompiledPredicate::General(p) => {
                // Whole-row programs read the batch's backing rows when it
                // has them (always, for `from_rows`-family batches — and
                // required for pruned ones) instead of reassembling scratch
                // rows cell by cell. Values are identical either way: the
                // columnar round trip is lossless.
                let backing = batch.backing_rows();
                let mut scratch: Vec<Value> = Vec::with_capacity(batch.arity());
                for &i in sel {
                    let row: &[Value] = match backing {
                        Some(rows) => rows[i as usize].values(),
                        None => {
                            scratch.clear();
                            for c in &batch.columns {
                                scratch.push(c.value_at(i as usize));
                            }
                            &scratch
                        }
                    };
                    match p.eval(row)? {
                        Value::Bool(true) => out.push(i),
                        Value::Bool(false) | Value::Null => {}
                        other => {
                            return Err(Error::TypeMismatch(format!(
                                "predicate evaluated to {other}"
                            )))
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// `Value::type_rank`, restated for the batch kernels (Null < Bool <
/// numeric < Str).
#[inline]
fn value_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) | Value::Date(_) => 2,
        Value::Str(_) => 3,
    }
}

/// The cross-numeric ordering `Value::cmp` uses: `partial_cmp`, falling back
/// to normalised-bit comparison when NaN is involved.
#[inline]
fn f64_total_cmp(x: f64, y: f64) -> Ordering {
    x.partial_cmp(&y).unwrap_or_else(|| norm_f64_bits(x).cmp(&norm_f64_bits(y)))
}

/// Lower a comparison operator to its verdict per [`Ordering`]
/// (`[Less, Equal, Greater]`), turning per-row operator dispatch into an
/// array lookup.
#[inline]
fn op_table(op: BinaryOp) -> [bool; 3] {
    match op {
        BinaryOp::Eq => [false, true, false],
        BinaryOp::Ne => [true, false, true],
        BinaryOp::Lt => [true, false, false],
        BinaryOp::Le => [true, true, false],
        BinaryOp::Gt => [false, false, true],
        BinaryOp::Ge => [false, true, true],
        other => unreachable!("non-comparison op {other:?} in ColCmpLit"),
    }
}

/// Index the verdict table by an [`Ordering`] (`Less`=-1, `Equal`=0,
/// `Greater`=1).
#[inline(always)]
fn tbl_hit(tbl: [bool; 3], o: Ordering) -> bool {
    tbl[(o as i8 + 1) as usize]
}

/// A compiled scalar (join key, group key, or aggregate argument).
#[derive(Debug, Clone)]
pub enum CompiledScalar {
    /// A bare column reference.
    Col(usize),
    /// Anything else.
    General(Program),
}

impl CompiledScalar {
    /// Lower a scalar expression.
    pub fn compile(expr: &Expr) -> CompiledScalar {
        match expr {
            Expr::Column(i) => CompiledScalar::Col(*i),
            _ => CompiledScalar::General(Program::compile(expr)),
        }
    }

    /// Evaluate to a value; semantics identical to [`crate::eval::eval`].
    #[inline]
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            CompiledScalar::Col(i) => {
                row.get(*i).cloned().ok_or(Error::ColumnOutOfBounds { index: *i, arity: row.len() })
            }
            CompiledScalar::General(p) => p.eval(row),
        }
    }

    /// The bare column index when this scalar is a plain column reference —
    /// the eligibility test for columnar key encoding (vectorized join/agg
    /// read the key straight out of the batch's column).
    #[inline]
    pub fn as_col(&self) -> Option<usize> {
        match self {
            CompiledScalar::Col(i) => Some(*i),
            CompiledScalar::General(_) => None,
        }
    }

    /// Borrowed view for callers that only need to *inspect* the value
    /// (NULL checks, key encoding): avoids the clone on the column path.
    /// Returns `Err(value)` when the scalar had to be computed.
    #[inline]
    pub fn eval_ref<'a>(&self, row: &'a [Value]) -> Result<std::result::Result<&'a Value, Value>> {
        match self {
            CompiledScalar::Col(i) => {
                row.get(*i).map(Ok).ok_or(Error::ColumnOutOfBounds { index: *i, arity: row.len() })
            }
            CompiledScalar::General(p) => Ok(Err(p.eval(row)?)),
        }
    }
}

/// A compiled partition-key extractor: the tuple of scalars an exchange
/// routes rows by (a join side's key exprs, an aggregate's group-by),
/// evaluated per row and encoded into a caller-owned [`KeyBuf`].
///
/// Routing must be *value-pure*: two rows with equal key values must encode
/// to equal words so they hash to the same partition. [`KeyBuf::push_value`]
/// guarantees this per interner — the extractor's caller supplies one
/// interner for all routing decisions of one operator.
#[derive(Debug, Clone)]
pub struct KeyExtractor {
    scalars: Vec<CompiledScalar>,
}

impl KeyExtractor {
    /// Wrap already-compiled scalars (reuses the operator's compiled key
    /// expressions — no re-lowering).
    pub fn new(scalars: Vec<CompiledScalar>) -> KeyExtractor {
        KeyExtractor { scalars }
    }

    /// Lower a list of key expressions.
    pub fn compile(exprs: &[Expr]) -> KeyExtractor {
        KeyExtractor::new(exprs.iter().map(CompiledScalar::compile).collect())
    }

    /// Number of key columns.
    pub fn len(&self) -> usize {
        self.scalars.len()
    }

    /// `true` iff the key is empty (global aggregate: every row shares the
    /// one empty key).
    pub fn is_empty(&self) -> bool {
        self.scalars.is_empty()
    }

    /// Evaluate the key of `row` and encode it into `scratch` (cleared
    /// first). Returns `false` — leaving `scratch` in an unspecified state —
    /// if any key scalar is NULL (a NULL join key never matches; callers
    /// route such rows by a fixed rule instead of by value).
    pub fn encode(
        &self,
        row: &[Value],
        scratch: &mut ishare_common::KeyBuf,
        interner: &mut ishare_common::StrInterner,
    ) -> Result<bool> {
        scratch.clear();
        for s in &self.scalars {
            match s.eval_ref(row)? {
                Ok(v) => {
                    if v.is_null() {
                        return Ok(false);
                    }
                    scratch.push_value(v, interner);
                }
                Err(v) => {
                    if v.is_null() {
                        return Ok(false);
                    }
                    scratch.push_value(&v, interner);
                }
            }
        }
        Ok(true)
    }
}

/// A compiled projection list.
#[derive(Debug, Clone)]
pub struct CompiledProjection {
    /// Per-expression programs (the general path).
    progs: Vec<Program>,
    /// When every expression is a bare column: the gather indices.
    cols: Option<Vec<usize>>,
    /// When `cols` is exactly `0..n`: the identity arity `n`. An `n`-ary
    /// input row passes through by reference (shares its allocation).
    identity: Option<usize>,
}

impl CompiledProjection {
    /// Lower a projection's expression list (names are not needed at
    /// runtime).
    pub fn compile(exprs: &[Expr]) -> CompiledProjection {
        let progs = exprs.iter().map(Program::compile).collect();
        let cols: Option<Vec<usize>> = exprs
            .iter()
            .map(|e| match e {
                Expr::Column(i) => Some(*i),
                _ => None,
            })
            .collect();
        let identity = match &cols {
            Some(c) if c.iter().enumerate().all(|(pos, &i)| pos == i) => Some(c.len()),
            _ => None,
        };
        CompiledProjection { progs, cols, identity }
    }

    /// Number of output columns.
    pub fn arity(&self) -> usize {
        self.progs.len()
    }

    /// `true` iff an `n`-ary input row would pass through unchanged.
    #[inline]
    pub fn is_identity_for(&self, input_arity: usize) -> bool {
        self.identity == Some(input_arity)
    }

    /// The input columns [`Self::project_batch`] reads *columnar* — bare
    /// column outputs, which become gathers. Computed outputs evaluate over
    /// backing rows and need no materialized columns. Late-materializing
    /// callers union this into the needed set fed to
    /// `ColumnarBatch::from_rows_pruned`.
    pub fn input_cols(&self) -> Vec<usize> {
        match &self.cols {
            Some(cols) => cols.clone(),
            None => self.progs.iter().filter_map(Program::as_col).collect(),
        }
    }

    /// Compute the projected values for one row. Callers should take the
    /// [`Self::is_identity_for`] fast path first.
    #[inline]
    pub fn project(&self, row: &[Value]) -> Result<Vec<Value>> {
        if let Some(cols) = &self.cols {
            let mut out = Vec::with_capacity(cols.len());
            for &i in cols {
                out.push(
                    row.get(i)
                        .cloned()
                        .ok_or(Error::ColumnOutOfBounds { index: i, arity: row.len() })?,
                );
            }
            return Ok(out);
        }
        let mut out = Vec::with_capacity(self.progs.len());
        for p in &self.progs {
            out.push(p.eval(row)?);
        }
        Ok(out)
    }

    /// Batch form of [`Self::project`]: compute the output columns for the
    /// rows of `batch` named by `sel`, in selection order.
    ///
    /// All-column projections (and the bare-column outputs of mixed lists)
    /// become `Column::gather` calls — no `Value` is materialized at all;
    /// only genuinely computed outputs evaluate row-wise, sharing one
    /// scratch row per input row across all computed expressions. Value
    /// semantics per row are identical to `project`; when several outputs
    /// can error, the *first* error reported may differ from the row path's
    /// left-to-right order (error runs are outside the bit-identity gates).
    pub fn project_batch(&self, batch: &ColumnarBatch, sel: &[u32]) -> Result<Vec<Column>> {
        if sel.is_empty() {
            return Ok((0..self.arity()).map(|_| Column::Mixed(Vec::new())).collect());
        }
        if let Some(cols) = &self.cols {
            let mut out = Vec::with_capacity(cols.len());
            for &i in cols {
                let c = batch
                    .columns
                    .get(i)
                    .ok_or(Error::ColumnOutOfBounds { index: i, arity: batch.arity() })?;
                out.push(c.gather(sel));
            }
            return Ok(out);
        }
        // Mixed list: gather the bare-column outputs, row-eval the rest.
        let shapes: Vec<Option<usize>> = self.progs.iter().map(Program::as_col).collect();
        let mut builders: Vec<Option<ColumnBuilder>> =
            shapes.iter().map(|s| s.is_none().then(ColumnBuilder::new)).collect();
        if builders.iter().any(Option::is_some) {
            // Same backing-row preference as `eval_batch`'s general arm.
            let backing = batch.backing_rows();
            let mut scratch: Vec<Value> = Vec::with_capacity(batch.arity());
            for &i in sel {
                let row: &[Value] = match backing {
                    Some(rows) => rows[i as usize].values(),
                    None => {
                        scratch.clear();
                        for c in &batch.columns {
                            scratch.push(c.value_at(i as usize));
                        }
                        &scratch
                    }
                };
                for (p, b) in self.progs.iter().zip(&mut builders) {
                    if let Some(b) = b {
                        b.push(&p.eval(row)?);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(self.progs.len());
        for (shape, b) in shapes.iter().zip(builders) {
            out.push(match (shape, b) {
                (Some(i), _) => batch
                    .columns
                    .get(*i)
                    .ok_or(Error::ColumnOutOfBounds { index: *i, arity: batch.arity() })?
                    .gather(sel),
                (None, Some(b)) => b.finish(),
                (None, None) => unreachable!("computed output without builder"),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, eval_predicate};
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

    /// Every interesting expression shape, for program/interpreter agreement.
    fn shapes() -> Vec<Expr> {
        vec![
            Expr::col(0).add(Expr::lit(5i64)),
            Expr::col(0).mul(Expr::col(1)),
            Expr::col(0).div(Expr::lit(0i64)),
            Expr::col(3).add(Expr::lit(1i64)),
            Expr::col(0).ge(Expr::lit(10i64)),
            Expr::col(1).lt(Expr::lit(3i64)),
            Expr::col(3).eq(Expr::lit(1i64)).and(Expr::lit(false)),
            Expr::col(3).eq(Expr::lit(1i64)).or(Expr::true_lit()),
            Expr::col(3).eq(Expr::lit(1i64)).not(),
            Expr::IsNull(Box::new(Expr::col(3))),
            Expr::col(2).like(LikePattern::Prefix("PROMO".into())),
            Expr::col(2).substr(1, 5),
            Expr::col(4).year(),
            Expr::col(0).in_list(vec![Value::Int(9), Value::Int(10)]),
            Expr::col(3).in_list(vec![Value::Int(9)]),
            Expr::col(0).gt(Expr::lit(5i64)).case(Expr::lit(1i64), Expr::lit(0i64)),
            Expr::col(3).gt(Expr::lit(5i64)).case(Expr::lit(1i64), Expr::lit(0i64)),
        ]
    }

    #[test]
    fn program_agrees_with_interpreter() {
        let r = row();
        for e in shapes() {
            let p = Program::compile(&e);
            assert_eq!(p.eval(&r).unwrap(), eval(&e, &r).unwrap(), "expr {e:?}");
        }
    }

    #[test]
    fn program_errors_agree() {
        let r = row();
        for e in [
            Expr::col(2).add(Expr::lit(1i64)),
            Expr::col(0).like(LikePattern::Prefix("x".into())),
            Expr::col(0).year(),
            Expr::col(9),
        ] {
            let p = Program::compile(&e);
            let (a, b) = (p.eval(&r), eval(&e, &r));
            assert_eq!(a.unwrap_err().to_string(), b.unwrap_err().to_string());
        }
        // Short-circuit skips RHS errors, same as the interpreter.
        let bad = Expr::col(2).add(Expr::lit(1i64)).eq(Expr::lit(1i64));
        let p = Program::compile(&Expr::lit(false).and(bad));
        assert_eq!(p.eval(&r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn predicate_fast_paths() {
        let r = row();
        assert!(matches!(CompiledPredicate::compile(&Expr::true_lit()), CompiledPredicate::True));
        let p = CompiledPredicate::compile(&Expr::col(0).gt(Expr::lit(5i64)));
        assert!(matches!(p, CompiledPredicate::ColCmpLit { .. }));
        assert!(p.matches(&r).unwrap());
        // NULL column under the fast path: not selected, like eval_predicate.
        let p = CompiledPredicate::compile(&Expr::col(3).gt(Expr::lit(5i64)));
        assert!(!p.matches(&r).unwrap());
        // Out-of-bounds column errors identically.
        let p = CompiledPredicate::compile(&Expr::col(9).gt(Expr::lit(5i64)));
        assert_eq!(
            p.matches(&r).unwrap_err().to_string(),
            eval_predicate(&Expr::col(9).gt(Expr::lit(5i64)), &r).unwrap_err().to_string()
        );
        // NULL-valued fast-path predicate: not selected, like eval_predicate.
        let e = Expr::col(3).eq(Expr::lit(1i64));
        let p = CompiledPredicate::compile(&e);
        assert!(matches!(p, CompiledPredicate::ColCmpLit { .. }));
        assert_eq!(p.matches(&r).unwrap(), eval_predicate(&e, &r).unwrap());
        // General predicates agree with eval_predicate on NULL collapse.
        let e = Expr::lit(1i64).eq(Expr::col(3));
        let p = CompiledPredicate::compile(&e);
        assert!(matches!(p, CompiledPredicate::General(_)));
        assert_eq!(p.matches(&r).unwrap(), eval_predicate(&e, &r).unwrap());
    }

    #[test]
    fn projection_fast_paths() {
        let r = row();
        let ident = CompiledProjection::compile(&[
            Expr::col(0),
            Expr::col(1),
            Expr::col(2),
            Expr::col(3),
            Expr::col(4),
        ]);
        assert!(ident.is_identity_for(5));
        assert!(!ident.is_identity_for(4));
        assert_eq!(ident.project(&r).unwrap(), r);
        let gather = CompiledProjection::compile(&[Expr::col(2), Expr::col(0)]);
        assert!(!gather.is_identity_for(5));
        assert_eq!(gather.project(&r).unwrap(), vec![r[2].clone(), r[0].clone()]);
        assert!(gather.project(&r[..1]).is_err(), "gather bounds-checks");
        let general = CompiledProjection::compile(&[Expr::col(0).add(Expr::lit(1i64))]);
        assert_eq!(general.project(&r).unwrap(), vec![Value::Int(11)]);
        assert_eq!(general.arity(), 1);
    }

    fn batch() -> ishare_storage::ColumnarBatch {
        use ishare_storage::{DeltaRow, Row};
        let rows = vec![
            vec![Value::Int(10), Value::Float(2.5), Value::str("PROMO"), Value::Null],
            vec![Value::Int(-3), Value::Float(f64::NAN), Value::str("AIR"), Value::Int(7)],
            vec![Value::Int(10), Value::Float(-0.0), Value::str("RAIL"), Value::str("x")],
            vec![Value::Int(2), Value::Float(2.5), Value::str("PROMO"), Value::Bool(true)],
        ];
        let delta: ishare_storage::DeltaBatch = rows
            .into_iter()
            .map(|r| {
                DeltaRow::insert(
                    Row::new(r),
                    ishare_common::QuerySet::single(ishare_common::QueryId(0)),
                )
            })
            .collect();
        ishare_storage::ColumnarBatch::from_rows(&delta).unwrap()
    }

    /// `eval_batch` selects exactly the rows `matches` accepts, for every
    /// fast-path shape (typed loops, dictionary strings, rank mismatch,
    /// Mixed fallback, general programs).
    #[test]
    fn batch_predicate_agrees_with_row_path() {
        let b = batch();
        let preds = [
            Expr::true_lit(),
            Expr::col(0).eq(Expr::lit(10i64)),
            Expr::col(0).ne(Expr::lit(10i64)),
            Expr::col(0).lt(Expr::lit(3i64)),
            Expr::col(0).le(Expr::lit(2.5f64)),
            Expr::col(0).gt(Expr::lit(2.0f64)),
            Expr::col(1).ge(Expr::lit(2i64)),
            Expr::col(1).eq(Expr::lit(f64::NAN)),
            Expr::col(1).eq(Expr::lit(0i64)),
            Expr::col(2).eq(Expr::lit(Value::str("PROMO"))),
            Expr::col(2).lt(Expr::lit(Value::str("B"))),
            Expr::col(0).eq(Expr::lit(Value::str("PROMO"))),
            Expr::col(0).lt(Expr::lit(Value::str("PROMO"))),
            Expr::col(0).eq(Expr::lit(Value::Null)),
            Expr::col(3).eq(Expr::lit(7i64)),
            Expr::col(3).gt(Expr::lit(Value::Bool(false))),
            Expr::col(0).gt(Expr::lit(0i64)).and(Expr::col(2).eq(Expr::lit(Value::str("PROMO")))),
        ];
        let all: Vec<u32> = (0..b.len() as u32).collect();
        let some: Vec<u32> = vec![1, 3];
        for e in preds {
            let p = CompiledPredicate::compile(&e);
            for sel in [&all, &some] {
                let mut got = Vec::new();
                p.eval_batch(&b, sel, &mut got).unwrap();
                let want: Vec<u32> = sel
                    .iter()
                    .copied()
                    .filter(|&i| p.matches(b.row_at(i as usize).values()).unwrap())
                    .collect();
                assert_eq!(got, want, "pred {e:?} sel {sel:?}");
            }
        }
        // Out-of-bounds errors match the row path; empty selections, like
        // the row path over zero rows, never evaluate and so never error.
        let p = CompiledPredicate::compile(&Expr::col(9).gt(Expr::lit(5i64)));
        let mut out = Vec::new();
        assert_eq!(
            p.eval_batch(&b, &all, &mut out).unwrap_err().to_string(),
            p.matches(b.row_at(0).values()).unwrap_err().to_string()
        );
        p.eval_batch(&b, &[], &mut out).unwrap();
        assert!(out.is_empty());
    }

    /// `project_batch` produces column-for-column what `project` produces
    /// row-for-row, on gather, mixed, and general projection lists.
    #[test]
    fn batch_projection_agrees_with_row_path() {
        let b = batch();
        let lists: Vec<Vec<Expr>> = vec![
            vec![Expr::col(0), Expr::col(1), Expr::col(2), Expr::col(3)],
            vec![Expr::col(2), Expr::col(0)],
            vec![Expr::col(0), Expr::col(0).add(Expr::lit(1i64))],
            vec![Expr::col(0).mul(Expr::col(1))],
        ];
        let sel: Vec<u32> = vec![0, 2, 3];
        for exprs in lists {
            let proj = CompiledProjection::compile(&exprs);
            let cols = proj.project_batch(&b, &sel).unwrap();
            assert_eq!(cols.len(), proj.arity());
            for (j, &i) in sel.iter().enumerate() {
                let want = proj.project(b.row_at(i as usize).values()).unwrap();
                let got: Vec<Value> = cols.iter().map(|c| c.value_at(j)).collect();
                assert_eq!(got, want, "list {exprs:?} row {i}");
            }
        }
        // Errors propagate (string arithmetic), and bounds are checked.
        let bad = CompiledProjection::compile(&[Expr::col(2).add(Expr::lit(1i64))]);
        assert!(bad.project_batch(&b, &sel).is_err());
        let oob = CompiledProjection::compile(&[Expr::col(9)]);
        assert!(oob.project_batch(&b, &sel).is_err());
        assert_eq!(oob.project_batch(&b, &[]).unwrap().len(), 1);
    }

    #[test]
    fn scalar_fast_path() {
        let r = row();
        let c = CompiledScalar::compile(&Expr::col(2));
        assert!(matches!(c, CompiledScalar::Col(2)));
        assert_eq!(c.eval(&r).unwrap(), r[2]);
        assert!(matches!(c.eval_ref(&r).unwrap(), Ok(v) if *v == r[2]));
        let g = CompiledScalar::compile(&Expr::col(0).add(Expr::lit(1i64)));
        assert_eq!(g.eval(&r).unwrap(), Value::Int(11));
        assert!(matches!(g.eval_ref(&r).unwrap(), Err(Value::Int(11))));
        assert!(CompiledScalar::compile(&Expr::col(9)).eval(&r).is_err());
    }
}
