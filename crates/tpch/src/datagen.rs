//! Deterministic TPC-H data generation.
//!
//! Row counts follow the spec's scale-factor formulas; value distributions
//! follow the spec's shapes (uniform keys, date ranges 1992–1998, spec
//! domains for the categorical columns). Column statistics are computed
//! *exactly* from the generated data — the paper assumes historical
//! statistics are available ("We assume knowledge of the data arrival
//! rate… Historical statistics can estimate this information", Sec. 2.1).

use crate::names::*;
use ishare_common::{date, DataType, FxHashSet, Result, TableId, Value};
use ishare_storage::{Catalog, ColumnStats, Field, Row, Schema, TableStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// A generated TPC-H instance: catalog (schemas + exact stats) and rows in
/// arrival order.
#[derive(Debug, Clone)]
pub struct TpchData {
    /// Catalog with schemas and statistics.
    pub catalog: Catalog,
    /// Full trigger's rows per relation, in arrival order.
    pub data: HashMap<TableId, Vec<Row>>,
}

impl TpchData {
    /// Rows of a relation by name.
    pub fn rows(&self, table: &str) -> Result<&Vec<Row>> {
        let id = self.catalog.table_by_name(table)?.id;
        self.data
            .get(&id)
            .ok_or_else(|| ishare_common::Error::NotFound(format!("data for `{table}`")))
    }
}

/// Generate a TPC-H instance at `scale_factor` with a fixed `seed`.
///
/// Spec row counts: supplier 10k·SF, customer 150k·SF, part 200k·SF,
/// partsupp 4/part, orders 1.5M·SF, lineitem 1–7 per order (~4 avg),
/// nation 25, region 5.
pub fn generate(scale_factor: f64, seed: u64) -> Result<TpchData> {
    assert!(scale_factor > 0.0, "scale factor must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let sf = scale_factor;
    let n_supplier = ((10_000.0 * sf) as usize).max(10);
    let n_customer = ((150_000.0 * sf) as usize).max(30);
    let n_part = ((200_000.0 * sf) as usize).max(40);
    let n_orders = ((1_500_000.0 * sf) as usize).max(150);

    let mut catalog = Catalog::new();
    let mut data: HashMap<TableId, Vec<Row>> = HashMap::new();

    // Interned strings to keep row memory small.
    let intern: HashMap<&'static str, Arc<str>> = HashMap::new();
    let mut intern = InternPool { map: intern };

    // --- region ---
    let region_rows: Vec<Row> = REGIONS
        .iter()
        .enumerate()
        .map(|(i, name)| Row::new(vec![Value::Int(i as i64), intern.v(name)]))
        .collect();
    add_table(
        &mut catalog,
        &mut data,
        "region",
        vec![Field::new("r_regionkey", DataType::Int), Field::new("r_name", DataType::Str)],
        region_rows,
    )?;

    // --- nation ---
    let nation_rows: Vec<Row> = NATIONS
        .iter()
        .enumerate()
        .map(|(i, (name, region))| {
            Row::new(vec![Value::Int(i as i64), intern.v(name), Value::Int(*region as i64)])
        })
        .collect();
    add_table(
        &mut catalog,
        &mut data,
        "nation",
        vec![
            Field::new("n_nationkey", DataType::Int),
            Field::new("n_name", DataType::Str),
            Field::new("n_regionkey", DataType::Int),
        ],
        nation_rows,
    )?;

    // --- supplier ---
    let supplier_rows: Vec<Row> = (0..n_supplier)
        .map(|i| {
            let comment = gen_comment(&mut rng, &mut intern, 0.002);
            Row::new(vec![
                Value::Int(i as i64 + 1),
                Value::str(format!("Supplier#{:09}", i + 1)),
                Value::Int(rng.gen_range(0..25) as i64),
                Value::Float(round2(rng.gen_range(-999.99..9999.99))),
                Value::str(format!(
                    "{:02}-{}",
                    rng.gen_range(10..35),
                    rng.gen_range(100_000_000u64..999_999_999)
                )),
                comment,
            ])
        })
        .collect();
    add_table(
        &mut catalog,
        &mut data,
        "supplier",
        vec![
            Field::new("s_suppkey", DataType::Int),
            Field::new("s_name", DataType::Str),
            Field::new("s_nationkey", DataType::Int),
            Field::new("s_acctbal", DataType::Float),
            Field::new("s_phone", DataType::Str),
            Field::new("s_comment", DataType::Str),
        ],
        supplier_rows,
    )?;

    // --- customer ---
    let customer_rows: Vec<Row> = (0..n_customer)
        .map(|i| {
            Row::new(vec![
                Value::Int(i as i64 + 1),
                Value::str(format!("Customer#{:09}", i + 1)),
                Value::Int(rng.gen_range(0..25) as i64),
                Value::Float(round2(rng.gen_range(-999.99..9999.99))),
                intern.v(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]),
                Value::str(format!(
                    "{:02}-{}",
                    rng.gen_range(10..35),
                    rng.gen_range(100_000_000u64..999_999_999)
                )),
            ])
        })
        .collect();
    add_table(
        &mut catalog,
        &mut data,
        "customer",
        vec![
            Field::new("c_custkey", DataType::Int),
            Field::new("c_name", DataType::Str),
            Field::new("c_nationkey", DataType::Int),
            Field::new("c_acctbal", DataType::Float),
            Field::new("c_mktsegment", DataType::Str),
            Field::new("c_phone", DataType::Str),
        ],
        customer_rows,
    )?;

    // --- part ---
    let part_rows: Vec<Row> = (0..n_part)
        .map(|i| {
            let t1 = TYPE_S1[rng.gen_range(0..TYPE_S1.len())];
            let t2 = TYPE_S2[rng.gen_range(0..TYPE_S2.len())];
            let t3 = TYPE_S3[rng.gen_range(0..TYPE_S3.len())];
            let c1 = CONTAINER_S1[rng.gen_range(0..CONTAINER_S1.len())];
            let c2 = CONTAINER_S2[rng.gen_range(0..CONTAINER_S2.len())];
            let col1 = COLORS[rng.gen_range(0..COLORS.len())];
            let col2 = COLORS[rng.gen_range(0..COLORS.len())];
            Row::new(vec![
                Value::Int(i as i64 + 1),
                Value::str(format!("{col1} {col2}")),
                Value::str(format!("Manufacturer#{}", rng.gen_range(1..=5))),
                Value::str(format!("Brand#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5))),
                Value::str(format!("{t1} {t2} {t3}")),
                Value::Int(rng.gen_range(1..=50) as i64),
                Value::str(format!("{c1} {c2}")),
                Value::Float(round2(900.0 + (i % 1000) as f64 / 10.0)),
            ])
        })
        .collect();
    add_table(
        &mut catalog,
        &mut data,
        "part",
        vec![
            Field::new("p_partkey", DataType::Int),
            Field::new("p_name", DataType::Str),
            Field::new("p_mfgr", DataType::Str),
            Field::new("p_brand", DataType::Str),
            Field::new("p_type", DataType::Str),
            Field::new("p_size", DataType::Int),
            Field::new("p_container", DataType::Str),
            Field::new("p_retailprice", DataType::Float),
        ],
        part_rows,
    )?;

    // --- partsupp ---
    let mut partsupp_rows = Vec::with_capacity(n_part * 4);
    for p in 0..n_part {
        for s in 0..4 {
            let suppkey = (p + s * (n_part / 4).max(1)) % n_supplier + 1;
            partsupp_rows.push(Row::new(vec![
                Value::Int(p as i64 + 1),
                Value::Int(suppkey as i64),
                Value::Int(rng.gen_range(1..=9999) as i64),
                Value::Float(round2(rng.gen_range(1.0..1000.0))),
            ]));
        }
    }
    add_table(
        &mut catalog,
        &mut data,
        "partsupp",
        vec![
            Field::new("ps_partkey", DataType::Int),
            Field::new("ps_suppkey", DataType::Int),
            Field::new("ps_availqty", DataType::Int),
            Field::new("ps_supplycost", DataType::Float),
        ],
        partsupp_rows,
    )?;

    // --- orders + lineitem ---
    let start = date("1992-01-01").as_i64().expect("date");
    let end = date("1998-08-02").as_i64().expect("date");
    let mut orders_rows = Vec::with_capacity(n_orders);
    let mut lineitem_rows = Vec::new();
    for o in 0..n_orders {
        let orderkey = o as i64 + 1;
        let custkey = rng.gen_range(1..=n_customer) as i64;
        let orderdate = rng.gen_range(start..=end) as i32;
        let n_lines = rng.gen_range(1..=7usize);
        let mut total = 0.0;
        for l in 0..n_lines {
            let partkey = rng.gen_range(1..=n_part) as i64;
            let suppkey = rng.gen_range(1..=n_supplier) as i64;
            let quantity = rng.gen_range(1..=50) as i64;
            let price = round2(quantity as f64 * rng.gen_range(900.0..1100.0) / 10.0);
            let discount = round2(rng.gen_range(0.0..=0.10));
            let tax = round2(rng.gen_range(0.0..=0.08));
            total += price * (1.0 - discount) * (1.0 + tax);
            let shipdate = orderdate + rng.gen_range(1..=121);
            let commitdate = orderdate + rng.gen_range(30..=90);
            let receiptdate = shipdate + rng.gen_range(1..=30);
            let returnflag = if receiptdate <= date("1995-06-17").as_i64().expect("date") as i32 {
                if rng.gen_bool(0.5) {
                    "R"
                } else {
                    "A"
                }
            } else {
                "N"
            };
            let linestatus = if shipdate > date("1995-06-17").as_i64().expect("date") as i32 {
                "O"
            } else {
                "F"
            };
            lineitem_rows.push(Row::new(vec![
                Value::Int(orderkey),
                Value::Int(partkey),
                Value::Int(suppkey),
                Value::Int(l as i64 + 1),
                Value::Int(quantity),
                Value::Float(price),
                Value::Float(discount),
                Value::Float(tax),
                intern.v(returnflag),
                intern.v(linestatus),
                Value::Date(shipdate),
                Value::Date(commitdate),
                Value::Date(receiptdate),
                intern.v(SHIP_INSTRUCT[rng.gen_range(0..SHIP_INSTRUCT.len())]),
                intern.v(SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())]),
            ]));
        }
        let comment = gen_comment(&mut rng, &mut intern, 0.01);
        orders_rows.push(Row::new(vec![
            Value::Int(orderkey),
            Value::Int(custkey),
            intern.v(if rng.gen_bool(0.49) { "F" } else { "O" }),
            Value::Float(round2(total)),
            Value::Date(orderdate),
            intern.v(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]),
            Value::Int(0),
            comment,
        ]));
    }
    add_table(
        &mut catalog,
        &mut data,
        "orders",
        vec![
            Field::new("o_orderkey", DataType::Int),
            Field::new("o_custkey", DataType::Int),
            Field::new("o_orderstatus", DataType::Str),
            Field::new("o_totalprice", DataType::Float),
            Field::new("o_orderdate", DataType::Date),
            Field::new("o_orderpriority", DataType::Str),
            Field::new("o_shippriority", DataType::Int),
            Field::new("o_comment", DataType::Str),
        ],
        orders_rows,
    )?;
    add_table(
        &mut catalog,
        &mut data,
        "lineitem",
        vec![
            Field::new("l_orderkey", DataType::Int),
            Field::new("l_partkey", DataType::Int),
            Field::new("l_suppkey", DataType::Int),
            Field::new("l_linenumber", DataType::Int),
            Field::new("l_quantity", DataType::Int),
            Field::new("l_extendedprice", DataType::Float),
            Field::new("l_discount", DataType::Float),
            Field::new("l_tax", DataType::Float),
            Field::new("l_returnflag", DataType::Str),
            Field::new("l_linestatus", DataType::Str),
            Field::new("l_shipdate", DataType::Date),
            Field::new("l_commitdate", DataType::Date),
            Field::new("l_receiptdate", DataType::Date),
            Field::new("l_shipinstruct", DataType::Str),
            Field::new("l_shipmode", DataType::Str),
        ],
        lineitem_rows,
    )?;

    Ok(TpchData { catalog, data })
}

struct InternPool {
    map: HashMap<&'static str, Arc<str>>,
}

impl InternPool {
    fn v(&mut self, s: &'static str) -> Value {
        Value::Str(self.map.entry(s).or_insert_with(|| Arc::from(s)).clone())
    }
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn gen_comment(rng: &mut StdRng, intern: &mut InternPool, marker_prob: f64) -> Value {
    if rng.gen_bool(marker_prob) {
        // The rows the LIKE-marker queries (Q13, Q16) are meant to catch.
        Value::str("special requests Customer Complaints")
    } else {
        let a = COMMENT_WORDS[rng.gen_range(0..8)];
        let b = COMMENT_WORDS[rng.gen_range(0..8)];
        let _ = intern;
        Value::str(format!("{a} {b}"))
    }
}

/// Register a table with exact column statistics computed from its rows.
fn add_table(
    catalog: &mut Catalog,
    data: &mut HashMap<TableId, Vec<Row>>,
    name: &str,
    fields: Vec<Field>,
    rows: Vec<Row>,
) -> Result<TableId> {
    let schema = Schema::new(fields);
    let stats = compute_stats(&schema, &rows);
    let id = catalog.add_table(name, schema, stats)?;
    data.insert(id, rows);
    Ok(id)
}

/// Exact statistics from data: distinct counts plus min/max for ordered
/// types. One row-major pass feeds every column's accumulator; a tie keeps
/// the first-seen extremum.
pub fn compute_stats(schema: &Schema, rows: &[Row]) -> TableStats {
    type Acc<'a> = (FxHashSet<&'a Value>, Option<&'a Value>, Option<&'a Value>);
    let mut acc: Vec<Acc<'_>> = (0..schema.arity()).map(|_| Acc::default()).collect();
    for r in rows {
        for (c, (distinct, min, max)) in acc.iter_mut().enumerate() {
            let v = r.get(c);
            if v.is_null() {
                continue;
            }
            distinct.insert(v);
            *min = Some(match *min {
                Some(m) if m <= v => m,
                _ => v,
            });
            *max = Some(match *max {
                Some(m) if m >= v => m,
                _ => v,
            });
        }
    }
    let columns = acc
        .into_iter()
        .zip(schema.fields())
        .map(|((distinct, min, max), field)| {
            let keep_range = matches!(field.ty, DataType::Int | DataType::Float | DataType::Date);
            ColumnStats {
                ndv: distinct.len().max(1) as f64,
                min: if keep_range { min.and_then(Value::as_f64) } else { None },
                max: if keep_range { max.and_then(Value::as_f64) } else { None },
            }
        })
        .collect();
    TableStats { row_count: rows.len() as f64, columns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = generate(0.002, 42).unwrap();
        let b = generate(0.002, 42).unwrap();
        assert_eq!(a.rows("lineitem").unwrap(), b.rows("lineitem").unwrap());
        let c = generate(0.002, 43).unwrap();
        assert_ne!(a.rows("lineitem").unwrap(), c.rows("lineitem").unwrap());
    }

    #[test]
    fn row_counts_scale() {
        let d = generate(0.002, 1).unwrap();
        assert_eq!(d.rows("region").unwrap().len(), 5);
        assert_eq!(d.rows("nation").unwrap().len(), 25);
        assert_eq!(d.rows("supplier").unwrap().len(), 20);
        assert_eq!(d.rows("customer").unwrap().len(), 300);
        assert_eq!(d.rows("part").unwrap().len(), 400);
        assert_eq!(d.rows("partsupp").unwrap().len(), 1600);
        assert_eq!(d.rows("orders").unwrap().len(), 3000);
        let li = d.rows("lineitem").unwrap().len();
        assert!((3000..=21_000).contains(&li), "lineitem count {li}");
    }

    #[test]
    fn stats_are_exact() {
        let d = generate(0.002, 1).unwrap();
        let nation = d.catalog.table_by_name("nation").unwrap();
        assert_eq!(nation.stats.row_count, 25.0);
        assert_eq!(nation.stats.columns[0].ndv, 25.0);
        assert_eq!(nation.stats.columns[2].ndv, 5.0);
        let li = d.catalog.table_by_name("lineitem").unwrap();
        // Quantity 1..=50.
        let qty = &li.stats.columns[4];
        assert_eq!(qty.min, Some(1.0));
        assert_eq!(qty.max, Some(50.0));
        assert!(qty.ndv <= 50.0);
    }

    /// The column-at-a-time form `compute_stats` replaced: a SipHash set
    /// per column, one walk over the rows per column.
    fn stats_per_column(schema: &Schema, rows: &[Row]) -> TableStats {
        use std::collections::HashSet;
        let mut columns = Vec::with_capacity(schema.arity());
        for c in 0..schema.arity() {
            let mut distinct: HashSet<&Value> = HashSet::new();
            let (mut min, mut max): (Option<&Value>, Option<&Value>) = (None, None);
            for r in rows {
                let v = r.get(c);
                if v.is_null() {
                    continue;
                }
                distinct.insert(v);
                min = Some(match min {
                    Some(m) if m <= v => m,
                    _ => v,
                });
                max = Some(match max {
                    Some(m) if m >= v => m,
                    _ => v,
                });
            }
            let keep_range =
                matches!(schema.fields()[c].ty, DataType::Int | DataType::Float | DataType::Date);
            columns.push(ColumnStats {
                ndv: distinct.len().max(1) as f64,
                min: if keep_range { min.and_then(Value::as_f64) } else { None },
                max: if keep_range { max.and_then(Value::as_f64) } else { None },
            });
        }
        TableStats { row_count: rows.len() as f64, columns }
    }

    /// The one-pass statistics equal the per-column ones to the bit (`Debug`
    /// tells `Int(3)` from `Float(3.0)` and prints every `f64` exactly) on
    /// every table, at two scales.
    #[test]
    fn one_pass_stats_match_per_column_stats() {
        for sf in [0.002, 0.01] {
            let d = generate(sf, 42).unwrap();
            let mut tables = 0;
            for def in d.catalog.tables() {
                let rows = d.rows(&def.name).unwrap();
                let want = stats_per_column(&def.schema, rows);
                assert_eq!(
                    format!("{:?}", def.stats),
                    format!("{want:?}"),
                    "{} at sf {sf}",
                    def.name
                );
                tables += 1;
            }
            assert_eq!(tables, 8);
        }
    }

    #[test]
    fn referential_integrity() {
        let d = generate(0.002, 7).unwrap();
        let n_cust = d.rows("customer").unwrap().len() as i64;
        for o in d.rows("orders").unwrap() {
            let ck = o.get(1).as_i64().unwrap();
            assert!(ck >= 1 && ck <= n_cust);
        }
        let n_part = d.rows("part").unwrap().len() as i64;
        let n_supp = d.rows("supplier").unwrap().len() as i64;
        for l in d.rows("lineitem").unwrap().iter().take(500) {
            assert!(l.get(1).as_i64().unwrap() <= n_part);
            assert!(l.get(2).as_i64().unwrap() <= n_supp);
            // receiptdate after shipdate.
            assert!(l.get(12).as_i64().unwrap() > l.get(10).as_i64().unwrap());
        }
    }

    #[test]
    fn schemas_resolve_expected_columns() {
        let d = generate(0.002, 1).unwrap();
        for (table, col) in [
            ("lineitem", "l_shipdate"),
            ("orders", "o_orderpriority"),
            ("part", "p_brand"),
            ("partsupp", "ps_supplycost"),
            ("customer", "c_mktsegment"),
            ("supplier", "s_comment"),
            ("nation", "n_name"),
            ("region", "r_name"),
        ] {
            let t = d.catalog.table_by_name(table).unwrap();
            assert!(t.schema.index_of(col).is_ok(), "{table}.{col}");
        }
    }
}

/// Rebuild a catalog with statistics recomputed from observed rows — the
/// paper's calibration loop for recurring queries ("we can calibrate the
/// cardinality estimation based on previous query executions", Sec. 3.2):
/// after a trigger's data has been seen, re-deriving exact statistics from
/// it makes the next trigger's pace search work from measured reality
/// instead of stale estimates.
pub fn calibrate(catalog: &Catalog, observed: &HashMap<TableId, Vec<Row>>) -> Result<Catalog> {
    let mut out = Catalog::new();
    for def in catalog.tables() {
        let stats = match observed.get(&def.id) {
            Some(rows) => compute_stats(&def.schema, rows),
            None => def.stats.clone(),
        };
        out.add_table(def.name.clone(), def.schema.clone(), stats)?;
    }
    Ok(out)
}

#[cfg(test)]
mod calibrate_tests {
    use super::*;
    use ishare_storage::Field;

    #[test]
    fn calibrate_replaces_stale_stats() {
        // A catalog registered with wildly wrong stats gets corrected from
        // the observed rows; unobserved tables keep their priors.
        let mut stale = Catalog::new();
        let schema =
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]);
        let t = stale.add_table("t", schema.clone(), TableStats::unknown(1_000_000.0, 2)).unwrap();
        let _u = stale.add_table("u", schema.clone(), TableStats::unknown(7.0, 2)).unwrap();
        let rows: Vec<Row> =
            (0..100).map(|i| Row::new(vec![Value::Int(i % 10), Value::Int(i)])).collect();
        let observed: HashMap<TableId, Vec<Row>> = [(t, rows)].into_iter().collect();
        let fresh = calibrate(&stale, &observed).unwrap();
        let t_stats = &fresh.table_by_name("t").unwrap().stats;
        assert_eq!(t_stats.row_count, 100.0);
        assert_eq!(t_stats.columns[0].ndv, 10.0);
        assert_eq!(t_stats.columns[1].min, Some(0.0));
        assert_eq!(t_stats.columns[1].max, Some(99.0));
        // Unobserved table unchanged.
        assert_eq!(fresh.table_by_name("u").unwrap().stats.row_count, 7.0);
        // Ids preserved positionally.
        assert_eq!(fresh.table_by_name("t").unwrap().id, t);
    }

    #[test]
    fn calibration_tightens_the_cost_model() {
        // With calibrated stats the estimator's batch total tracks the
        // measured engine total much more closely than with a stale prior.
        let d = generate(0.002, 31).unwrap();
        let li = d.catalog.table_by_name("lineitem").unwrap();
        // Build a stale catalog: same schemas, naive stats.
        let mut stale = Catalog::new();
        for def in d.catalog.tables() {
            stale
                .add_table(
                    def.name.clone(),
                    def.schema.clone(),
                    TableStats::unknown(100.0, def.schema.arity()),
                )
                .unwrap();
        }
        let calibrated = calibrate(&stale, &d.data).unwrap();
        let c_li = calibrated.table_by_name("lineitem").unwrap();
        assert_eq!(c_li.stats.row_count, li.stats.row_count);
        assert!((c_li.stats.columns[4].ndv - li.stats.columns[4].ndv).abs() < 1e-9);
    }
}
