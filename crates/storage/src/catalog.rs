//! Base relation catalog and column statistics.
//!
//! The paper assumes "knowledge of the data arrival rate … historical
//! statistics can estimate this information. We use this information to
//! estimate the cost of query execution and query latency." (Sec. 2.1).
//! [`TableStats`] carries the per-column statistics (distinct counts and
//! min/max) the cardinality estimator in `ishare-cost` uses, plus the
//! expected total row count for one trigger condition.

use crate::schema::Schema;
use ishare_common::{Error, Result, TableId, Value};
use std::collections::HashMap;

/// Statistics for one column of a base relation.
///
/// `Copy`: the cost simulator derives every operator's column statistics
/// from its inputs' on each cold simulation, so copying them must be a
/// memcpy. The range is kept as the `f64` view ([`Value::as_f64`]) that
/// range selectivity reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Estimated number of distinct values.
    pub ndv: f64,
    /// Minimum value, if known (numeric/date columns).
    pub min: Option<f64>,
    /// Maximum value, if known.
    pub max: Option<f64>,
}

impl ColumnStats {
    /// Stats with only a distinct count.
    pub fn ndv(ndv: f64) -> Self {
        ColumnStats { ndv, min: None, max: None }
    }

    /// Stats with distinct count and a numeric range; a bound with no
    /// numeric view (a string, a boolean) is unknown.
    pub fn with_range(ndv: f64, min: Value, max: Value) -> Self {
        ColumnStats { ndv, min: min.as_f64(), max: max.as_f64() }
    }
}

/// Statistics for a base relation, describing the data of *one trigger
/// condition* (e.g. one day of loaded data).
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Expected total number of rows arriving before the trigger point.
    pub row_count: f64,
    /// Per-column statistics, positionally aligned with the schema.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Uniform fallback stats for a table where nothing is known: every
    /// column gets `ndv = row_count` (i.e. treated as a key).
    pub fn unknown(row_count: f64, arity: usize) -> Self {
        TableStats {
            row_count,
            columns: (0..arity).map(|_| ColumnStats::ndv(row_count.max(1.0))).collect(),
        }
    }
}

/// A base relation: schema plus statistics.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Catalog identifier.
    pub id: TableId,
    /// Relation name.
    pub name: String,
    /// Row layout.
    pub schema: Schema,
    /// Statistics for one trigger condition's worth of data.
    pub stats: TableStats,
}

/// The catalog of base relations known to a workload.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<TableDef>,
    by_name: HashMap<String, TableId>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a relation; returns its id. Errors if the name is taken.
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        stats: TableStats,
    ) -> Result<TableId> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(Error::InvalidConfig(format!("table `{name}` already registered")));
        }
        if stats.columns.len() != schema.arity() {
            return Err(Error::InvalidConfig(format!(
                "table `{name}`: {} column stats for arity {}",
                stats.columns.len(),
                schema.arity()
            )));
        }
        let id = TableId(self.tables.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.tables.push(TableDef { id, name, schema, stats });
        Ok(id)
    }

    /// Look up by id.
    pub fn table(&self, id: TableId) -> Result<&TableDef> {
        self.tables.get(id.0 as usize).ok_or_else(|| Error::NotFound(format!("table {id}")))
    }

    /// Look up by name.
    pub fn table_by_name(&self, name: &str) -> Result<&TableDef> {
        let id =
            self.by_name.get(name).ok_or_else(|| Error::NotFound(format!("table `{name}`")))?;
        self.table(*id)
    }

    /// All registered relations.
    pub fn tables(&self) -> &[TableDef] {
        &self.tables
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` iff no relations are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use ishare_common::DataType;

    fn schema2() -> Schema {
        Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Float)])
    }

    #[test]
    fn add_and_lookup() {
        let mut c = Catalog::new();
        let id = c.add_table("orders", schema2(), TableStats::unknown(100.0, 2)).unwrap();
        assert_eq!(c.table(id).unwrap().name, "orders");
        assert_eq!(c.table_by_name("orders").unwrap().id, id);
        assert!(c.table_by_name("nope").is_err());
        assert!(c.table(TableId(9)).is_err());
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut c = Catalog::new();
        c.add_table("t", schema2(), TableStats::unknown(1.0, 2)).unwrap();
        assert!(c.add_table("t", schema2(), TableStats::unknown(1.0, 2)).is_err());
    }

    #[test]
    fn stats_arity_checked() {
        let mut c = Catalog::new();
        let bad = TableStats::unknown(10.0, 3); // schema has arity 2
        assert!(c.add_table("t", schema2(), bad).is_err());
    }

    #[test]
    fn unknown_stats_shape() {
        let s = TableStats::unknown(50.0, 2);
        assert_eq!(s.columns.len(), 2);
        assert_eq!(s.columns[0].ndv, 50.0);
        let cs = ColumnStats::with_range(10.0, Value::Int(0), Value::Int(9));
        assert_eq!(cs.min, Some(0.0));
    }
}
