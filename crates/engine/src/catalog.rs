//! The catalog: in-memory tables and sequences.

use crate::error::SqlError;
use soft_types::value::{DataType, Value};
use std::collections::BTreeMap;

/// A column of a stored table.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name (stored lowercase).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// `NOT NULL` constraint.
    pub not_null: bool,
}

/// An in-memory table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Columns in definition order.
    pub columns: Vec<Column>,
    /// Row store.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lower)
    }
}

/// The catalog of tables and sequences.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    sequences: BTreeMap<String, i64>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Creates a table. Errors if it already exists and `if_not_exists` is
    /// false.
    pub fn create_table(
        &mut self,
        name: &str,
        columns: Vec<Column>,
        if_not_exists: bool,
    ) -> Result<(), SqlError> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            if if_not_exists {
                return Ok(());
            }
            return Err(SqlError::Semantic(format!("table {name} already exists")));
        }
        if columns.is_empty() {
            return Err(SqlError::Semantic("a table needs at least one column".into()));
        }
        {
            let mut names: Vec<&str> = columns.iter().map(|c| c.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            if names.len() != columns.len() {
                return Err(SqlError::Semantic(format!("duplicate column in table {name}")));
            }
        }
        self.tables.insert(key, Table { columns, rows: Vec::new() });
        Ok(())
    }

    /// Drops a table.
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<(), SqlError> {
        let key = name.to_ascii_lowercase();
        if self.tables.remove(&key).is_none() && !if_exists {
            return Err(SqlError::Semantic(format!("unknown table {name}")));
        }
        Ok(())
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Looks up a table mutably.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(&name.to_ascii_lowercase())
    }

    /// Advances and returns the named sequence (`NEXTVAL`), creating it at 1.
    pub fn nextval(&mut self, name: &str) -> i64 {
        let v = self.sequences.entry(name.to_ascii_lowercase()).or_insert(0);
        *v += 1;
        *v
    }

    /// Returns the current value of a sequence (`LASTVAL`/`CURRVAL`).
    pub fn currval(&self, name: &str) -> Option<i64> {
        self.sequences.get(&name.to_ascii_lowercase()).copied()
    }

    /// Sets a sequence (`SETVAL`).
    pub fn setval(&mut self, name: &str, value: i64) {
        self.sequences.insert(name.to_ascii_lowercase(), value);
    }

    /// Drops all tables and sequences.
    pub fn reset(&mut self) {
        self.tables.clear();
        self.sequences.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(name: &str, t: DataType) -> Column {
        Column { name: name.into(), data_type: t, not_null: false }
    }

    #[test]
    fn create_and_drop() {
        let mut c = Catalog::new();
        c.create_table("T1", vec![col("a", DataType::Integer)], false).unwrap();
        assert!(c.table("t1").is_some());
        assert!(c.create_table("t1", vec![col("a", DataType::Integer)], false).is_err());
        c.create_table("t1", vec![col("a", DataType::Integer)], true).unwrap();
        c.drop_table("T1", false).unwrap();
        assert!(c.drop_table("t1", false).is_err());
        c.drop_table("t1", true).unwrap();
    }

    #[test]
    fn rejects_degenerate_tables() {
        let mut c = Catalog::new();
        assert!(c.create_table("t", vec![], false).is_err());
        assert!(c
            .create_table("t", vec![col("a", DataType::Integer), col("a", DataType::Text)], false)
            .is_err());
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let t = Table {
            columns: vec![col("abc", DataType::Integer)],
            rows: vec![],
        };
        assert_eq!(t.column_index("ABC"), Some(0));
        assert_eq!(t.column_index("missing"), None);
    }

    #[test]
    fn sequences() {
        let mut c = Catalog::new();
        assert_eq!(c.currval("s"), None);
        assert_eq!(c.nextval("s"), 1);
        assert_eq!(c.nextval("S"), 2);
        assert_eq!(c.currval("s"), Some(2));
        c.setval("s", 100);
        assert_eq!(c.nextval("s"), 101);
    }
}
