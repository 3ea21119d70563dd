//! Relational shredding targets: table schemas with keys and foreign
//! keys, SQL DDL / `INSERT` rendering, and shredded row sets.
//!
//! This module is the *relational half* of the XML→relational shredding
//! backend (the Atay et al. recipe from PAPERS.md specialized to the
//! paper's tree model): plain data — no DTD or document types — so it
//! lives in `xnf-relational` next to the BCNF machinery it is checked
//! against. The *compiler* that maps a `(D, Σ)` spec onto a
//! [`RelDesign`] and shreds documents into [`ShreddedDoc`]s lives in
//! `xnf-core::shred`, which can see both sides.
//!
//! Column roles fix the shredding contract:
//!
//! * [`ColumnRole::Id`] — the node ordinal among the nodes at the
//!   table's element path, in document order; always the primary key.
//! * [`ColumnRole::Parent`] — the parent node's `Id` in the parent
//!   path's table; a foreign key. Absent on the root table.
//! * [`ColumnRole::Pos`] — the node's index in its parent's child list
//!   (across *all* sibling labels), so reconstruction is exact, not
//!   merely up to sibling reordering. `(Parent, Pos)` is unique.
//! * [`ColumnRole::Attr`] / [`ColumnRole::Text`] — the data columns:
//!   one per DTD attribute, plus one for `#PCDATA` content.
//!
//! Each table carries the Σ-derived [`FdSet`] over its columns, so
//! [`is_bcnf`](crate::bcnf::is_bcnf) runs on emitted tables directly —
//! the executable side of the Proposition 4 correspondence.

use crate::fd::{AttrSet, Fd, FdSet, RelSchema};
use crate::table::Value;
use crate::{RelError, Result};
use std::fmt::Write as _;
use xnf_obs::json::quoted;

/// What a column stores; fixes both its SQL type and how the shredder
/// fills it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnRole {
    /// Node ordinal at this table's element path (primary key).
    Id,
    /// Parent node's ordinal in the parent table (foreign key).
    Parent,
    /// Index in the parent's child list (document order).
    Pos,
    /// An XML attribute value.
    Attr,
    /// The element's `#PCDATA` content.
    Text,
}

impl ColumnRole {
    /// The SQL type a column of this role is declared with.
    pub fn sql_type(self) -> &'static str {
        match self {
            ColumnRole::Id | ColumnRole::Parent | ColumnRole::Pos => "INTEGER",
            ColumnRole::Attr | ColumnRole::Text => "TEXT",
        }
    }

    /// Whether the column may be `NULL` (only text content, which an
    /// element may lack, is nullable; attributes are `#REQUIRED` in the
    /// DTD fragment of the paper).
    pub fn nullable(self) -> bool {
        matches!(self, ColumnRole::Text)
    }

    /// Stable lower-case name for JSON rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            ColumnRole::Id => "id",
            ColumnRole::Parent => "parent",
            ColumnRole::Pos => "pos",
            ColumnRole::Attr => "attr",
            ColumnRole::Text => "text",
        }
    }
}

/// A named, typed column of a shredding target table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// SQL identifier (sanitized to `[A-Za-z0-9_]` by the compiler).
    pub name: String,
    /// What the column stores.
    pub role: ColumnRole,
}

/// A foreign-key edge from a child table's [`ColumnRole::Parent`]
/// column to its parent table's [`ColumnRole::Id`] column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing column in this table.
    pub column: String,
    /// Referenced (parent) table.
    pub parent_table: String,
    /// Referenced column (the parent's id).
    pub parent_column: String,
}

/// One shredding target table: schema, keys, foreign key, and the
/// Σ-derived FDs over its columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (unique within the design).
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Unique keys beyond the primary key, as column-name lists.
    pub unique_keys: Vec<Vec<String>>,
    /// The parent edge, absent on the root table.
    pub foreign_key: Option<ForeignKey>,
    /// FDs over the columns derived from `(D, Σ)` by the compiler
    /// (implication queries through the chase), expressed over
    /// [`Self::rel_schema`] column indices.
    pub fds: FdSet,
}

impl TableSchema {
    /// A table with the given name and columns, no extra keys and no
    /// derived FDs yet.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> TableSchema {
        TableSchema {
            name: name.into(),
            columns,
            unique_keys: Vec::new(),
            foreign_key: None,
            fds: FdSet::new(),
        }
    }

    /// The index of column `name`.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| RelError::UnknownAttribute(name.to_string()))
    }

    /// The primary-key column (the [`ColumnRole::Id`] column).
    pub fn primary_key(&self) -> Option<&Column> {
        self.columns.iter().find(|c| c.role == ColumnRole::Id)
    }

    /// The table as a flat [`RelSchema`] (for [`AttrSet`] / [`FdSet`]
    /// interop with the BCNF machinery).
    pub fn rel_schema(&self) -> Result<RelSchema> {
        RelSchema::new(&self.name, self.columns.iter().map(|c| c.name.as_str()))
    }

    /// Whether the table is in BCNF under its Σ-derived [`Self::fds`] —
    /// the per-table side of the Proposition 4 differential.
    pub fn is_bcnf(&self) -> bool {
        crate::bcnf::is_bcnf(&self.fds, AttrSet::full(self.columns.len()))
    }

    /// The first BCNF violation under [`Self::fds`], if any.
    pub fn bcnf_violation(&self) -> Option<Fd> {
        crate::bcnf::bcnf_violation(&self.fds, AttrSet::full(self.columns.len()))
    }

    /// `CREATE TABLE` statement (SQLite-compatible; identifiers are
    /// double-quoted, which is also standard SQL).
    pub fn to_create_sql(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "CREATE TABLE \"{}\" (", self.name);
        let mut lines: Vec<String> = Vec::new();
        for c in &self.columns {
            let mut line = format!("  \"{}\" {}", c.name, c.role.sql_type());
            if !c.role.nullable() {
                line.push_str(" NOT NULL");
            }
            if c.role == ColumnRole::Id {
                line.push_str(" PRIMARY KEY");
            }
            lines.push(line);
        }
        for key in &self.unique_keys {
            let cols: Vec<String> = key.iter().map(|k| format!("\"{k}\"")).collect();
            lines.push(format!("  UNIQUE ({})", cols.join(", ")));
        }
        if let Some(fk) = &self.foreign_key {
            lines.push(format!(
                "  FOREIGN KEY (\"{}\") REFERENCES \"{}\" (\"{}\")",
                fk.column, fk.parent_table, fk.parent_column
            ));
        }
        out.push_str(&lines.join(",\n"));
        out.push_str("\n);\n");
        out
    }
}

/// A complete shredding target: one table per element path of the DTD.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RelDesign {
    /// Tables in parent-before-child order (the root table first).
    pub tables: Vec<TableSchema>,
}

impl RelDesign {
    /// Looks a table up by name.
    pub fn table(&self, name: &str) -> Result<&TableSchema> {
        self.tables
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    /// Full DDL: `CREATE TABLE` statements in parent-before-child
    /// order, so foreign keys always reference an existing table.
    pub fn to_sql(&self) -> String {
        self.tables
            .iter()
            .map(TableSchema::to_create_sql)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// JSON rendering of the schema (tables, columns, keys, FKs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"tables\": [");
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            let _ = writeln!(out, "      \"name\": {},", quoted(&t.name));
            out.push_str("      \"columns\": [");
            for (j, c) in t.columns.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n        {{\"name\": {}, \"role\": \"{}\", \"type\": \"{}\", \"nullable\": {}}}",
                    quoted(&c.name),
                    c.role.as_str(),
                    c.role.sql_type(),
                    c.role.nullable()
                );
            }
            out.push_str("\n      ],\n");
            let pk = t
                .primary_key()
                .map_or("null".to_string(), |c| quoted(&c.name).to_string());
            let _ = writeln!(out, "      \"primary_key\": {pk},");
            out.push_str("      \"unique_keys\": [");
            for (j, key) in t.unique_keys.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let cols: Vec<String> = key.iter().map(|k| quoted(k).to_string()).collect();
                let _ = write!(out, "[{}]", cols.join(", "));
            }
            out.push_str("],\n");
            match &t.foreign_key {
                Some(fk) => {
                    let _ = writeln!(
                        out,
                        "      \"foreign_key\": {{\"column\": {}, \"parent_table\": {}, \"parent_column\": {}}}",
                        quoted(&fk.column),
                        quoted(&fk.parent_table),
                        quoted(&fk.parent_column)
                    );
                }
                None => out.push_str("      \"foreign_key\": null\n"),
            }
            out.push_str("    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// The rows shredded out of one document for one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRows {
    /// The target table's name.
    pub table: String,
    /// Rows in the table's column order; integers are [`Value::Vert`],
    /// data values [`Value::Str`], absent text [`Value::Null`].
    pub rows: Vec<Vec<Value>>,
}

/// A whole document shredded into rows, one [`TableRows`] per design
/// table (in design order, empty tables included).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShreddedDoc {
    /// Per-table row sets.
    pub tables: Vec<TableRows>,
}

impl ShreddedDoc {
    /// Total number of rows across all tables.
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }

    /// The rows of table `name`.
    pub fn rows_for(&self, name: &str) -> Result<&TableRows> {
        self.tables
            .iter()
            .find(|t| t.table == name)
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    /// `INSERT` statements against `design`, parent tables first.
    pub fn to_insert_sql(&self, design: &RelDesign) -> Result<String> {
        let mut out = String::new();
        for t in &self.tables {
            let schema = design.table(&t.table)?;
            if schema.columns.len() != t.rows.first().map_or(schema.columns.len(), Vec::len) {
                return Err(RelError::ArityMismatch {
                    expected: schema.columns.len(),
                    found: t.rows[0].len(),
                });
            }
            let cols: Vec<String> = schema
                .columns
                .iter()
                .map(|c| format!("\"{}\"", c.name))
                .collect();
            for row in &t.rows {
                let vals: Vec<String> = row.iter().map(sql_value).collect();
                let _ = writeln!(
                    out,
                    "INSERT INTO \"{}\" ({}) VALUES ({});",
                    t.table,
                    cols.join(", "),
                    vals.join(", ")
                );
            }
        }
        Ok(out)
    }

    /// JSON rendering: `{"tables": [{"name": …, "rows": [[…]]}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"tables\": [");
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"name\": {}, \"rows\": [", quoted(&t.table));
            for (j, row) in t.rows.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let vals: Vec<String> = row.iter().map(json_value).collect();
                let _ = write!(out, "[{}]", vals.join(", "));
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Renders a value as a SQL literal (`'…'` with doubled quotes, bare
/// integers for vertices, `NULL` for `⊥`).
fn sql_value(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Str(s) => format!("'{}'", s.replace("'", "''")),
        Value::Vert(n) => n.to_string(),
    }
}

/// Renders a value as a JSON literal.
fn json_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Str(s) => quoted(s).to_string(),
        Value::Vert(n) => n.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn course_table() -> TableSchema {
        let mut t = TableSchema::new(
            "course",
            vec![
                Column {
                    name: "xnf_id".into(),
                    role: ColumnRole::Id,
                },
                Column {
                    name: "xnf_parent".into(),
                    role: ColumnRole::Parent,
                },
                Column {
                    name: "xnf_pos".into(),
                    role: ColumnRole::Pos,
                },
                Column {
                    name: "cno".into(),
                    role: ColumnRole::Attr,
                },
            ],
        );
        t.unique_keys.push(vec!["cno".into()]);
        t.foreign_key = Some(ForeignKey {
            column: "xnf_parent".into(),
            parent_table: "courses".into(),
            parent_column: "xnf_id".into(),
        });
        t
    }

    #[test]
    fn ddl_has_keys_and_fk() {
        let sql = course_table().to_create_sql();
        assert!(sql.contains("CREATE TABLE \"course\""));
        assert!(sql.contains("\"xnf_id\" INTEGER NOT NULL PRIMARY KEY"));
        assert!(sql.contains("UNIQUE (\"cno\")"));
        assert!(sql.contains("FOREIGN KEY (\"xnf_parent\") REFERENCES \"courses\" (\"xnf_id\")"));
        // Trailing statement terminator so files concatenate into scripts.
        assert!(sql.ends_with(");\n"));
    }

    #[test]
    fn inserts_escape_quotes_and_render_nulls() {
        let design = RelDesign {
            tables: vec![course_table()],
        };
        let doc = ShreddedDoc {
            tables: vec![TableRows {
                table: "course".into(),
                rows: vec![vec![
                    Value::Vert(0),
                    Value::Vert(0),
                    Value::Vert(1),
                    Value::str("o'clock"),
                ]],
            }],
        };
        let sql = doc.to_insert_sql(&design).unwrap();
        assert!(sql.contains("VALUES (0, 0, 1, 'o''clock');"));
        let json = doc.to_json();
        assert!(json.contains("\"rows\": [[0, 0, 1, \"o'clock\"]]"));
    }

    #[test]
    fn bcnf_check_runs_over_derived_fds() {
        let mut t = course_table();
        // id → everything: BCNF.
        t.fds = FdSet::from_fds([Fd::new(
            AttrSet::singleton(0),
            AttrSet::full(t.columns.len()),
        )]);
        assert!(t.is_bcnf());
        // A non-key data column determining another: violation.
        t.fds
            .push(Fd::new(AttrSet::singleton(3), AttrSet::singleton(1)));
        assert!(!t.is_bcnf());
        assert!(t.bcnf_violation().is_some());
    }

    #[test]
    fn json_schema_rendering_is_wellformed_enough() {
        let design = RelDesign {
            tables: vec![course_table()],
        };
        let json = design.to_json();
        assert!(json.contains("\"primary_key\": \"xnf_id\""));
        assert!(json.contains("\"unique_keys\": [[\"cno\"]]"));
        assert!(json.contains("\"parent_table\": \"courses\""));
        xnf_obs::json::parse(&json).expect("the schema rendering is JSON");
    }
}
