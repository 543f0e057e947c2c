//! Schema of the synthetic IMDB-like database and its PK-FK join graph.

/// Data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    Int,
    Str,
}

/// Definition of a single column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ColumnType,
    /// True when this column is the table's primary key.
    pub primary_key: bool,
    /// `(table, column)` this column references, when it is a foreign key.
    pub references: Option<(String, String)>,
    /// True when an index exists on this column (PKs always have one).
    pub indexed: bool,
}

impl ColumnDef {
    fn int(name: &str) -> Self {
        ColumnDef { name: name.into(), ty: ColumnType::Int, primary_key: false, references: None, indexed: false }
    }

    fn str(name: &str) -> Self {
        ColumnDef { name: name.into(), ty: ColumnType::Str, primary_key: false, references: None, indexed: false }
    }

    fn pk(name: &str) -> Self {
        ColumnDef { name: name.into(), ty: ColumnType::Int, primary_key: true, references: None, indexed: true }
    }

    fn fk(name: &str, table: &str, column: &str) -> Self {
        ColumnDef {
            name: name.into(),
            ty: ColumnType::Int,
            primary_key: false,
            references: Some((table.into(), column.into())),
            indexed: true,
        }
    }
}

/// Definition of a table: its name and ordered column definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    pub name: String,
    pub columns: Vec<ColumnDef>,
}

impl TableDef {
    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column definition by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// The primary-key column, if any.
    pub fn primary_key(&self) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.primary_key)
    }
}

/// An undirected PK-FK join edge of the schema's join graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinEdge {
    pub fk_table: String,
    pub fk_column: String,
    pub pk_table: String,
    pub pk_column: String,
}

/// The database schema: table definitions plus the derived join graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    pub tables: Vec<TableDef>,
}

impl Schema {
    /// The synthetic IMDB-like schema used throughout the reproduction.
    ///
    /// Fact tables reference `title` (movies); the dimension tables
    /// (`info_type`, `company_type`, `keyword`, `company_name`) carry the
    /// string values used by the JOB-style predicates.
    pub fn imdb() -> Self {
        let tables = vec![
            TableDef {
                name: "title".into(),
                columns: vec![
                    ColumnDef::pk("id"),
                    ColumnDef::str("title"),
                    ColumnDef::int("kind_id"),
                    ColumnDef::int("production_year"),
                    ColumnDef::int("season_nr"),
                    ColumnDef::int("episode_nr"),
                ],
            },
            TableDef {
                name: "movie_companies".into(),
                columns: vec![
                    ColumnDef::pk("id"),
                    ColumnDef::fk("movie_id", "title", "id"),
                    ColumnDef::fk("company_id", "company_name", "id"),
                    ColumnDef::fk("company_type_id", "company_type", "id"),
                    ColumnDef::str("note"),
                ],
            },
            TableDef {
                name: "movie_info_idx".into(),
                columns: vec![
                    ColumnDef::pk("id"),
                    ColumnDef::fk("movie_id", "title", "id"),
                    ColumnDef::fk("info_type_id", "info_type", "id"),
                    ColumnDef::str("info"),
                ],
            },
            TableDef {
                name: "movie_info".into(),
                columns: vec![
                    ColumnDef::pk("id"),
                    ColumnDef::fk("movie_id", "title", "id"),
                    ColumnDef::fk("info_type_id", "info_type", "id"),
                    ColumnDef::str("info"),
                ],
            },
            TableDef {
                name: "movie_keyword".into(),
                columns: vec![
                    ColumnDef::pk("id"),
                    ColumnDef::fk("movie_id", "title", "id"),
                    ColumnDef::fk("keyword_id", "keyword", "id"),
                ],
            },
            TableDef {
                name: "cast_info".into(),
                columns: vec![
                    ColumnDef::pk("id"),
                    ColumnDef::fk("movie_id", "title", "id"),
                    ColumnDef::int("person_id"),
                    ColumnDef::int("role_id"),
                    ColumnDef::str("note"),
                ],
            },
            TableDef { name: "company_type".into(), columns: vec![ColumnDef::pk("id"), ColumnDef::str("kind")] },
            TableDef { name: "info_type".into(), columns: vec![ColumnDef::pk("id"), ColumnDef::str("info")] },
            TableDef { name: "keyword".into(), columns: vec![ColumnDef::pk("id"), ColumnDef::str("keyword")] },
            TableDef {
                name: "company_name".into(),
                columns: vec![ColumnDef::pk("id"), ColumnDef::str("name"), ColumnDef::str("country_code")],
            },
        ];
        Schema { tables }
    }

    /// Look up a table definition by name.
    pub fn table(&self, name: &str) -> Option<&TableDef> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// All PK-FK join edges of the schema.
    pub fn join_edges(&self) -> Vec<JoinEdge> {
        let mut edges = Vec::new();
        for t in &self.tables {
            for c in &t.columns {
                if let Some((pk_table, pk_column)) = &c.references {
                    edges.push(JoinEdge {
                        fk_table: t.name.clone(),
                        fk_column: c.name.clone(),
                        pk_table: pk_table.clone(),
                        pk_column: pk_column.clone(),
                    });
                }
            }
        }
        edges
    }

    /// Join edges incident to a table.
    pub fn edges_for(&self, table: &str) -> Vec<JoinEdge> {
        self.join_edges().into_iter().filter(|e| e.fk_table == table || e.pk_table == table).collect()
    }

    /// All (table, column) pairs, in schema order.  Used by the feature
    /// encoder to assign one-hot positions.
    pub fn all_columns(&self) -> Vec<(String, String)> {
        let mut cols = Vec::new();
        for t in &self.tables {
            for c in &t.columns {
                cols.push((t.name.clone(), c.name.clone()));
            }
        }
        cols
    }

    /// All indexed (table, column) pairs.
    pub fn all_indexes(&self) -> Vec<(String, String)> {
        let mut idx = Vec::new();
        for t in &self.tables {
            for c in &t.columns {
                if c.indexed {
                    idx.push((t.name.clone(), c.name.clone()));
                }
            }
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imdb_schema_has_expected_tables() {
        let s = Schema::imdb();
        for name in ["title", "movie_companies", "movie_info_idx", "company_type", "info_type"] {
            assert!(s.table(name).is_some(), "missing table {name}");
        }
        assert_eq!(s.tables.len(), 10);
    }

    #[test]
    fn join_edges_reference_existing_tables() {
        let s = Schema::imdb();
        for e in s.join_edges() {
            assert!(s.table(&e.fk_table).is_some());
            assert!(s.table(&e.pk_table).is_some());
            let fk_tab = s.table(&e.fk_table).expect("table exists");
            assert!(fk_tab.column(&e.fk_column).is_some());
        }
        assert!(s.join_edges().len() >= 8);
    }

    #[test]
    fn every_table_has_a_primary_key() {
        let s = Schema::imdb();
        for t in &s.tables {
            assert!(t.primary_key().is_some(), "{} lacks a PK", t.name);
        }
    }

    #[test]
    fn column_index_lookup() {
        let s = Schema::imdb();
        let t = s.table("title").expect("title exists");
        assert_eq!(t.column_index("id"), Some(0));
        assert_eq!(t.column_index("production_year"), Some(3));
        assert_eq!(t.column_index("nope"), None);
    }

    #[test]
    fn edges_for_title_cover_fact_tables() {
        let s = Schema::imdb();
        let edges = s.edges_for("title");
        let fk_tables: Vec<&str> = edges.iter().map(|e| e.fk_table.as_str()).collect();
        assert!(fk_tables.contains(&"movie_companies"));
        assert!(fk_tables.contains(&"movie_info_idx"));
        assert!(fk_tables.contains(&"cast_info"));
    }

    #[test]
    fn all_columns_and_indexes_nonempty() {
        let s = Schema::imdb();
        assert!(s.all_columns().len() > 20);
        assert!(s.all_indexes().len() >= 10);
    }
}
