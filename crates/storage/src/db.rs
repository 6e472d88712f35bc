//! The database façade: catalog + tables + buffer pool + indices.
//!
//! [`Database`] is what the upper layers (engine, core) talk to. It is
//! thread-safe: scans take a read lock, appends a write lock. The
//! workload is append-only (like the paper's), so this coarse scheme is
//! not a bottleneck.

use crate::buffer::{BufferPool, BufferPoolConfig};
use crate::catalog::{Catalog, Disposition};
use crate::column::ColumnData;
use crate::error::{Result, StorageError};
use crate::index::{HashIndex, JoinIndex, KeyRanges};
use crate::schema::TableSchema;
use crate::table::Table;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Which constraints to verify on append.
///
/// The paper's *lazy* variant "omit\[s\] the foreign key constraints
/// between the data table and the metadata tables, to avoid constraint
/// verification whenever data is loaded" (§VI-A); eager variants verify
/// everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintPolicy {
    pub verify_pk: bool,
    pub verify_fk: bool,
}

impl ConstraintPolicy {
    /// Verify primary and foreign keys (eager loading).
    pub fn all() -> Self {
        ConstraintPolicy { verify_pk: true, verify_fk: true }
    }

    /// Verify primary keys only (lazy loading: FKs are system-generated,
    /// "enforced by design").
    pub fn pk_only() -> Self {
        ConstraintPolicy { verify_pk: true, verify_fk: false }
    }

    /// Verify nothing (bulk re-load of already-validated data).
    pub fn none() -> Self {
        ConstraintPolicy { verify_pk: false, verify_fk: false }
    }
}

/// Materialized primary-key state: the PK columns plus their hash index.
struct PkState {
    cols: Vec<ColumnData>,
    index: HashIndex,
}

/// Runtime state for one table.
struct TableState {
    table: Table,
    pk: Option<PkState>,
    /// FK join indices keyed by parent table name.
    join_indices: HashMap<String, Arc<JoinIndex>>,
    /// Key-range directories keyed by column name (see
    /// [`Database::key_ranges`]). Row positions shift exactly when join
    /// indices go stale, so both are cleared together.
    key_ranges: HashMap<String, Arc<KeyRanges>>,
}

impl TableState {
    fn new(table: Table) -> Self {
        TableState {
            table,
            pk: None,
            join_indices: HashMap::new(),
            key_ranges: HashMap::new(),
        }
    }

    /// Drop the structures that address rows by position.
    fn invalidate_positions(&mut self) {
        self.join_indices.clear();
        self.key_ranges.clear();
    }
}

/// The database.
pub struct Database {
    dir: Option<PathBuf>,
    pool: Arc<BufferPool>,
    inner: RwLock<Inner>,
}

struct Inner {
    catalog: Catalog,
    tables: HashMap<String, TableState>,
}

impl Database {
    /// A purely in-memory database (all tables resident; tests and
    /// temporary chunk staging).
    pub fn in_memory(config: BufferPoolConfig) -> Self {
        Database {
            dir: None,
            pool: Arc::new(BufferPool::new(config)),
            inner: RwLock::new(Inner { catalog: Catalog::new(), tables: HashMap::new() }),
        }
    }

    /// Create a new on-disk database under `dir` (fails if a catalog
    /// already exists there).
    pub fn create(dir: &Path, config: BufferPoolConfig) -> Result<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::io(format!("creating {}", dir.display()), e))?;
        let catalog_path = dir.join("catalog.somm");
        if catalog_path.exists() {
            return Err(StorageError::Catalog(format!(
                "database already exists at {}",
                dir.display()
            )));
        }
        let db = Database {
            dir: Some(dir.to_path_buf()),
            pool: Arc::new(BufferPool::new(config)),
            inner: RwLock::new(Inner { catalog: Catalog::new(), tables: HashMap::new() }),
        };
        db.inner.read().catalog.save(&catalog_path)?;
        Ok(db)
    }

    /// Open an existing on-disk database.
    pub fn open(dir: &Path, config: BufferPoolConfig) -> Result<Self> {
        let catalog = Catalog::load(&dir.join("catalog.somm"))?;
        let mut tables = HashMap::new();
        for entry in catalog.iter() {
            let name = entry.schema.name.clone();
            let table = match entry.disposition {
                Disposition::Persistent => Table::open_persistent(
                    entry.schema.clone(),
                    &dir.join("tables").join(&name),
                )?,
                // Resident tables start empty after a restart (they are
                // caches / scratch space by definition).
                Disposition::Resident => Table::new_resident(entry.schema.clone())?,
            };
            tables.insert(name, TableState::new(table));
        }
        Ok(Database {
            dir: Some(dir.to_path_buf()),
            pool: Arc::new(BufferPool::new(config)),
            inner: RwLock::new(Inner { catalog, tables }),
        })
    }

    /// Destroy the on-disk database directory, if any.
    pub fn destroy(dir: &Path) -> Result<()> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)
                .map_err(|e| StorageError::io(format!("removing {}", dir.display()), e))?;
        }
        Ok(())
    }

    /// The buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Create a table. In-memory databases force `Resident`.
    pub fn create_table(&self, schema: TableSchema, disposition: Disposition) -> Result<()> {
        let name = schema.name.clone();
        let mut inner = self.inner.write();
        let effective = match (&self.dir, disposition) {
            (None, _) => Disposition::Resident,
            (Some(_), d) => d,
        };
        inner.catalog.add_table(schema.clone(), effective)?;
        let table = match (effective, &self.dir) {
            (Disposition::Persistent, Some(dir)) => {
                Table::new_persistent(schema, &dir.join("tables").join(&name))?
            }
            _ => Table::new_resident(schema)?,
        };
        inner.tables.insert(name, TableState::new(table));
        self.save_catalog(&inner)?;
        Ok(())
    }

    /// Drop a table and delete its files.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let mut inner = self.inner.write();
        inner.catalog.drop_table(name)?;
        if let Some(state) = inner.tables.remove(name) {
            for path in state.table.column_paths() {
                self.pool.disk().forget(&path);
            }
        }
        if let Some(dir) = &self.dir {
            let tdir = dir.join("tables").join(name);
            if tdir.exists() {
                std::fs::remove_dir_all(&tdir).map_err(|e| {
                    StorageError::io(format!("removing {}", tdir.display()), e)
                })?;
            }
        }
        self.save_catalog(&inner)?;
        Ok(())
    }

    fn save_catalog(&self, inner: &Inner) -> Result<()> {
        if let Some(dir) = &self.dir {
            inner.catalog.save(&dir.join("catalog.somm"))?;
        }
        Ok(())
    }

    /// True if `name` exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.inner.read().catalog.contains(name)
    }

    /// Clone of the schema of `name`.
    pub fn table_schema(&self, name: &str) -> Result<TableSchema> {
        Ok(self.inner.read().catalog.get(name)?.schema.clone())
    }

    /// All table schemas.
    pub fn schemas(&self) -> Vec<TableSchema> {
        self.inner.read().catalog.iter().map(|e| e.schema.clone()).collect()
    }

    /// Row count of `name`.
    pub fn table_rows(&self, name: &str) -> Result<u64> {
        let inner = self.inner.read();
        let state = inner
            .tables
            .get(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?;
        Ok(state.table.rows())
    }

    /// Append a batch, verifying constraints per `policy`.
    pub fn append(
        &self,
        name: &str,
        cols: &[ColumnData],
        policy: ConstraintPolicy,
    ) -> Result<usize> {
        let mut inner = self.inner.write();
        let inner = &mut *inner;
        // Primary-key verification: maintain the PK index incrementally.
        let schema = inner
            .tables
            .get(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?
            .table
            .schema()
            .clone();
        if policy.verify_pk && !schema.primary_key.is_empty() {
            Self::ensure_pk_built(&self.pool, inner, name)?;
            let pk_col_idxs: Vec<usize> = schema
                .primary_key
                .iter()
                .map(|c| schema.col_index(c))
                .collect::<Result<_>>()?;
            let state = inner.tables.get_mut(name).expect("checked above");
            let pk = state.pk.as_mut().expect("built above");
            let old_rows = pk.cols.first().map_or(0, |c| c.len());
            for (slot, &ci) in pk.cols.iter_mut().zip(&pk_col_idxs) {
                slot.append(&cols[ci])?;
            }
            let batch_rows = cols.first().map_or(0, |c| c.len());
            let refs: Vec<&ColumnData> = pk.cols.iter().collect();
            for r in old_rows..old_rows + batch_rows {
                if let Err(e) = pk.index.try_insert(&refs, r, name) {
                    // Roll the PK cache back to a consistent state.
                    state.pk = None;
                    return Err(e);
                }
            }
        }
        // Foreign-key verification: probe each parent's PK index.
        if policy.verify_fk && !schema.foreign_keys.is_empty() {
            for fk in &schema.foreign_keys {
                Self::ensure_pk_built(&self.pool, inner, &fk.parent_table)?;
                let parent = inner.tables.get(&fk.parent_table).ok_or_else(|| {
                    StorageError::Catalog(format!("no such table {:?}", fk.parent_table))
                })?;
                let pk = parent.pk.as_ref().ok_or_else(|| {
                    StorageError::Constraint(format!(
                        "table {} has no primary key to reference",
                        fk.parent_table
                    ))
                })?;
                let child_cols: Vec<&ColumnData> = fk
                    .columns
                    .iter()
                    .map(|c| Ok(&cols[schema.col_index(c)?]))
                    .collect::<Result<_>>()?;
                let parent_refs: Vec<&ColumnData> = pk.cols.iter().collect();
                let batch_rows = cols.first().map_or(0, |c| c.len());
                for r in 0..batch_rows {
                    if pk.index.probe(&parent_refs, &child_cols, r).next().is_none() {
                        return Err(StorageError::Constraint(format!(
                            "foreign key in {name} row {r} has no parent in {}",
                            fk.parent_table
                        )));
                    }
                }
            }
        }
        let state = inner.tables.get_mut(name).expect("checked above");
        let was_persistent = state.table.is_persistent();
        let n = state.table.append(cols)?;
        // Any previously built join indices and key directories on this
        // table are stale.
        state.invalidate_positions();
        if was_persistent {
            for path in state.table.column_paths() {
                if let Some(fid) = self.pool.disk().forget(&path) {
                    self.pool.invalidate_file(fid);
                }
            }
        }
        Ok(n)
    }

    fn ensure_pk_built(pool: &BufferPool, inner: &mut Inner, name: &str) -> Result<()> {
        let state = inner
            .tables
            .get(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?;
        if state.pk.is_some() || state.table.schema().primary_key.is_empty() {
            return Ok(());
        }
        let schema = state.table.schema().clone();
        let mut pk_cols = Vec::with_capacity(schema.primary_key.len());
        for c in &schema.primary_key {
            pk_cols.push(state.table.scan_column(pool, schema.col_index(c)?)?);
        }
        let refs: Vec<&ColumnData> = pk_cols.iter().collect();
        let index = HashIndex::build_unique(&refs, name)?;
        inner.tables.get_mut(name).expect("checked above").pk =
            Some(PkState { cols: pk_cols, index });
        Ok(())
    }

    /// Materialize all columns of `name`.
    pub fn scan_table(&self, name: &str) -> Result<Vec<ColumnData>> {
        let inner = self.inner.read();
        let state = inner
            .tables
            .get(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?;
        state.table.scan(&self.pool)
    }

    /// Materialize selected columns of `name` (by column name).
    pub fn scan_columns(&self, name: &str, cols: &[&str]) -> Result<Vec<ColumnData>> {
        let inner = self.inner.read();
        let state = inner
            .tables
            .get(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?;
        let schema = state.table.schema();
        cols.iter()
            .map(|c| state.table.scan_column(&self.pool, schema.col_index(c)?))
            .collect()
    }

    /// Materialize rows `[from, to)` of selected columns of `name` (by
    /// column name); `to` is clamped to the row count. Persistent
    /// columns read only the pages the range covers.
    pub fn scan_columns_range(
        &self,
        name: &str,
        cols: &[&str],
        from: u64,
        to: u64,
    ) -> Result<Vec<ColumnData>> {
        let inner = self.inner.read();
        let state = inner
            .tables
            .get(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?;
        let schema = state.table.schema();
        cols.iter()
            .map(|c| {
                state.table.scan_column_range(&self.pool, schema.col_index(c)?, from, to)
            })
            .collect()
    }

    /// The row ranges of every key of `name`'s integer column `column`
    /// (e.g. `D.file_id`: which rows each chunk contributed). Built by
    /// one column scan on first use and cached until the table's rows
    /// move (`append`, `retain_rows`), like the join indices.
    pub fn key_ranges(&self, name: &str, column: &str) -> Result<Arc<KeyRanges>> {
        if let Some(ranges) =
            self.inner.read().tables.get(name).and_then(|s| s.key_ranges.get(column))
        {
            return Ok(Arc::clone(ranges));
        }
        // Built under the write lock, so no append can slip between the
        // scan and the cache insert and leave a stale directory behind.
        let mut inner = self.inner.write();
        let state = inner
            .tables
            .get_mut(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?;
        if let Some(ranges) = state.key_ranges.get(column) {
            return Ok(Arc::clone(ranges));
        }
        let idx = state.table.schema().col_index(column)?;
        let ranges = Arc::new(state.table.key_ranges(&self.pool, idx)?);
        state.key_ranges.insert(column.to_string(), Arc::clone(&ranges));
        Ok(ranges)
    }

    /// Build the PK hash index of `name` (idempotent).
    pub fn build_pk_index(&self, name: &str) -> Result<()> {
        let mut inner = self.inner.write();
        Self::ensure_pk_built(&self.pool, &mut inner, name)
    }

    /// Build every FK join index of `name` (the paper's *eager index*
    /// step). Verifies referential integrity as a side effect.
    pub fn build_join_indices(&self, name: &str) -> Result<()> {
        let schema = self.table_schema(name)?;
        for fk in &schema.foreign_keys {
            // Parent PK columns + index.
            {
                let mut inner = self.inner.write();
                Self::ensure_pk_built(&self.pool, &mut inner, &fk.parent_table)?;
            }
            let child_cols = {
                let names: Vec<&str> = fk.columns.iter().map(|s| s.as_str()).collect();
                self.scan_columns(name, &names)?
            };
            let mut inner = self.inner.write();
            let inner = &mut *inner;
            let parent = inner.tables.get(&fk.parent_table).ok_or_else(|| {
                StorageError::Catalog(format!("no such table {:?}", fk.parent_table))
            })?;
            let pk = parent.pk.as_ref().ok_or_else(|| {
                StorageError::Constraint(format!(
                    "table {} has no primary key to reference",
                    fk.parent_table
                ))
            })?;
            let parent_refs: Vec<&ColumnData> = pk.cols.iter().collect();
            let child_refs: Vec<&ColumnData> = child_cols.iter().collect();
            let ji =
                JoinIndex::build(&fk.parent_table, &pk.index, &parent_refs, &child_refs)?;
            inner
                .tables
                .get_mut(name)
                .expect("checked above")
                .join_indices
                .insert(fk.parent_table.clone(), Arc::new(ji));
        }
        Ok(())
    }

    /// Keep only the rows of `name` whose `keep` flag is true. Any
    /// cached PK state, join indices and key directories on the table
    /// are dropped (row
    /// positions shift), and buffer-pool pages of rewritten column
    /// files are invalidated. Returns the number of deleted rows.
    pub fn retain_rows(&self, name: &str, keep: &[bool]) -> Result<u64> {
        let mut inner = self.inner.write();
        Self::retain_rows_locked(&self.pool, &mut inner, name, keep)
    }

    fn retain_rows_locked(
        pool: &BufferPool,
        inner: &mut Inner,
        name: &str,
        keep: &[bool],
    ) -> Result<u64> {
        let state = inner
            .tables
            .get_mut(name)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?;
        let was_persistent = state.table.is_persistent();
        let deleted = state.table.retain_rows(pool, keep)?;
        if deleted > 0 {
            state.pk = None;
            state.invalidate_positions();
            if was_persistent {
                for path in state.table.column_paths() {
                    if let Some(fid) = pool.disk().forget(&path) {
                        pool.invalidate_file(fid);
                    }
                }
            }
        }
        Ok(deleted)
    }

    /// Chunk-scoped delete: remove every row of `name` whose `key_col`
    /// equals `key` (e.g. all of `D`'s rows for one chunk's `file_id`).
    /// This is the storage-level reclamation step of cellar eviction —
    /// the inverse of a lazy chunk ingest. Returns deleted rows.
    pub fn delete_chunk_rows(&self, name: &str, key_col: &str, key: i64) -> Result<u64> {
        let mut inner = self.inner.write();
        let keys = {
            let state = inner
                .tables
                .get(name)
                .ok_or_else(|| StorageError::Catalog(format!("no such table {name:?}")))?;
            let schema = state.table.schema();
            state.table.scan_column(&self.pool, schema.col_index(key_col)?)?
        };
        let ids = keys.as_i64()?;
        if !ids.contains(&key) {
            return Ok(0);
        }
        let keep: Vec<bool> = ids.iter().map(|&id| id != key).collect();
        Self::retain_rows_locked(&self.pool, &mut inner, name, &keep)
    }

    /// Delete all rows of `name` (drop + recreate, schema preserved).
    pub fn truncate_table(&self, name: &str) -> Result<()> {
        let (schema, disposition) = {
            let inner = self.inner.read();
            let entry = inner.catalog.get(name)?;
            (entry.schema.clone(), entry.disposition)
        };
        self.drop_table(name)?;
        self.create_table(schema, disposition)
    }

    /// Probe `table`'s primary-key index with every key in `keys`
    /// (single-column integer PKs), failing on the first absent key.
    /// This is the per-row verification work the paper's lazy variant
    /// skips when ingesting chunks (§VI-A); exposed for the ablation.
    pub fn pk_probe_i64(&self, table: &str, keys: &[i64]) -> Result<()> {
        {
            let mut inner = self.inner.write();
            Self::ensure_pk_built(&self.pool, &mut inner, table)?;
        }
        let inner = self.inner.read();
        let state = inner
            .tables
            .get(table)
            .ok_or_else(|| StorageError::Catalog(format!("no such table {table:?}")))?;
        let pk = state.pk.as_ref().ok_or_else(|| {
            StorageError::Constraint(format!("table {table} has no primary key"))
        })?;
        let probe = ColumnData::Int64(keys.to_vec());
        let probe_refs: [&ColumnData; 1] = [&probe];
        let parent_refs: Vec<&ColumnData> = pk.cols.iter().collect();
        for (r, key) in keys.iter().enumerate() {
            if pk.index.probe(&parent_refs, &probe_refs, r).next().is_none() {
                return Err(StorageError::Constraint(format!(
                    "key {key} not present in {table}"
                )));
            }
        }
        Ok(())
    }

    /// The FK join index from `child` to `parent`, if built.
    pub fn join_index(&self, child: &str, parent: &str) -> Option<Arc<JoinIndex>> {
        self.inner.read().tables.get(child)?.join_indices.get(parent).cloned()
    }

    /// Approximate bytes of all in-memory index structures
    /// (Table III "+keys").
    pub fn index_bytes(&self) -> u64 {
        let inner = self.inner.read();
        inner
            .tables
            .values()
            .map(|s| {
                let pk = s.pk.as_ref().map_or(0, |p| {
                    p.index.approx_bytes()
                        + p.cols.iter().map(|c| c.approx_bytes()).sum::<usize>()
                });
                let ji: usize = s.join_indices.values().map(|j| j.approx_bytes()).sum();
                (pk + ji) as u64
            })
            .sum()
    }

    /// Bytes on disk across all tables.
    pub fn disk_bytes(&self) -> u64 {
        let inner = self.inner.read();
        inner
            .tables
            .values()
            .map(|s| s.table.disk_bytes() + s.table.resident_bytes() as u64)
            .sum()
    }

    /// Bytes on disk for metadata-class tables only (Table III "Lazy").
    pub fn metadata_bytes(&self) -> u64 {
        let inner = self.inner.read();
        inner
            .tables
            .values()
            .filter(|s| s.table.schema().class.is_metadata())
            .map(|s| s.table.disk_bytes() + s.table.resident_bytes() as u64)
            .sum()
    }

    /// Drop all cached pages (simulating a cold restart). Index
    /// structures are kept, as MonetDB's persistent join indices would
    /// be re-mapped, not recomputed.
    pub fn flush_caches(&self) {
        self.pool.clear();
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("Database")
            .field("dir", &self.dir)
            .field("tables", &inner.catalog.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::TextColumn;
    use crate::schema::TableClass;
    use crate::value::DataType;

    /// Ranges as `(start, end)` pairs, for comparisons.
    fn spans(ranges: &[std::ops::Range<u64>]) -> Vec<(u64, u64)> {
        ranges.iter().map(|r| (r.start, r.end)).collect()
    }

    fn f_schema() -> TableSchema {
        TableSchema::new("F", TableClass::MetadataGiven)
            .column("file_id", DataType::Int64)
            .column("station", DataType::Text)
            .primary_key(["file_id"])
    }

    fn s_schema() -> TableSchema {
        TableSchema::new("S", TableClass::MetadataGiven)
            .column("seg_id", DataType::Int64)
            .column("file_id", DataType::Int64)
            .primary_key(["seg_id"])
            .foreign_key(["file_id"], "F", ["file_id"])
    }

    fn mem_db() -> Database {
        let db = Database::in_memory(BufferPoolConfig::default());
        db.create_table(f_schema(), Disposition::Resident).unwrap();
        db.create_table(s_schema(), Disposition::Resident).unwrap();
        db
    }

    #[test]
    fn append_scan_roundtrip() {
        let db = mem_db();
        db.append(
            "F",
            &[
                ColumnData::Int64(vec![1, 2]),
                ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM"])),
            ],
            ConstraintPolicy::all(),
        )
        .unwrap();
        assert_eq!(db.table_rows("F").unwrap(), 2);
        let cols = db.scan_table("F").unwrap();
        assert_eq!(cols[0].as_i64().unwrap(), &[1, 2]);
        let one = db.scan_columns("F", &["station"]).unwrap();
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn pk_violation_rejected_across_batches() {
        let db = mem_db();
        let station = || ColumnData::Text(TextColumn::from_strs(["ISK"]));
        db.append("F", &[ColumnData::Int64(vec![1]), station()], ConstraintPolicy::all())
            .unwrap();
        let err =
            db.append("F", &[ColumnData::Int64(vec![1]), station()], ConstraintPolicy::all());
        assert!(matches!(err, Err(StorageError::Constraint(_))));
        // The rejected batch must not have been applied.
        assert_eq!(db.table_rows("F").unwrap(), 1);
        // Without verification the duplicate slips through (lazy bulk mode).
        db.append("F", &[ColumnData::Int64(vec![1]), station()], ConstraintPolicy::none())
            .unwrap();
        assert_eq!(db.table_rows("F").unwrap(), 2);
    }

    #[test]
    fn fk_verification() {
        let db = mem_db();
        db.append(
            "F",
            &[ColumnData::Int64(vec![10]), ColumnData::Text(TextColumn::from_strs(["ISK"]))],
            ConstraintPolicy::all(),
        )
        .unwrap();
        // Valid child.
        db.append(
            "S",
            &[ColumnData::Int64(vec![1]), ColumnData::Int64(vec![10])],
            ConstraintPolicy::all(),
        )
        .unwrap();
        // Dangling child.
        let err = db.append(
            "S",
            &[ColumnData::Int64(vec![2]), ColumnData::Int64(vec![99])],
            ConstraintPolicy::all(),
        );
        assert!(matches!(err, Err(StorageError::Constraint(_))));
        // Lazy mode skips FK checks.
        db.append(
            "S",
            &[ColumnData::Int64(vec![3]), ColumnData::Int64(vec![99])],
            ConstraintPolicy::pk_only(),
        )
        .unwrap();
    }

    #[test]
    fn join_index_build_and_lookup() {
        let db = mem_db();
        db.append(
            "F",
            &[
                ColumnData::Int64(vec![10, 20]),
                ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM"])),
            ],
            ConstraintPolicy::all(),
        )
        .unwrap();
        db.append(
            "S",
            &[ColumnData::Int64(vec![1, 2, 3]), ColumnData::Int64(vec![20, 10, 20])],
            ConstraintPolicy::all(),
        )
        .unwrap();
        db.build_join_indices("S").unwrap();
        let ji = db.join_index("S", "F").expect("join index built");
        assert_eq!(ji.positions, vec![1, 0, 1]);
        assert!(db.join_index("F", "S").is_none());
        assert!(db.index_bytes() > 0);
    }

    #[test]
    fn join_indices_invalidated_by_append() {
        let db = mem_db();
        db.append(
            "F",
            &[ColumnData::Int64(vec![10]), ColumnData::Text(TextColumn::from_strs(["ISK"]))],
            ConstraintPolicy::all(),
        )
        .unwrap();
        db.append(
            "S",
            &[ColumnData::Int64(vec![1]), ColumnData::Int64(vec![10])],
            ConstraintPolicy::all(),
        )
        .unwrap();
        db.build_join_indices("S").unwrap();
        assert!(db.join_index("S", "F").is_some());
        db.append(
            "S",
            &[ColumnData::Int64(vec![2]), ColumnData::Int64(vec![10])],
            ConstraintPolicy::all(),
        )
        .unwrap();
        assert!(db.join_index("S", "F").is_none(), "stale join index dropped");
    }

    #[test]
    fn delete_chunk_rows_removes_only_that_chunk() {
        let db = mem_db();
        db.create_table(
            TableSchema::new("D", TableClass::ActualData)
                .column("file_id", DataType::Int64)
                .column("v", DataType::Float64),
            Disposition::Resident,
        )
        .unwrap();
        db.append(
            "D",
            &[
                ColumnData::Int64(vec![1, 1, 2, 2, 3]),
                ColumnData::Float64(vec![0.1, 0.2, 0.3, 0.4, 0.5]),
            ],
            ConstraintPolicy::none(),
        )
        .unwrap();
        assert_eq!(db.delete_chunk_rows("D", "file_id", 2).unwrap(), 2);
        assert_eq!(db.table_rows("D").unwrap(), 3);
        let cols = db.scan_table("D").unwrap();
        assert_eq!(cols[0].as_i64().unwrap(), &[1, 1, 3]);
        assert_eq!(cols[1].as_f64().unwrap(), &[0.1, 0.2, 0.5]);
        // Absent key: no-op.
        assert_eq!(db.delete_chunk_rows("D", "file_id", 99).unwrap(), 0);
        assert_eq!(db.table_rows("D").unwrap(), 3);
    }

    #[test]
    fn retain_rows_drops_stale_index_state() {
        let db = mem_db();
        db.append(
            "F",
            &[
                ColumnData::Int64(vec![10, 20]),
                ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM"])),
            ],
            ConstraintPolicy::all(),
        )
        .unwrap();
        db.append(
            "S",
            &[ColumnData::Int64(vec![1, 2]), ColumnData::Int64(vec![10, 20])],
            ConstraintPolicy::all(),
        )
        .unwrap();
        db.build_join_indices("S").unwrap();
        assert!(db.join_index("S", "F").is_some());
        assert_eq!(db.retain_rows("S", &[true, false]).unwrap(), 1);
        assert!(db.join_index("S", "F").is_none(), "join index invalidated");
        // The PK index is rebuilt from the surviving rows: re-inserting
        // the deleted key succeeds, re-inserting a kept key fails.
        db.append(
            "S",
            &[ColumnData::Int64(vec![2]), ColumnData::Int64(vec![10])],
            ConstraintPolicy::all(),
        )
        .unwrap();
        let dup = db.append(
            "S",
            &[ColumnData::Int64(vec![1]), ColumnData::Int64(vec![10])],
            ConstraintPolicy::all(),
        );
        assert!(matches!(dup, Err(StorageError::Constraint(_))));
    }

    fn d_schema() -> TableSchema {
        TableSchema::new("D", TableClass::ActualData)
            .column("file_id", DataType::Int64)
            .column("v", DataType::Float64)
    }

    /// `rows` rows of D: file ids `i / 1000`, values `i`.
    fn d_batch(rows: usize) -> Vec<ColumnData> {
        vec![
            ColumnData::Int64((0..rows as i64).map(|i| i / 1000).collect()),
            ColumnData::Float64((0..rows).map(|i| i as f64).collect()),
        ]
    }

    /// Range reads agree with slicing a full scan, including ranges
    /// that cross a page boundary, end in the short final page, or run
    /// past the last row.
    fn check_range_reads(db: &Database, rows: u64) {
        let full = db.scan_columns("D", &["file_id", "v"]).unwrap();
        let per_page = (crate::page::PAGE_SIZE / 8) as u64;
        for (from, to) in [
            (0, 10),
            (per_page - 3, per_page + 5),
            (per_page + 1, rows),
            (rows - 2, rows + 100),
            (rows, rows + 1),
        ] {
            let got = db.scan_columns_range("D", &["v", "file_id"], from, to).unwrap();
            let end = to.min(rows) as usize;
            let start = (from as usize).min(end);
            assert_eq!(
                got[0].as_f64().unwrap(),
                &full[1].as_f64().unwrap()[start..end],
                "v [{from}, {to})"
            );
            assert_eq!(
                got[1].as_i64().unwrap(),
                &full[0].as_i64().unwrap()[start..end],
                "file_id [{from}, {to})"
            );
        }
    }

    #[test]
    fn scan_columns_range_resident() {
        let db = Database::in_memory(BufferPoolConfig::default());
        db.create_table(d_schema(), Disposition::Resident).unwrap();
        let rows = 8192 + 100;
        db.append("D", &d_batch(rows), ConstraintPolicy::none()).unwrap();
        check_range_reads(&db, rows as u64);
        assert!(db.scan_columns_range("D", &["nope"], 0, 1).is_err());
        assert!(db.scan_columns_range("X", &["v"], 0, 1).is_err());
    }

    #[test]
    fn scan_columns_range_persistent_reads_only_its_pages() {
        let dir = std::env::temp_dir().join(format!("somm-dbrange-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::create(&dir, BufferPoolConfig::default()).unwrap();
        db.create_table(d_schema(), Disposition::Persistent).unwrap();
        // Two full pages of 8-byte values plus a short third page.
        let rows = 2 * 8192 + 100;
        db.append("D", &d_batch(rows), ConstraintPolicy::none()).unwrap();
        let before = db.pool().stats().snapshot();
        let got = db.scan_columns_range("D", &["v"], 2 * 8192 + 10, 2 * 8192 + 20).unwrap();
        assert_eq!(got[0].as_f64().unwrap()[0], (2 * 8192 + 10) as f64);
        let after = db.pool().stats().snapshot();
        assert_eq!(after.misses - before.misses, 1, "one page of one column");
        check_range_reads(&db, rows as u64);
        drop(db);
        Database::destroy(&dir).unwrap();
    }

    #[test]
    fn key_ranges_directory_splits_runs_and_is_cached() {
        let db = Database::in_memory(BufferPoolConfig::default());
        db.create_table(d_schema(), Disposition::Resident).unwrap();
        // Chunk 5 arrives in two batches with chunk 6 in between.
        for (id, n) in [(5, 3), (6, 2), (5, 1)] {
            db.append(
                "D",
                &[ColumnData::Int64(vec![id; n]), ColumnData::Float64(vec![0.0; n])],
                ConstraintPolicy::none(),
            )
            .unwrap();
        }
        let kr = db.key_ranges("D", "file_id").unwrap();
        assert_eq!(spans(kr.get(5)), [(0, 3), (5, 6)]);
        assert_eq!(spans(kr.get(6)), [(3, 5)]);
        assert!(kr.get(7).is_empty());
        assert!(Arc::ptr_eq(&kr, &db.key_ranges("D", "file_id").unwrap()), "cached");
        assert!(db.key_ranges("D", "v").is_err(), "float column");
        assert!(db.key_ranges("D", "nope").is_err());
    }

    #[test]
    fn key_ranges_invalidated_by_append_and_retain_rows() {
        let db = Database::in_memory(BufferPoolConfig::default());
        db.create_table(d_schema(), Disposition::Resident).unwrap();
        db.append("D", &d_batch(2500), ConstraintPolicy::none()).unwrap();
        let kr = db.key_ranges("D", "file_id").unwrap();
        assert_eq!(spans(kr.get(2)), [(2000, 2500)]);
        db.append(
            "D",
            &[ColumnData::Int64(vec![0; 2]), ColumnData::Float64(vec![0.0; 2])],
            ConstraintPolicy::none(),
        )
        .unwrap();
        let kr = db.key_ranges("D", "file_id").unwrap();
        assert_eq!(spans(kr.get(0)), [(0, 1000), (2500, 2502)], "rebuilt after append");
        assert_eq!(db.delete_chunk_rows("D", "file_id", 1).unwrap(), 1000);
        let kr = db.key_ranges("D", "file_id").unwrap();
        assert!(kr.get(1).is_empty(), "rebuilt after retain_rows");
        assert_eq!(spans(kr.get(2)), [(1000, 1500)]);
        assert_eq!(spans(kr.get(0)), [(0, 1000), (1500, 1502)]);
    }

    #[test]
    fn delete_chunk_rows_persistent_roundtrip() {
        let dir = std::env::temp_dir().join(format!("somm-dbdelete-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::create(&dir, BufferPoolConfig::default()).unwrap();
        db.create_table(
            TableSchema::new("D", TableClass::ActualData)
                .column("file_id", DataType::Int64)
                .column("v", DataType::Float64),
            Disposition::Persistent,
        )
        .unwrap();
        db.append(
            "D",
            &[ColumnData::Int64(vec![7, 8, 7]), ColumnData::Float64(vec![1.0, 2.0, 3.0])],
            ConstraintPolicy::none(),
        )
        .unwrap();
        // Warm the pool so invalidation is exercised.
        assert_eq!(db.scan_table("D").unwrap()[0].len(), 3);
        assert_eq!(db.delete_chunk_rows("D", "file_id", 7).unwrap(), 2);
        let cols = db.scan_table("D").unwrap();
        assert_eq!(cols[0].as_i64().unwrap(), &[8]);
        assert_eq!(cols[1].as_f64().unwrap(), &[2.0]);
        drop(db);
        // Survives re-open.
        let db = Database::open(&dir, BufferPoolConfig::default()).unwrap();
        assert_eq!(db.table_rows("D").unwrap(), 1);
        Database::destroy(&dir).unwrap();
    }

    #[test]
    fn persistent_create_open_cycle() {
        let dir = std::env::temp_dir().join(format!("somm-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::create(&dir, BufferPoolConfig::default()).unwrap();
            db.create_table(f_schema(), Disposition::Persistent).unwrap();
            db.append(
                "F",
                &[
                    ColumnData::Int64(vec![1]),
                    ColumnData::Text(TextColumn::from_strs(["ISK"])),
                ],
                ConstraintPolicy::all(),
            )
            .unwrap();
            assert!(db.disk_bytes() > 0);
        }
        {
            let db = Database::open(&dir, BufferPoolConfig::default()).unwrap();
            assert_eq!(db.table_rows("F").unwrap(), 1);
            let cols = db.scan_table("F").unwrap();
            assert_eq!(cols[0].as_i64().unwrap(), &[1]);
            // Creating again over the same dir fails.
            assert!(Database::create(&dir, BufferPoolConfig::default()).is_err());
        }
        Database::destroy(&dir).unwrap();
        assert!(!dir.exists());
    }

    #[test]
    fn drop_table_removes_files() {
        let dir = std::env::temp_dir().join(format!("somm-dbdrop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::create(&dir, BufferPoolConfig::default()).unwrap();
        db.create_table(f_schema(), Disposition::Persistent).unwrap();
        assert!(dir.join("tables").join("F").exists());
        db.drop_table("F").unwrap();
        assert!(!dir.join("tables").join("F").exists());
        assert!(!db.has_table("F"));
        Database::destroy(&dir).unwrap();
    }

    #[test]
    fn metadata_bytes_counts_only_metadata_tables() {
        let db = Database::in_memory(BufferPoolConfig::default());
        db.create_table(f_schema(), Disposition::Resident).unwrap();
        db.create_table(
            TableSchema::new("D", TableClass::ActualData).column("v", DataType::Float64),
            Disposition::Resident,
        )
        .unwrap();
        db.append(
            "F",
            &[ColumnData::Int64(vec![1]), ColumnData::Text(TextColumn::from_strs(["ISK"]))],
            ConstraintPolicy::none(),
        )
        .unwrap();
        db.append("D", &[ColumnData::Float64(vec![0.0; 1000])], ConstraintPolicy::none())
            .unwrap();
        assert!(db.metadata_bytes() < db.disk_bytes());
    }
}
