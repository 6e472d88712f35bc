//! Chunk residency over an eagerly loaded actual-data table.
//!
//! Eager modes run the same metadata-first plan as the lazy mode: stage
//! 1 names the chunks the query needs, and stage 2 reads only their
//! rows. [`LoadedChunks`] serves those rows from the loaded table: a
//! chunk URI maps to its `file_id` through the [`ChunkRegistry`], the id
//! to row ranges through the table's key directory
//! ([`Database::key_ranges`] over the chunk-id column, e.g. `D.file_id`),
//! and only the projected columns of those ranges are read
//! ([`Database::scan_columns_range`]). Every chunk is resident; nothing
//! is decoded, pinned or evicted.

use crate::chunks::ChunkRegistry;
use crate::error::Result;
use crate::source::SourceDescriptor;
use sommelier_engine::exec::run_indexed_policy;
use sommelier_engine::sched::SchedPolicy;
use sommelier_engine::twostage::{AcquiredChunk, ChunkResidency, ChunkSink};
use sommelier_engine::{
    ColumnZone, EngineError, Obs, Relation, ZoneCandidates, ZoneConstraint,
};
use sommelier_storage::index::KeyRanges;
use sommelier_storage::{ColumnData, Database};
use std::sync::Arc;

/// Chunks read per wave of [`LoadedChunks::acquire_each`]: bounds how
/// many chunks' rows are held at once while their sinks run.
const WAVE: usize = 64;

/// [`ChunkResidency`] over one source's loaded actual-data table.
///
/// Page reads are issued in chunk-list order from the calling thread;
/// only the per-chunk sinks run on the scheduler. The buffer pool is
/// shared and bounded, so reads from parallel workers would leave a
/// different set of pages resident from run to run, and with it
/// different hit/miss counts for every later read.
pub struct LoadedChunks<'a> {
    db: &'a Database,
    registry: &'a ChunkRegistry,
    descriptor: &'a SourceDescriptor,
    /// The actual-data table's chunk-id column, unqualified (`file_id`).
    key_column: String,
    obs: Obs,
}

impl<'a> LoadedChunks<'a> {
    /// The loaded chunks of the source `descriptor` describes.
    pub fn new(
        db: &'a Database,
        registry: &'a ChunkRegistry,
        descriptor: &'a SourceDescriptor,
        obs: Obs,
    ) -> Result<Self> {
        let key_column = descriptor.ad_chunk_id_column()?;
        Ok(LoadedChunks { db, registry, descriptor, key_column, obs })
    }

    /// A reader for one acquisition: the key directory plus the columns
    /// to read (the projection, or the table's full width).
    fn reader(&self, projection: Option<&[String]>) -> sommelier_engine::Result<Reader<'_>> {
        let table = self.descriptor.ad_table.as_str();
        let ranges = self.db.key_ranges(table, &self.key_column)?;
        let qualified: Vec<String> = match projection {
            Some(p) => p.to_vec(),
            None => self
                .db
                .table_schema(table)?
                .columns
                .iter()
                .map(|c| format!("{table}.{}", c.name))
                .collect(),
        };
        let prefix = format!("{table}.");
        let columns = qualified
            .iter()
            .map(|q| {
                q.strip_prefix(&prefix).map(str::to_string).ok_or_else(|| {
                    EngineError::Chunk(format!("column {q:?} is not a column of {table}"))
                })
            })
            .collect::<sommelier_engine::Result<Vec<_>>>()?;
        Ok(Reader { chunks: self, table, ranges, qualified, columns })
    }
}

/// One acquisition's view of the loaded table.
struct Reader<'r> {
    chunks: &'r LoadedChunks<'r>,
    table: &'r str,
    ranges: Arc<KeyRanges>,
    /// Relation column names (`D.sample_value`).
    qualified: Vec<String>,
    /// Storage column names (`sample_value`), aligned with `qualified`.
    columns: Vec<String>,
}

impl Reader<'_> {
    /// The rows one chunk contributed to the table.
    fn read(&self, uri: &str) -> sommelier_engine::Result<Arc<Relation>> {
        let entry =
            self.chunks.registry.get(uri).ok_or_else(|| {
                EngineError::Chunk(format!("chunk {uri:?} is not registered"))
            })?;
        let db = self.chunks.db;
        let names: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        let mut runs = self.ranges.get(entry.file_id).iter();
        // A chunk without rows reads the empty range: typed empty columns.
        let first = runs.next().map_or(0..0, Clone::clone);
        let mut data: Vec<ColumnData> =
            db.scan_columns_range(self.table, &names, first.start, first.end)?;
        for run in runs {
            let more = db.scan_columns_range(self.table, &names, run.start, run.end)?;
            for (col, more) in data.iter_mut().zip(&more) {
                col.append(more)?;
            }
        }
        Ok(Arc::new(Relation::new(self.qualified.iter().cloned().zip(data).collect())?))
    }
}

impl ChunkResidency for LoadedChunks<'_> {
    fn is_resident(&self, _uri: &str) -> bool {
        true
    }

    fn acquire_many(
        &self,
        uris: &[String],
        projection: Option<&[String]>,
        _policy: &SchedPolicy,
    ) -> sommelier_engine::Result<Vec<AcquiredChunk>> {
        let reader = self.reader(projection)?;
        uris.iter()
            .map(|uri| Ok(AcquiredChunk::untimed(reader.read(uri)?, false, false)))
            .collect()
    }

    fn release_many(&self, _uris: &[String]) {}

    fn acquire_each(
        &self,
        uris: &[String],
        projection: Option<&[String]>,
        policy: &SchedPolicy,
        sink: &ChunkSink<'_>,
    ) -> sommelier_engine::Result<()> {
        let reader = self.reader(projection)?;
        for (w, wave) in uris.chunks(WAVE).enumerate() {
            policy.check_cancel()?;
            let rels = wave
                .iter()
                .map(|u| reader.read(u))
                .collect::<sommelier_engine::Result<Vec<_>>>()?;
            let base = w * WAVE;
            run_indexed_policy(rels.len(), policy, &self.obs, |k| {
                sink(base + k, AcquiredChunk::untimed(Arc::clone(&rels[k]), false, false))
            })
            .into_iter()
            .collect::<sommelier_engine::Result<()>>()?;
        }
        Ok(())
    }

    fn all_chunks(&self) -> sommelier_engine::Result<Vec<String>> {
        Ok(self.registry.entries().iter().map(|e| e.uri.clone()).collect())
    }

    fn zone_maps(&self, uri: &str) -> Option<Vec<ColumnZone>> {
        self.registry.zones_of(uri)
    }

    fn zone_candidates(&self, constraints: &[ZoneConstraint]) -> Option<ZoneCandidates> {
        self.registry.zone_candidates(constraints)
    }
}
