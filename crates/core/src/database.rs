//! The database catalog: versioned tables, their secondary indexes, open /
//! recovery and statistics — behind a **shared handle**: every entry point
//! takes `&self`.
//!
//! Every table lives as a [`pdsm_txn::SharedTable`]: an immutable
//! read-optimized main store plus an append-only delta with tombstones,
//! wrapped in that table's own reader/writer lock. The catalog itself is
//! an `RwLock`-guarded map of those handles, so
//!
//! * writers to **different** tables proceed fully in parallel (each takes
//!   only its own table's write lock, per operation),
//! * writers to the **same** table serialize on that table's lock only,
//! * readers never block writers: a statement pins its view — one
//!   [`pdsm_txn::Snapshot`] per referenced table, each under one short read
//!   lock — and runs over it entirely lock-free afterwards (see
//!   [`crate::query`]); not even a cold main store's extent faults
//!   happen under a table lock.
//!
//! `Database` is `Send + Sync`; the multi-threaded entry point is
//! `Arc<Database>` (clone the `Arc` per thread). `Database` is one type
//! in three `impl` blocks:
//!
//! * this module — the catalog (create / register / look up), opening a
//!   data directory and recovering its tables (one
//!   [`TableDurability::recover`] per manifest entry, cold when a buffer
//!   pool is configured), index creation and the post-merge rebuild
//!   (`TableEntry::reindex`), and every `*_stats` accessor;
//! * [`crate::write`] — row and predicate DML, the write-path
//!   maintenance step, [`Database::merge`] / [`Database::relayout`] /
//!   [`Database::checkpoint_all`];
//! * [`crate::query`] — [`Database::execute`], the one statement-cache probe,
//!   engine dispatch, the index probe, [`Database::run`].
//!
//! ## Migration notes (from the single-writer `&mut self` API)
//!
//! * `versioned(name) -> &VersionedTable` and `get_table_mut(name)` are
//!   gone — borrows can no longer escape the catalog lock. Use
//!   [`Database::with_table`] / [`Database::with_table_write`] (closure
//!   under the table's own lock), [`Database::shared`] (owned handle) or
//!   [`Database::table_snapshot`] (pinned version); to bulk load, build a
//!   [`Table`] and [`Database::register`] it.
//! * `get_table(name)` now returns an owned `Arc<Table>` of the main
//!   store instead of `&Table` (a copy, for a cold main).
//! * `maintenance_config_mut()` is replaced by
//!   [`Database::set_maintenance_config`] /
//!   [`Database::update_maintenance_config`].
//! * Row-id stability: in `Background` mode a finished merge can now swap
//!   in **at any moment** (the worker applies it), renumbering row ids.
//!   Resolve-then-mutate sequences that must be atomic belong in one
//!   [`Database::with_table_write`] closure; ids crossing statements are
//!   only stable in `Sync`/`Off` modes, where merges happen exclusively
//!   inside inserts and predicate DML (`UPDATE`/`DELETE … WHERE`).

use crate::maintenance::{MaintenanceConfig, MaintenanceScheduler, MaintenanceStats};
use crate::planner::Planner;
use crate::result_cache::{CacheStats, ResultCacheConfig, StatementCache};
use pdsm_exec::engine::{CompiledEngine, Engine, ExecError, ParallelEngine, VolcanoEngine};
use pdsm_exec::run_workers;
use pdsm_index::SortedIndex;
use pdsm_layout::workload::{Workload, WorkloadQuery};
use pdsm_plan::logical::LogicalPlan;
use pdsm_plan::physical::EngineChoice;
use pdsm_pool::{BufferPool, PoolStats};
use pdsm_storage::{ColId, DataType, Layout, Schema, Table};
use pdsm_store::{FsyncMode, Manifest};
use pdsm_txn::{
    Form, MainStore, MergeStats, SharedTable, Snapshot, TableDurability, VersionStats,
    VersionedTable,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex, RwLock};

/// Which execution engine runs a statement: the two the planner chooses
/// between, plus the Volcano oracle every differential test compares
/// against. (The Fig.-3 bulk and vectorized baselines live in
/// `pdsm-bench` and read plain tables only.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Tuple-at-a-time iterators: the paper's CPU-inefficient baseline and,
    /// being the simplest correct thing, the differential oracle.
    Volcano,
    /// Data-centric fused pipelines (the paper's model).
    Compiled,
    /// The same pipelines with every piece fanned out over morsel-claiming
    /// workers ([`ParallelEngine`]). A [`Database`] runs it with the one
    /// worker count it read at construction, the count its planner prices;
    /// use [`ParallelEngine::with_threads`] directly to pin it per query.
    Parallel,
}

/// The parallel engine [`EngineKind::engine`] hands out: its worker count
/// is read once per process, at first use.
static PARALLEL: LazyLock<ParallelEngine> = LazyLock::new(ParallelEngine::new);

impl EngineKind {
    /// The engine object. A [`Database`] and its snapshots run `Parallel`
    /// with the database's own worker count instead.
    pub fn engine(&self) -> &'static dyn Engine {
        match self {
            EngineKind::Volcano => &VolcanoEngine,
            EngineKind::Compiled => &CompiledEngine,
            EngineKind::Parallel => &*PARALLEL,
        }
    }

    /// All engines, oracle first, for differential testing. Test helpers
    /// iterate this and compare against [`EngineKind::Volcano`] by name.
    pub fn all() -> [EngineKind; 3] {
        [
            EngineKind::Volcano,
            EngineKind::Compiled,
            EngineKind::Parallel,
        ]
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineKind::Volcano => "volcano",
            EngineKind::Compiled => "compiled",
            EngineKind::Parallel => "parallel",
        })
    }
}

/// The engine a [`pdsm_plan::PhysicalPlan`] names. The planner only emits
/// `Compiled` or `Parallel`; a caller-built plan naming a `pdsm-bench`
/// baseline (`Bulk`, `Vectorized`) is refused with
/// [`ExecError::Unsupported`].
impl TryFrom<EngineChoice> for EngineKind {
    type Error = ExecError;

    fn try_from(c: EngineChoice) -> Result<Self, ExecError> {
        match c {
            EngineChoice::Volcano => Ok(EngineKind::Volcano),
            EngineChoice::Compiled => Ok(EngineKind::Compiled),
            EngineChoice::Parallel => Ok(EngineKind::Parallel),
            EngineChoice::Bulk | EngineChoice::Vectorized => Err(ExecError::Unsupported(format!(
                "the {c} engine is a Fig.-3 baseline in pdsm-bench, not a serving engine"
            ))),
        }
    }
}

/// The declared index kind (Fig. 10 uses hash indexes for primary keys
/// and an RB-tree on `VBAP(VBELN)`). Both build the same [`SortedIndex`];
/// the kind decides what the planner may probe it for and how it prices
/// the probe: a `Hash` index serves equality only, an `RBTree` ranges too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    Hash,
    RBTree,
}

/// Database-level error.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    DuplicateTable(String),
    UnknownTable(String),
    Storage(pdsm_storage::Error),
    Exec(ExecError),
    /// Index requested on a non-indexable column (floats).
    NotIndexable {
        table: String,
        column: String,
    },
    /// An environment setting has a value it cannot take.
    Config(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::DuplicateTable(t) => write!(f, "table {t:?} already exists"),
            DbError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            DbError::Storage(e) => write!(f, "storage error: {e}"),
            DbError::Exec(e) => write!(f, "execution error: {e}"),
            DbError::NotIndexable { table, column } => {
                write!(f, "column {table}.{column} cannot be indexed")
            }
            DbError::Config(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Storage(e) => Some(e),
            DbError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pdsm_storage::Error> for DbError {
    fn from(e: pdsm_storage::Error) -> Self {
        DbError::Storage(e)
    }
}

/// An extent fault inside a scan is the storage error it would be
/// anywhere else.
impl From<ExecError> for DbError {
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::Storage(e) => DbError::Storage(e),
            e => DbError::Exec(e),
        }
    }
}

fn io_db(ctx: &str, e: std::io::Error) -> DbError {
    DbError::Storage(pdsm_storage::Error::Io(format!("{ctx}: {e}")))
}

/// How a durable [`Database`] writes to disk: where, and how eagerly.
///
/// Handed to [`Database::open_with`]; [`Database::open`] builds one from
/// the environment ([`FsyncMode::from_env`] reads `PDSM_FSYNC`) and fails
/// on a value it does not know.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory: one subdirectory per table (main blobs + WAL) plus
    /// the shared `MANIFEST`.
    pub data_dir: PathBuf,
    /// WAL fsync policy (`always` | `batch` | `group` | `off`).
    pub fsync: FsyncMode,
}

impl DurabilityConfig {
    /// Durability under `data_dir` with the fsync policy from `PDSM_FSYNC`
    /// (default: `batch` group commit). A value it does not know means
    /// `always` here — never weaker than what was asked for — and fails
    /// [`Database::open`].
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            data_dir: data_dir.into(),
            fsync: FsyncMode::from_env().unwrap_or(FsyncMode::Always),
        }
    }

    /// Same directory, explicit fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncMode) -> Self {
        self.fsync = fsync;
        self
    }
}

/// The database-wide durable state: config plus the shared manifest every
/// table commits its checkpoint generation through.
struct DbDurability {
    config: DurabilityConfig,
    manifest: Arc<Manifest>,
}

/// Aggregated durability counters across every durable table — the
/// observability face of the WAL/checkpoint subsystem — and the main
/// stores' memory across every table ([`Database::storage_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Tables with a WAL attached (0 for a purely in-memory database).
    pub durable_tables: usize,
    /// Total WAL bytes appended since open (including records later
    /// truncated away by checkpoints).
    pub wal_bytes_appended: u64,
    /// WAL records appended since open.
    pub wal_appends: u64,
    /// Physical fsyncs issued on WAL files.
    pub wal_fsyncs: u64,
    /// Appends whose durability was confirmed by a group-commit fsync —
    /// `wal_appends_synced / wal_fsyncs` is the mean group-commit size.
    pub wal_appends_synced: u64,
    /// Largest single group commit (appends confirmed by one fsync).
    pub wal_max_group: u64,
    /// Bytes currently live in WAL files (shrinks at every checkpoint).
    pub wal_live_bytes: u64,
    /// Checkpoints taken (one per merge of a durable table).
    pub checkpoints: u64,
    /// WAL ops replayed by the last [`Database::open`], summed over
    /// tables — the witness that recovery is O(ops since last checkpoint).
    pub recovery_replay_ops: u64,
    /// Partition-arena bytes of every resident main store (a cold one's
    /// rows are the buffer pool's to count), durable or not.
    pub main_bytes: u64,
    /// Dictionary heap bytes of every main store, a cold one's header
    /// dictionaries included, durable or not.
    pub dict_bytes: u64,
}

/// Upper bound on *distinct* plans the observed workload records;
/// frequencies of already-recorded plans keep counting past it.
const OBSERVED_CAP: usize = 512;

/// The observed workload plus an O(1) dedup index over it, so recording a
/// repeat plan on the execute hot path never walks the query list.
#[derive(Default)]
struct ObservedTraffic {
    workload: Workload,
    /// `format!("{plan:?}")` → position in `workload.queries`.
    by_key: HashMap<String, usize>,
}

/// One secondary index, tagged with the main-store generation it was built
/// from. A statement's pin takes it into its view only when the tag
/// matches the pinned snapshot's generation; anything stale is invisible
/// to planning and execution alike — the statement scans — until the next
/// merge's rebuild catches the index up.
#[derive(Clone)]
pub(crate) struct IndexEntry {
    pub generation: u64,
    pub kind: IndexKind,
    pub index: Arc<SortedIndex>,
}

/// One catalog slot: the shared table handle plus its index set. Cloning
/// an entry clones two `Arc`s — every accessor hands entries out of the
/// catalog lock this way, so no borrow ever escapes it.
#[derive(Clone)]
pub(crate) struct TableEntry {
    pub(crate) table: SharedTable,
    /// Every secondary index of the table by column, behind the table's
    /// index lock (taken *after* the table lock, never while holding it
    /// for a fold).
    pub(crate) indexes: Arc<RwLock<HashMap<ColId, IndexEntry>>>,
}

impl TableEntry {
    fn new(table: VersionedTable) -> Self {
        TableEntry {
            table: SharedTable::new(table),
            indexes: Arc::default(),
        }
    }
}

/// An in-memory database: catalog of versioned tables + secondary indexes,
/// usable concurrently through a shared handle (`Arc<Database>`).
///
/// Locking granularity, coarsest to finest:
/// * **catalog lock** (`RwLock`) — held only to look a table handle up or
///   to change the catalog's shape (create/register/drop);
/// * **per-table merge mutex** (inside [`SharedTable`]) — merges of one
///   table run one at a time; never taken while holding the table lock;
/// * **per-table lock** (inside [`SharedTable`]) — writers take it per
///   DML op; a merge holds it only for its begin/finish phases (the fold
///   runs off-lock);
/// * **per-table index lock** — swapped-in rebuilds and probes.
///
/// No lock is ever held across query execution: engines run over pinned
/// snapshots.
pub struct Database {
    /// The catalog: table name → shared handle + index set. The lock is
    /// held only for lookups and shape changes, never across a table
    /// operation — so writers to different tables never contend here
    /// beyond a read-lock acquisition.
    catalog: RwLock<HashMap<String, TableEntry>>,
    /// Bumped by every catalog-shape change (table created/registered,
    /// index created/dropped); part of the statement-cache validity key.
    pub(crate) catalog_epoch: AtomicU64,
    /// The statement cache (see [`crate::result_cache`]): one entry per
    /// logical plan's rendering, holding its physical plan and, for an
    /// admitted plan, its result, valid while the catalog epoch and the
    /// referenced tables' `(generation, delta_ops)` tokens hold. Every
    /// statement probes it once; a repeat takes only its read lock.
    pub(crate) cache: StatementCache,
    /// The planner every cache miss lowers with, built once here: the
    /// hierarchy it prices against and the worker count (`PDSM_THREADS` or
    /// the host's, read at construction) are fixed for this database's
    /// lifetime, so its plans do not move when the environment does. The
    /// worker count is also the one its parallel plans run with.
    pub(crate) planner: Planner,
    /// Every plan routed through [`Database::execute`], deduplicated with
    /// frequencies — the observed traffic `relayout`/merge re-advise from.
    observed: Mutex<ObservedTraffic>,
    /// The background merge scheduler (see [`crate::maintenance`]): every
    /// insert and predicate DML call consults it; its worker holds [`SharedTable`]
    /// clones and applies finished builds itself.
    pub(crate) maintenance: MaintenanceScheduler,
    /// `Some` iff this database was opened with a data directory
    /// ([`Database::open`]): newly created tables get a WAL, merges
    /// checkpoint, and reopening the directory recovers everything.
    durability: Option<DbDurability>,
    /// `Some` iff `PDSM_POOL_BYTES` configured a buffer pool at open:
    /// checkpointed tables then recover *cold* (header-only) and fault
    /// extents through the pool on demand, instead of loading wholesale.
    pool: Option<Arc<BufferPool>>,
}

impl Default for Database {
    /// Empty database; maintenance policy comes from the environment
    /// (`PDSM_MERGE`, `PDSM_MERGE_THRESHOLD`).
    fn default() -> Self {
        Self::with_maintenance(MaintenanceConfig::from_env())
    }
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty database with an explicit maintenance policy (tests and
    /// embedders that must not depend on the process environment).
    pub fn with_maintenance(cfg: MaintenanceConfig) -> Self {
        Database {
            catalog: RwLock::new(HashMap::new()),
            catalog_epoch: AtomicU64::new(0),
            cache: StatementCache::new(ResultCacheConfig::from_env()),
            planner: Planner {
                hierarchy: pdsm_cost::Hierarchy::nehalem(),
                threads: ParallelEngine::new().effective_threads(),
            },
            observed: Mutex::new(ObservedTraffic::default()),
            maintenance: MaintenanceScheduler::new(cfg),
            durability: None,
            pool: None,
        }
    }

    /// Open (or create) a **durable** database rooted at `data_dir`:
    /// every table present in the directory's manifest is recovered —
    /// newest checkpointed main store loaded, WAL tail replayed through
    /// the normal DML path — and every table created afterwards writes a
    /// WAL and checkpoints on merge. Replay cost is O(ops since that
    /// table's last checkpoint), not O(history). A torn or corrupt WAL
    /// tail (the crash point) is truncated, never an error; a corrupt
    /// *committed* checkpoint blob is.
    ///
    /// Fsync policy comes from `PDSM_FSYNC` (`always` | `batch` | `group`
    /// | `off`, default `batch`; any other value is [`DbError::Config`]);
    /// maintenance policy from the environment as in [`Database::new`].
    /// Use [`Database::open_with`] to pin both.
    pub fn open(data_dir: impl Into<PathBuf>) -> Result<Database, DbError> {
        let fsync = FsyncMode::from_env().map_err(DbError::Config)?;
        Self::open_with(
            DurabilityConfig::new(data_dir).with_fsync(fsync),
            MaintenanceConfig::from_env(),
        )
    }

    /// [`Database::open`] with explicit durability and maintenance
    /// configuration.
    pub fn open_with(
        config: DurabilityConfig,
        maintenance: MaintenanceConfig,
    ) -> Result<Database, DbError> {
        Self::open_with_pool(config, maintenance, BufferPool::from_env())
    }

    /// [`Database::open_with`] with an explicit buffer pool — `Some` makes
    /// checkpointed tables recover cold and fault through it, `None`
    /// forces fully-resident recovery. For tests and embedders that must
    /// not depend on `PDSM_POOL_BYTES` in the process environment.
    pub fn open_with_pool(
        config: DurabilityConfig,
        maintenance: MaintenanceConfig,
        pool: Option<Arc<BufferPool>>,
    ) -> Result<Database, DbError> {
        std::fs::create_dir_all(&config.data_dir).map_err(|e| io_db("create data dir", e))?;
        let manifest = Arc::new(
            Manifest::open(config.data_dir.join("MANIFEST"))
                .map_err(|e| io_db("open manifest", e))?,
        );
        let mut db = Self::with_maintenance(maintenance);
        db.durability = Some(DbDurability {
            config,
            manifest: Arc::clone(&manifest),
        });
        db.pool = pool;
        // Recover every manifest table: newest committed main + WAL tail
        // replayed through the table's commit step (so engines, overlays
        // and row ids come out exactly as they were at the last durable
        // statement). With a buffer pool configured the main store stays
        // *cold* — header only, extents fault in on demand — because WAL
        // replay never reads main-store row data.
        let d = db.durability.as_ref().expect("just set");
        let tables = recover_tables(&d.config, &manifest, db.pool.as_ref(), db.planner.threads)?;
        let entries = tables.into_iter().map(|(n, vt)| (n, TableEntry::new(vt)));
        db.write_catalog().extend(entries);
        db.bump_epoch();
        Ok(db)
    }

    /// True iff this database persists to a data directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The data directory, when durable.
    pub fn data_dir(&self) -> Option<&Path> {
        self.durability
            .as_ref()
            .map(|d| d.config.data_dir.as_path())
    }

    /// Attach a WAL + checkpoint lifecycle to a fresh table (no-op for an
    /// in-memory database). Called with the catalog write lock held, so a
    /// create/register race can never double-create one table's files.
    fn make_durable(&self, table: Table) -> Result<VersionedTable, DbError> {
        Ok(match &self.durability {
            Some(d) => TableDurability::create(
                &d.config.data_dir,
                Arc::clone(&d.manifest),
                d.config.fsync,
                table,
            )?,
            None => VersionedTable::from_table(table),
        })
    }

    pub(crate) fn read_catalog(
        &self,
    ) -> std::sync::RwLockReadGuard<'_, HashMap<String, TableEntry>> {
        self.catalog.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_catalog(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, TableEntry>> {
        self.catalog.write().unwrap_or_else(|e| e.into_inner())
    }

    fn bump_epoch(&self) {
        self.catalog_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// The catalog entry for `name`, cloned out of the catalog lock.
    pub(crate) fn entry(&self, name: &str) -> Result<TableEntry, DbError> {
        self.read_catalog()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Create a table in row (N-ary) layout. Takes the catalog write lock
    /// briefly.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<(), DbError> {
        let layout = Layout::row(schema.len());
        self.create_table_with_layout(name, schema, layout)
    }

    /// Adopt an already-built table (e.g. from a workload generator) as the
    /// generation-0 main store. Replaces any existing table of the same
    /// name; indexes on the old table are dropped. Takes the catalog write
    /// lock briefly.
    ///
    /// `register` is a catalog-*setup* operation, not a concurrent-DML
    /// one: a thread already inside a DML call on the replaced name holds
    /// the old handle and will apply its op to the detached table —
    /// success with no effect on the new one. Quiesce writers to a name
    /// before re-registering it.
    ///
    /// In a durable database the table is checkpointed as its generation-0
    /// main store before it becomes visible; a disk error here panics —
    /// use [`Database::try_register`] to handle it.
    pub fn register(&self, table: Table) {
        self.try_register(table)
            .expect("persisting a registered table failed");
    }

    /// [`Database::register`], surfacing the durable-persist error instead
    /// of panicking. Infallible for an in-memory database.
    pub fn try_register(&self, table: Table) -> Result<(), DbError> {
        let name = table.name().to_string();
        let mut catalog = self.write_catalog();
        let vt = self.make_durable(table)?;
        catalog.insert(name, TableEntry::new(vt));
        // Under the catalog lock, where a statement's pin reads it: the
        // pin then sees the replaced table and the new epoch, or neither.
        self.bump_epoch();
        Ok(())
    }

    /// Create a table with an explicit layout. Takes the catalog write
    /// lock briefly.
    pub fn create_table_with_layout(
        &self,
        name: &str,
        schema: Schema,
        layout: Layout,
    ) -> Result<(), DbError> {
        let t = Table::with_layout(name, schema, layout)?;
        let mut catalog = self.write_catalog();
        if catalog.contains_key(name) {
            return Err(DbError::DuplicateTable(name.to_string()));
        }
        let vt = self.make_durable(t)?;
        catalog.insert(name.to_string(), TableEntry::new(vt));
        self.bump_epoch();
        Ok(())
    }

    /// An owned handle to `name`'s [`SharedTable`] — the per-table
    /// concurrency primitive itself, for callers that want to drive a
    /// single table directly (snapshot/DML/merge) without
    /// going back through the catalog.
    pub fn shared(&self, name: &str) -> Result<SharedTable, DbError> {
        Ok(self.entry(name)?.table)
    }

    /// Run `f` under `name`'s table **read** lock. The closure sees a
    /// consistent [`VersionedTable`]; nothing borrowed from it can escape.
    /// This replaces the old `versioned(name) -> &VersionedTable`
    /// accessor.
    pub fn with_table<R>(
        &self,
        name: &str,
        f: impl FnOnce(&VersionedTable) -> R,
    ) -> Result<R, DbError> {
        Ok(self.entry(name)?.table.with_read(f))
    }

    /// Run `f` under `name`'s table **write** lock — the compound-write
    /// primitive. While `f` runs, no other writer, merge swap, or
    /// background catch-up can touch the table, so resolve-then-mutate
    /// sequences (look a row id up, then update it) are atomic here even
    /// in `Background` maintenance mode.
    ///
    /// Maintenance never runs inside: a compound write never merges.
    pub fn with_table_write<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut VersionedTable) -> R,
    ) -> Result<R, DbError> {
        Ok(self.entry(name)?.table.with_write(f))
    }

    /// A pinned snapshot of `name` at its current version (short read
    /// lock; queries on the snapshot run lock-free).
    pub fn table_snapshot(&self, name: &str) -> Result<Snapshot, DbError> {
        Ok(self.entry(name)?.table.snapshot())
    }

    /// The read-optimized main store of `name` as one table: the resident
    /// one, shared (it is immutable between merges), or a cold one's copy
    /// assembled off every lock for this call — cached nowhere, the table
    /// stays cold. Excludes pending delta rows — query through
    /// [`Database::run`] (or a snapshot) to see those.
    pub fn get_table(&self, name: &str) -> Result<Arc<Table>, DbError> {
        let pinned = self.table_snapshot(name)?;
        Ok(match pinned.store().form() {
            Form::Resident(t) => Arc::clone(t),
            Form::Cold(c) => Arc::new(c.hydrate()?),
        })
    }

    /// Table names in the catalog, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read_catalog().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Process-wide scan-kernel counters: SIMD vs. scalar chunks executed
    /// and zone blocks scanned vs. pruned, accumulated across every query
    /// on every engine since the last [`Database::reset_scan_stats`].
    /// Process-wide (not per-database) because the kernels themselves are.
    pub fn scan_stats(&self) -> pdsm_exec::ScanCounters {
        pdsm_exec::scan_counters()
    }

    /// Zero the process-wide scan-kernel counters (benchmark bracketing).
    pub fn reset_scan_stats(&self) {
        pdsm_exec::reset_scan_counters()
    }

    /// Aggregated WAL/checkpoint/recovery counters across every durable
    /// table (all zeros for an in-memory database), and the main stores'
    /// memory across every table.
    pub fn storage_stats(&self) -> StorageStats {
        let mut s = StorageStats::default();
        let entries: Vec<TableEntry> = self.read_catalog().values().cloned().collect();
        for entry in entries {
            let main = entry.table.with_read(|vt| Arc::clone(vt.store()));
            if main.cold().is_none() {
                s.main_bytes += main.byte_size() as u64;
            }
            s.dict_bytes += main.skeleton().dict_bytes() as u64;
            let Some(d) = entry.table.durability() else {
                continue;
            };
            let ds = d.stats();
            s.durable_tables += 1;
            s.wal_bytes_appended += ds.wal.bytes_appended;
            s.wal_appends += ds.wal.appends;
            s.wal_fsyncs += ds.wal.fsyncs;
            s.wal_appends_synced += ds.wal.appends_synced;
            s.wal_max_group = s.wal_max_group.max(ds.wal.max_group);
            s.wal_live_bytes += ds.wal_len;
            s.checkpoints += ds.checkpoints;
            s.recovery_replay_ops += ds.last_recovery_replay_ops;
        }
        s
    }

    /// The buffer pool, when `PDSM_POOL_BYTES` configured one at open.
    pub fn pool(&self) -> Option<&Arc<BufferPool>> {
        self.pool.as_ref()
    }

    /// Buffer-pool counters (hits, misses, evictions, resident bytes,
    /// fault latency), when pooling is enabled — `None` means every table
    /// is fully memory-resident.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.as_ref().map(|p| p.stats())
    }

    /// Block until every in-flight background build is applied (or
    /// discarded). The deterministic quiesce point tests and benchmarks
    /// use; returns the merges applied since the last drain.
    pub fn flush_maintenance(&self) -> Result<Vec<(String, MergeStats)>, DbError> {
        Ok(self.maintenance.flush())
    }

    /// What the scheduler has done so far.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.maintenance.stats()
    }

    /// A copy of the active maintenance policy.
    pub fn maintenance_config(&self) -> MaintenanceConfig {
        self.maintenance.config()
    }

    /// Replace the maintenance policy (mode, thresholds, advice,
    /// backpressure). Takes effect from the next write. This replaces the
    /// old `maintenance_config_mut` escape hatch — config changes go
    /// through the same interior-mutability discipline as everything else.
    pub fn set_maintenance_config(&self, cfg: MaintenanceConfig) {
        self.maintenance.set_config(cfg);
    }

    /// Adjust the maintenance policy in place under the scheduler lock.
    pub fn update_maintenance_config(&self, f: impl FnOnce(&mut MaintenanceConfig)) {
        self.maintenance.update_config(f);
    }

    /// Set the merge threshold: globally (`table = None`) or for one table.
    pub fn set_merge_threshold(&self, table: Option<&str>, delta_ops: u64) {
        self.maintenance.update_config(|cfg| match table {
            Some(t) => {
                cfg.per_table.insert(t.to_string(), delta_ops);
            }
            None => cfg.merge_threshold = delta_ops,
        });
    }

    /// Version-chain statistics for `table` (see
    /// [`VersionedTable::version_stats`]):
    /// live main stores, pinned generations, bytes held by superseded
    /// versions.
    pub fn version_stats(&self, table: &str) -> Result<VersionStats, DbError> {
        self.with_table(table, |vt| vt.version_stats())
    }

    /// Create (and backfill) an index on `table.column`. A pending delta is
    /// merged first so the index covers every visible row. The build runs
    /// off-lock over the immutable main store; only the install takes the
    /// index lock.
    pub fn create_index(&self, table: &str, column: &str, kind: IndexKind) -> Result<(), DbError> {
        let entry = self.entry(table)?;
        entry.merge(1, crate::write::keep_layout)?;
        // Pinned under the lock, read outside it.
        let current = || {
            let pinned = entry.table.snapshot();
            (Arc::clone(pinned.store()), pinned.generation())
        };
        let (main, generation) = current();
        let col = main.schema().col_id(column)?;
        let ty = main.schema().columns()[col].ty;
        if ty == DataType::Float64 {
            return Err(DbError::NotIndexable {
                table: table.to_string(),
                column: column.to_string(),
            });
        }
        let index = Arc::new(build_index(&main, col)?);
        entry
            .indexes
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
                col,
                IndexEntry {
                    generation,
                    kind,
                    index,
                },
            );
        // A background merge may have swapped the main store while we were
        // building. One catch-up rebuild closes the common race; anything
        // rarer keeps the index out of statement views (whose pin admits
        // only indexes of the pinned generation) until the next merge's
        // rebuild heals it.
        let (main2, gen2) = current();
        if gen2 != generation {
            entry.reindex(&main2, gen2)?;
        }
        self.bump_epoch();
        Ok(())
    }

    /// Drop the index on `table.column` if present.
    pub fn drop_index(&self, table: &str, column: &str) -> Result<(), DbError> {
        let entry = self.entry(table)?;
        let col = entry.table.with_read(|vt| vt.schema().col_id(column))?;
        entry
            .indexes
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&col);
        self.bump_epoch();
        Ok(())
    }

    /// The statement cache's counters, plan half and result half.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Reconfigure result caching (tests, embedders, benchmarks that
    /// must not depend on the process environment). Drops every cache
    /// entry; counters keep accumulating.
    pub fn set_result_cache(&self, cfg: ResultCacheConfig) {
        self.cache.set_config(cfg);
    }

    /// Record one executed plan into the observed workload (deduplicated;
    /// repeats bump the frequency). `key` is the plan's rendering, shared
    /// with the statement cache so `execute` formats it once.
    pub(crate) fn record_observed(&self, plan: &LogicalPlan, key: &str) {
        let mut o = self.observed.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&i) = o.by_key.get(key) {
            o.workload.queries[i].frequency += 1.0;
            return;
        }
        let i = o.workload.queries.len();
        if i >= OBSERVED_CAP {
            return;
        }
        let name = format!("observed-{i}");
        o.workload.push(WorkloadQuery::new(name, plan.clone()));
        o.by_key.insert(key.to_string(), i);
    }

    /// The traffic [`Database::execute`] has routed so far, as a
    /// [`pdsm_layout::workload::Workload`]: one weighted entry per distinct
    /// plan. Feed it to [`crate::LayoutAdvisor`] so `relayout`/merge can
    /// re-advise from what actually ran.
    pub fn observed_workload(&self) -> Workload {
        self.observed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .workload
            .clone()
    }

    /// Forget the observed workload (e.g. after applying its advice).
    pub fn clear_observed_workload(&self) {
        let mut o = self.observed.lock().unwrap_or_else(|e| e.into_inner());
        o.workload.queries.clear();
        o.by_key.clear();
    }

    /// Total bytes across all tables: main-store arenas (a cold one's read
    /// off its header, nothing faulted) plus pending deltas.
    pub fn byte_size(&self) -> usize {
        let entries: Vec<TableEntry> = self.read_catalog().values().cloned().collect();
        (entries.iter())
            .map(|e| {
                e.table
                    .with_read(|vt| vt.store().byte_size() + vt.delta_byte_size())
            })
            .sum()
    }
}

impl TableEntry {
    /// Re-derive every stale index of this table from a freshly merged main
    /// store. Called after the swap (sync path: the merging thread;
    /// background path: the maintenance worker), never under the table lock
    /// — the main store is immutable, and the per-index generation tag
    /// keeps racing rebuilds monotonic: an older build never overwrites a
    /// newer one, and columns dropped meanwhile stay dropped.
    pub(crate) fn reindex(&self, main: &MainStore, generation: u64) -> Result<(), DbError> {
        let cols: Vec<(ColId, IndexKind)> = {
            let set = self.indexes.read().unwrap_or_else(|e| e.into_inner());
            set.iter()
                .filter(|(_, e)| e.generation < generation)
                .map(|(c, e)| (*c, e.kind))
                .collect()
        };
        if cols.is_empty() {
            return Ok(());
        }
        let rebuilt = (cols.into_iter())
            .map(|(c, k)| Ok((c, k, Arc::new(build_index(main, c)?))))
            .collect::<Result<Vec<_>, DbError>>()?;
        let mut set = self.indexes.write().unwrap_or_else(|e| e.into_inner());
        for (col, kind, index) in rebuilt {
            if let Some(e) = set.get_mut(&col) {
                if e.generation < generation {
                    *e = IndexEntry {
                        generation,
                        kind,
                        index,
                    };
                }
            }
        }
        Ok(())
    }
}

/// Recover every table in `manifest` side by side: `threads` workers (the
/// database's own count) each claim the next table as they finish one, so
/// the open takes about as long as its slowest table. Returns the tables
/// in manifest order, or the error of the first in that order that failed
/// to recover — and then no table at all.
fn recover_tables(
    config: &DurabilityConfig,
    manifest: &Arc<Manifest>,
    pool: Option<&Arc<BufferPool>>,
    threads: usize,
) -> Result<Vec<(String, VersionedTable)>, DbError> {
    let tables = manifest.tables();
    let next = AtomicUsize::new(0);
    let claim = || {
        let i = next.fetch_add(1, Ordering::Relaxed);
        Some(i).zip(tables.get(i))
    };
    let mut recovered: Vec<_> = run_workers(threads.clamp(1, tables.len().max(1)), |_| {
        let mut mine = Vec::new();
        while let Some((i, (name, generation))) = claim() {
            let vt = TableDurability::recover(
                &config.data_dir,
                name,
                *generation,
                Arc::clone(manifest),
                config.fsync,
                pool.cloned(),
            );
            mine.push((i, vt));
        }
        mine
    })
    .into_iter()
    .flatten()
    .collect();
    recovered.sort_unstable_by_key(|(i, _)| *i);
    (tables.into_iter().zip(recovered))
        .map(|((name, _), (_, vt))| Ok((name, vt?)))
        .collect()
}

/// Build one secondary index over a main store, walking it piece by piece
/// (a cold one a pinned extent at a time). Keys are read in place through
/// the column's typed reader: integers by value, strings by their stored
/// dictionary code — global, since every extent shares the header's
/// dictionaries. NULLs are not indexed. A dense key domain
/// ([`dense_domain`]) is indexed by counting, walking the store twice and
/// holding one count per domain key; any other collects every `(key,
/// row)` pair and sorts them once.
fn build_index(main: &MainStore, col: ColId) -> Result<SortedIndex, DbError> {
    let def = &main.schema().columns()[col];
    let walk = |sink: &mut dyn FnMut(i64, u32)| {
        main.for_each_extent(&[], &[], None, |first, t, _| {
            let mut each = |key: &dyn Fn(usize) -> i64| {
                for row in (0..t.len()).filter(|&row| !def.nullable || t.is_valid(row, col)) {
                    sink(key(row), (first + row) as u32);
                }
            };
            match def.ty {
                DataType::Int32 => {
                    let r = t.i32_reader(col);
                    each(&|row| r.get(row) as i64)
                }
                DataType::Int64 => {
                    let r = t.i64_reader(col);
                    each(&|row| r.get(row))
                }
                DataType::Str => {
                    let r = t.str_code_reader(col);
                    each(&|row| r.get(row) as i64)
                }
                // Not indexable: `create_index` rejects float columns.
                DataType::Float64 => {}
            }
            Ok::<_, DbError>(())
        })
    };
    if let Some((lo, span)) = dense_domain(main, col) {
        return SortedIndex::from_dense(lo, span, walk);
    }
    let mut pairs: Vec<(i64, u32)> = Vec::with_capacity(main.len());
    walk(&mut |key, row| pairs.push((key, row)))?;
    Ok(SortedIndex::from_pairs(pairs))
}

/// The key domain `lo..lo + span` of column `col` when counting builds
/// its index: a string column's dictionary codes, or an integer column
/// whose zone-map range holds at most one key per row.
fn dense_domain(main: &MainStore, col: ColId) -> Option<(i64, usize)> {
    match main.schema().columns()[col].ty {
        DataType::Str => Some((0, main.skeleton().dict(col)?.len())),
        DataType::Int32 | DataType::Int64 => {
            let (lo, hi) = main.zones()?.int_range(col)?;
            let span = usize::try_from(hi.checked_sub(lo)?).ok()?.checked_add(1)?;
            (span <= main.len()).then_some((lo, span))
        }
        DataType::Float64 => None,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::maintenance::MaintenanceMode;
    use pdsm_plan::builder::QueryBuilder;
    use pdsm_plan::expr::Expr;
    use pdsm_storage::{ColumnDef, Value};

    pub(crate) fn demo_db() -> Database {
        let db = Database::new();
        db.create_table(
            "orders",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int32),
                ColumnDef::new("cust", DataType::Str),
                ColumnDef::new("qty", DataType::Int64),
            ]),
        )
        .unwrap();
        for i in 0..500 {
            db.insert(
                "orders",
                &[
                    Value::Int32(i),
                    Value::Str(format!("cust-{}", i % 20)),
                    Value::Int64((i as i64) * 2),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn create_insert_query_roundtrip() {
        let db = demo_db();
        let plan = QueryBuilder::scan("orders")
            .filter(Expr::col(1).eq(Expr::lit("cust-3")))
            .project(vec![Expr::col(0)])
            .build();
        for kind in EngineKind::all() {
            let out = db.run(&plan, kind).unwrap();
            assert_eq!(out.len(), 25, "{:?}", kind);
        }
    }

    #[test]
    fn duplicate_and_unknown_tables() {
        let db = demo_db();
        assert!(matches!(
            db.create_table(
                "orders",
                Schema::new(vec![ColumnDef::new("x", DataType::Int32)])
            ),
            Err(DbError::DuplicateTable(_))
        ));
        assert!(matches!(
            db.get_table("nope"),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn index_path_matches_scan_path() {
        let db = demo_db();
        db.create_index("orders", "id", IndexKind::Hash).unwrap();
        let plan = QueryBuilder::scan("orders")
            .filter(Expr::col(0).eq(Expr::lit(123)))
            .build();
        let indexed = db.run_indexed(&plan, EngineKind::Compiled).unwrap();
        let scanned = db.run(&plan, EngineKind::Compiled).unwrap();
        indexed.assert_same(&scanned, "indexed vs scan");
        assert_eq!(indexed.len(), 1);
    }

    #[test]
    fn rbtree_index_serves_ranges() {
        let db = demo_db();
        db.create_index("orders", "id", IndexKind::RBTree).unwrap();
        let plan = QueryBuilder::scan("orders")
            .filter(Expr::col(0).lt(Expr::lit(10)))
            .project(vec![Expr::col(0)])
            .build();
        let indexed = db.run_indexed(&plan, EngineKind::Compiled).unwrap();
        assert_eq!(indexed.len(), 10);
        let scanned = db.run(&plan, EngineKind::Compiled).unwrap();
        indexed.assert_same(&scanned, "range index vs scan");
    }

    #[test]
    fn string_index_via_dictionary_codes() {
        let db = demo_db();
        db.create_index("orders", "cust", IndexKind::Hash).unwrap();
        let plan = QueryBuilder::scan("orders")
            .filter(Expr::col(1).eq(Expr::lit("cust-7")))
            .project(vec![Expr::col(0), Expr::col(1)])
            .build();
        let indexed = db.run_indexed(&plan, EngineKind::Volcano).unwrap();
        assert_eq!(indexed.len(), 25);
        let scanned = db.run(&plan, EngineKind::Volcano).unwrap();
        indexed.assert_same(&scanned, "string index");
        // absent key → empty, not fallback
        let missing = QueryBuilder::scan("orders")
            .filter(Expr::col(1).eq(Expr::lit("cust-999")))
            .build();
        assert!(db
            .run_indexed(&missing, EngineKind::Volcano)
            .unwrap()
            .is_empty());

        // A nullable string column: NULLs carry no key, every other row is
        // keyed by its stored code — at the first build and again when a
        // merge (fresh dictionary, renumbered rows) rebuilds the index.
        db.create_table(
            "notes",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int32),
                ColumnDef::nullable("tag", DataType::Str),
            ]),
        )
        .unwrap();
        let tag = |i: i32| match i % 4 {
            0 => Value::Null,
            k => Value::Str(format!("tag-{k}")),
        };
        for i in 0..200 {
            db.insert("notes", &[Value::Int32(i), tag(i)]).unwrap();
        }
        db.create_index("notes", "tag", IndexKind::Hash).unwrap();
        let probes = ["tag-1", "tag-2", "tag-3", "tag-new", "tag-none"];
        let check = |expect: [usize; 5]| {
            for (key, n) in probes.iter().zip(expect) {
                let plan = QueryBuilder::scan("notes")
                    .filter(Expr::col(1).eq(Expr::lit(*key)))
                    .build();
                let indexed = db.run_indexed(&plan, EngineKind::Compiled).unwrap();
                indexed.assert_same(&db.run(&plan, EngineKind::Compiled).unwrap(), key);
                assert_eq!(indexed.len(), n, "{key}");
            }
        };
        check([50, 50, 50, 0, 0]);
        db.delete_where("notes", Some(&Expr::col(1).eq(Expr::lit("tag-2"))))
            .unwrap();
        db.insert("notes", &[Value::Int32(900), Value::from("tag-new")])
            .unwrap();
        db.insert("notes", &[Value::Int32(901), Value::Null])
            .unwrap();
        db.merge("notes").unwrap();
        check([50, 0, 50, 1, 0]);
    }

    #[test]
    fn index_maintained_by_inserts() {
        let db = demo_db();
        db.create_index("orders", "id", IndexKind::Hash).unwrap();
        db.insert(
            "orders",
            &[Value::Int32(9999), Value::from("cust-new"), Value::Int64(1)],
        )
        .unwrap();
        let plan = QueryBuilder::scan("orders")
            .filter(Expr::col(0).eq(Expr::lit(9999)))
            .build();
        assert_eq!(
            db.run_indexed(&plan, EngineKind::Compiled).unwrap().len(),
            1
        );
    }

    #[test]
    fn float_columns_not_indexable() {
        let db = Database::new();
        db.create_table(
            "f",
            Schema::new(vec![ColumnDef::new("x", DataType::Float64)]),
        )
        .unwrap();
        assert!(matches!(
            db.create_index("f", "x", IndexKind::Hash),
            Err(DbError::NotIndexable { .. })
        ));
    }

    #[test]
    fn residual_predicates_still_apply() {
        let db = demo_db();
        db.create_index("orders", "cust", IndexKind::Hash).unwrap();
        // indexed conjunct + residual on qty
        let plan = QueryBuilder::scan("orders")
            .filter(
                Expr::col(1)
                    .eq(Expr::lit("cust-3"))
                    .and(Expr::col(2).gt(Expr::lit(400))),
            )
            .project(vec![Expr::col(0)])
            .build();
        let indexed = db.run_indexed(&plan, EngineKind::Compiled).unwrap();
        let scanned = db.run(&plan, EngineKind::Compiled).unwrap();
        indexed.assert_same(&scanned, "residual");
    }

    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<crate::DbSnapshot>();
    }

    pub(crate) fn durable_tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pdsm-core-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub(crate) fn open_off(dir: &Path) -> Database {
        Database::open_with(
            DurabilityConfig::new(dir).with_fsync(FsyncMode::Off),
            MaintenanceConfig {
                mode: MaintenanceMode::Off,
                ..MaintenanceConfig::default()
            },
        )
        .unwrap()
    }

    pub(crate) fn count_orders(db: &Database) -> i64 {
        let count = QueryBuilder::scan("orders")
            .aggregate(vec![], vec![pdsm_plan::logical::AggExpr::count_star()])
            .build();
        match db.run(&count, EngineKind::Compiled).unwrap().rows[0][0] {
            Value::Int64(n) => n,
            ref v => panic!("count returned {v:?}"),
        }
    }

    #[test]
    fn durable_database_survives_reopen() {
        let dir = durable_tmpdir("reopen");
        {
            let db = open_off(&dir);
            db.create_table(
                "orders",
                Schema::new(vec![
                    ColumnDef::new("id", DataType::Int32),
                    ColumnDef::new("cust", DataType::Str),
                    ColumnDef::new("qty", DataType::Int64),
                ]),
            )
            .unwrap();
            for i in 0..50 {
                db.insert(
                    "orders",
                    &[
                        Value::Int32(i),
                        Value::Str(format!("cust-{}", i % 5)),
                        Value::Int64(i as i64),
                    ],
                )
                .unwrap();
            }
            db.delete("orders", 3).unwrap();
            db.update("orders", 7, "qty", &Value::Int64(999)).unwrap();
            assert!(db.is_durable());
            let stats = db.storage_stats();
            assert_eq!(stats.durable_tables, 1);
            assert!(stats.wal_appends >= 52);
        }
        let db = open_off(&dir);
        assert_eq!(db.table_names(), vec!["orders".to_string()]);
        assert_eq!(count_orders(&db), 49);
        // 50 inserts + 1 delete + 1 update replayed from the WAL tail.
        assert_eq!(db.storage_stats().recovery_replay_ops, 52);
        let probe = QueryBuilder::scan("orders")
            .filter(Expr::col(0).eq(Expr::lit(7)))
            .project(vec![Expr::col(2)])
            .build();
        let out = db.run(&probe, EngineKind::Compiled).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int64(999)]]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registered_table_is_durable() {
        let dir = durable_tmpdir("register");
        {
            let db = open_off(&dir);
            let mut t = Table::new(
                "orders",
                Schema::new(vec![ColumnDef::new("id", DataType::Int32)]),
            );
            for i in 0..10 {
                t.insert(&[Value::Int32(i)]).unwrap();
            }
            db.register(t);
        }
        let db = open_off(&dir);
        assert_eq!(count_orders(&db), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The manifest's tables recover side by side at one worker and at
    /// four. When one table's committed blob is damaged, recovery returns
    /// that table's error at either count and hands back no table, and
    /// the open fails.
    #[test]
    fn one_damaged_table_fails_the_side_by_side_open() {
        let dir = durable_tmpdir("side-by-side");
        let names = ["a", "b", "c", "d", "e"];
        {
            let db = open_off(&dir);
            for (n, name) in names.iter().enumerate() {
                let schema = Schema::new(vec![ColumnDef::new("id", DataType::Int32)]);
                let mut t = Table::new(*name, schema);
                for i in 0..(n as i32 + 1) * 700 {
                    t.insert(&[Value::Int32(i)]).unwrap();
                }
                db.register(t);
            }
        }
        let config = DurabilityConfig::new(&dir).with_fsync(FsyncMode::Off);
        let manifest = Arc::new(Manifest::open(dir.join("MANIFEST")).unwrap());
        for threads in [1, 4] {
            let tables = recover_tables(&config, &manifest, None, threads).unwrap();
            let lens: Vec<(&str, usize)> = (tables.iter())
                .map(|(name, vt)| (name.as_str(), vt.len()))
                .collect();
            assert_eq!(
                lens,
                [
                    ("a", 700),
                    ("b", 1400),
                    ("c", 2100),
                    ("d", 2800),
                    ("e", 3500)
                ]
            );
        }
        let generation = manifest.get("c").unwrap();
        let blob =
            (dir.join(pdsm_store::sanitize_name("c"))).join(format!("main.{generation}.tbl"));
        let file = std::fs::File::open(&blob).unwrap();
        let header_len = pdsm_storage::persist::read_header_from(&file)
            .unwrap()
            .header_len;
        drop(file);
        pdsm_store::flip_bit(&blob, header_len as u64 + 100).unwrap();
        for threads in [1, 4] {
            let err = recover_tables(&config, &manifest, None, threads).unwrap_err();
            assert!(err.to_string().contains("checksum"), "{threads}: {err}");
        }
        let maintenance = MaintenanceConfig::default();
        assert!(Database::open_with_pool(config, maintenance, None).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
