//! The four workloads: data sets, statement streams and the model of what
//! the database must hold afterwards.
//!
//! Everything here is a pure function of the seed — the server only ever
//! sees the SQL text a [`Stream`] produces. Read statements are the
//! `pdsm_workloads` benchmark queries rendered through `plan_to_sql`, with
//! the literals of the rendering replaced per statement ([`Template`]).

use pdsm_plan::sql_literal;
use pdsm_sql::plan_to_sql;
use pdsm_storage::{Schema, Table, Value};
use pdsm_workloads::{ch, sapsd, BenchQuery};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SapsdPoint,
    ChScan,
    HtapMixed,
    ColdPool,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SapsdPoint,
        Workload::ChScan,
        Workload::HtapMixed,
        Workload::ColdPool,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SapsdPoint => "sapsd_point",
            Workload::ChScan => "ch_scan",
            Workload::HtapMixed => "htap_mixed",
            Workload::ColdPool => "cold_pool",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Statements the traced run replays per second of `--seconds`, sized
    /// so one in-process pass takes a fraction of that second: the traced
    /// run makes three passes (untraced, traced, in-memory twin).
    pub fn traced_statements_per_second(self) -> usize {
        match self {
            Workload::SapsdPoint => 1000,
            Workload::ChScan => 25,
            Workload::HtapMixed => 40,
            Workload::ColdPool => 25,
        }
    }

    /// The server's `PDSM_MERGE_THRESHOLD`. `htap_mixed` merges early, so
    /// that several merge + checkpoint cycles fit one short run; the others
    /// keep the server's default, which no run reaches — a single merge of
    /// a 300 k-row table landing inside some runs and not others would be
    /// all their tail latency measured (and a merge would hydrate
    /// `cold_pool`'s table for good).
    pub fn merge_threshold(self) -> u64 {
        match self {
            Workload::HtapMixed => 512,
            _ => 65_536,
        }
    }
}

/// Data-set sizes. `Full` is what the benchmark measures; `Smoke` is the
/// tiny scale the tests and `--smoke` run end to end in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// SAP-SD sales orders behind `sapsd_point` (point lookups do not get
    /// dearer with size, so this one can be large).
    fn sapsd_point_orders(self) -> usize {
        match self {
            Scale::Full => 100_000,
            Scale::Smoke => 2_000,
        }
    }

    /// SAP-SD sales orders behind `htap_mixed`: the heaviest of the twelve
    /// queries (the VBAK ⋈ VBAP group-by) takes ~40 ms in-process here.
    fn htap_orders(self) -> usize {
        match self {
            Scale::Full => 10_000,
            Scale::Smoke => 1_000,
        }
    }

    /// CH warehouses behind `ch_scan` and `cold_pool` (~9 000 order lines
    /// each): a full `ORDER_LINE` scan aggregate takes ~10 ms in-process.
    fn ch_warehouses(self) -> usize {
        match self {
            Scale::Full => 12,
            Scale::Smoke => 2,
        }
    }
}

/// A rendered SQL statement with literal slots.
#[derive(Debug, Clone)]
pub struct Template {
    /// Text between the slots; `pieces.len() == slots + 1`.
    pieces: Vec<String>,
}

impl Template {
    /// Cut `rendered` at each of `literals`, which must occur in that
    /// order. Panics when one is missing: the query definitions in
    /// `pdsm_workloads` moved and the slot list here must follow.
    pub fn new(rendered: &str, literals: &[&str]) -> Template {
        let mut pieces = Vec::with_capacity(literals.len() + 1);
        let mut rest = rendered;
        for lit in literals {
            let at = rest
                .find(lit)
                .unwrap_or_else(|| panic!("literal {lit} not found in rendering {rendered:?}"));
            pieces.push(rest[..at].to_string());
            rest = &rest[at + lit.len()..];
        }
        pieces.push(rest.to_string());
        Template { pieces }
    }

    /// The statement with `values` in the slots.
    pub fn fill(&self, values: &[&str]) -> String {
        assert_eq!(values.len() + 1, self.pieces.len(), "slot count");
        let mut out = self.pieces[0].clone();
        for (v, piece) in values.iter().zip(&self.pieces[1..]) {
            out.push_str(v);
            out.push_str(piece);
        }
        out
    }
}

/// Statement class: the two latency populations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
}

/// What a correct reply looks like, as far as the stream can know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A `ROWS` reply; `Some(n)` when the row count is known.
    Rows(Option<usize>),
    /// An `OK <n>` reply.
    Count(usize),
}

/// An acknowledged write's effect on the model: rows and key sum added to
/// (or, negative, removed from) a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effect {
    pub table: &'static str,
    pub rows: i64,
    pub key_sum: i64,
}

/// One generated statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub sql: String,
    pub class: Class,
    pub expect: Expect,
    pub effect: Option<Effect>,
}

/// `count(*)` and `sum(key)` per written table.
pub type Model = BTreeMap<&'static str, (i64, i64)>;

/// Fold an acknowledged effect into `model`.
pub fn apply_effect(model: &mut Model, e: Effect) {
    let entry = model.entry(e.table).or_insert((0, 0));
    entry.0 += e.rows;
    entry.1 += e.key_sum;
}

/// The key column (column 0 everywhere) of a table the workloads write.
fn key_column(table: &str) -> &'static str {
    match table {
        "VBAP" => "VBELN",
        "STOCK" => "s_i_id",
        "ORDER_LINE" => "ol_o_id",
        other => panic!("no workload writes {other}"),
    }
}

/// The statement that reads a table's model entry back.
pub fn invariant_sql(table: &str) -> String {
    format!("SELECT count(*), sum({}) FROM {table}", key_column(table))
}

/// A workload's data set plus everything its streams need to know about it.
pub struct Dataset {
    pub workload: Workload,
    /// The tables the workload's statements touch, in registration order.
    pub tables: Vec<Table>,
    /// `CREATE INDEX` statements sent once the server is up.
    pub index_ddl: Vec<&'static str>,
    /// `count(*)`/`sum(key)` of every written table before any write.
    pub initial_model: Model,
    /// SAP-SD: sales orders, customers, and items per order (`VBAP` rows
    /// per `VBELN`).
    orders: usize,
    customers: usize,
    items_per_order: Vec<u8>,
    /// CH: orders (`ol_o_id` runs over `0..ch_orders`).
    ch_orders: usize,
    /// Read templates by query name.
    templates: HashMap<String, Template>,
}

/// First key of connection `conn`'s own write range — far above every
/// generated key, and apart from every other connection's.
fn own_key_base(conn: usize) -> i32 {
    10_000_000 * (conn as i32 + 1)
}

/// Render through `plan_to_sql` each of `queries` that `slots` names
/// and cut it into a [`Template`] at the literals listed there. A query
/// over a table this workload does not load has no template.
fn templates(
    queries: &[BenchQuery],
    tables: &[Table],
    slots: &[(&str, Vec<&str>)],
) -> HashMap<String, Template> {
    let catalog: HashMap<String, Schema> = tables
        .iter()
        .map(|t| (t.name().to_string(), t.schema().clone()))
        .collect();
    slots
        .iter()
        .filter_map(|(name, literals)| {
            let plan = queries.iter().find(|q| q.name == *name)?.as_plan()?;
            let sql = plan_to_sql(plan, &catalog).ok()?;
            Some((name.to_string(), Template::new(&sql, literals)))
        })
        .collect()
}

fn column_sum(t: &Table, col: usize) -> i64 {
    (0..t.len())
        .map(|r| {
            t.get(r, col)
                .expect("row in range")
                .as_i64()
                .expect("int key")
        })
        .sum()
}

impl Dataset {
    /// Generate the workload's data set from `seed`.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Dataset {
        match workload {
            Workload::SapsdPoint => Self::sapsd(workload, scale.sapsd_point_orders(), seed),
            Workload::HtapMixed => Self::sapsd(workload, scale.htap_orders(), seed),
            Workload::ChScan | Workload::ColdPool => Self::ch(workload, scale, seed),
        }
    }

    fn sapsd(workload: Workload, orders: usize, seed: u64) -> Dataset {
        let point_only = workload == Workload::SapsdPoint;
        let tables: Vec<Table> = sapsd::tables(orders, seed)
            .into_iter()
            .filter(|t| !point_only || matches!(t.name(), "ADRC" | "KNA1" | "VBAP"))
            .collect();
        let vbap = tables.iter().find(|t| t.name() == "VBAP").expect("VBAP");
        let mut items_per_order = vec![0u8; orders];
        for r in 0..vbap.len() {
            let vbeln = vbap.get(r, 0).expect("row").as_i64().expect("VBELN");
            items_per_order[vbeln as usize] += 1;
        }
        let initial_model = Model::from([("VBAP", (vbap.len() as i64, column_sum(vbap, 0)))]);

        // The literals `sapsd::queries` bakes into its plans.
        let customers = (orders / 10).max(10);
        let some_kunnr = format!("'C{:07}'", customers / 3);
        let some_vbeln = (orders / 2).to_string();
        let slots: [(&str, Vec<&str>); 11] = [
            ("Q1", vec!["'Alpha%'"]),
            ("Q2", vec!["20230700"]),
            ("Q3", vec![&some_kunnr]),
            ("Q4", vec![]),
            ("Q5", vec![]),
            ("Q7", vec![&some_kunnr]),
            ("Q8", vec![&some_vbeln]),
            ("Q9", vec!["20230300", "20230400"]),
            ("Q10", vec![]),
            ("Q11", vec!["'DE'"]),
            ("Q12", vec!["20230500", "20230900"]),
        ];
        let templates = templates(&sapsd::queries(orders), &tables, &slots);
        Dataset {
            workload,
            index_ddl: if point_only {
                vec![
                    "CREATE INDEX ON KNA1 (KUNNR) USING HASH",
                    "CREATE INDEX ON ADRC (KUNNR) USING HASH",
                    "CREATE INDEX ON VBAP (VBELN) USING RBTREE",
                ]
            } else {
                vec![]
            },
            tables,
            initial_model,
            orders,
            customers,
            items_per_order,
            ch_orders: 0,
            templates,
        }
    }

    fn ch(workload: Workload, scale: Scale, seed: u64) -> Dataset {
        let pooled = workload == Workload::ColdPool;
        let tables: Vec<Table> = ch::tables(scale.ch_warehouses(), seed)
            .into_iter()
            .filter(|t| !pooled || t.name() == "ORDER_LINE")
            .collect();
        let written = if pooled { "ORDER_LINE" } else { "STOCK" };
        let wt = tables.iter().find(|t| t.name() == written).expect("table");
        let initial_model = Model::from([(written, (wt.len() as i64, column_sum(wt, 0)))]);
        let ch_orders = scale.ch_warehouses() * 900;
        let slots: [(&str, Vec<&str>); 4] = [
            ("CH-Q1", vec!["20230600"]),
            ("CH-Q4", vec!["20230300", "20230900"]),
            ("CH-Q6", vec!["20230101", "20230701"]),
            ("CH-Q10", vec!["20230800"]),
        ];
        let templates = templates(&ch::queries(), &tables, &slots);
        Dataset {
            workload,
            index_ddl: vec![],
            tables,
            initial_model,
            orders: 0,
            customers: 0,
            items_per_order: vec![],
            ch_orders,
            templates,
        }
    }

    fn template(&self, name: &str) -> &Template {
        self.templates
            .get(name)
            .unwrap_or_else(|| panic!("{} has no template {name}", self.workload.name()))
    }

    /// The tables the workload writes (the keys of the model).
    pub fn written_tables(&self) -> Vec<&'static str> {
        self.initial_model.keys().copied().collect()
    }

    /// In-memory bytes of the registered tables.
    pub fn table_bytes(&self) -> usize {
        self.tables.iter().map(Table::byte_size).sum()
    }

    /// The 16 fixed probe statements of correctness gate (a): the first
    /// reads of a stream with a seed no run uses.
    pub fn probes(&self) -> Vec<String> {
        let mut s = Stream::new(0x9e37_79b9_7f4a_7c15, 0);
        let mut out = Vec::with_capacity(16);
        while out.len() < 16 {
            let stmt = s.next_stmt(self);
            if stmt.class == Class::Read {
                out.push(stmt.sql);
            }
        }
        out
    }
}

/// What a statement does; a workload's mix is a count of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A read template by query name.
    Query(&'static str),
    /// Insert this many rows under one fresh own key.
    Insert(i32),
    /// Update / delete the rows under one own key (`htap_mixed`).
    Update,
    Delete,
    /// `cold_pool`: an aggregate over a clustered key range / over the
    /// whole table. Only shapes the cold path streams extent by extent —
    /// global count / min / max / integer sum under a filter on the scan.
    /// A float sum or a group-by hydrates the whole table on first use and
    /// the pool is never exercised again.
    RangeScan,
    FullScan,
}

impl Workload {
    /// The mix, as how many of each kind a deck of statements holds.
    fn mix(self) -> Vec<(Kind, usize)> {
        use Kind::*;
        match self {
            // 90 % Q3/Q7/Q8-shaped point selects, 10 % one-row Q6 inserts.
            Workload::SapsdPoint => vec![
                (Query("Q3"), 30),
                (Query("Q7"), 30),
                (Query("Q8"), 30),
                (Insert(1), 10),
            ],
            // The renderable CH queries whose literals can vary, the
            // three-way join kept rare because it costs ten of the others;
            // plus a trickle of ingest on a table none of them reads, so
            // that write latency has samples without touching the scans'
            // plans, deltas or cached results.
            Workload::ChScan => vec![
                (Query("CH-Q1"), 28),
                (Query("CH-Q4"), 28),
                (Query("CH-Q6"), 29),
                (Query("CH-Q10"), 10),
                (Insert(1), 5),
            ],
            // The eleven read queries equally often (the frequency every
            // `sapsd::queries` entry carries) against 30 % writes.
            Workload::HtapMixed => [
                "Q1", "Q2", "Q3", "Q4", "Q5", "Q7", "Q8", "Q9", "Q10", "Q11", "Q12",
            ]
            .into_iter()
            .map(|q| (Query(q), 7))
            .chain([(Insert(8), 11), (Update, 11), (Delete, 11)])
            .collect(),
            Workload::ColdPool => vec![(RangeScan, 70), (FullScan, 20), (Insert(1), 10)],
        }
    }
}

/// One connection's statement stream.
pub struct Stream {
    rng: SmallRng,
    conn: usize,
    /// Statement kinds are dealt from a shuffled deck that holds the mix
    /// exactly, not drawn one by one: a run of a few hundred statements
    /// then has the same share of the rare, heavy kinds under every seed,
    /// and the tail latency they set stops moving with the draw.
    deck: Vec<Kind>,
    dealt: usize,
    /// Next own key offset.
    next_key: i32,
    /// Own keys inserted and not yet deleted, oldest first (`htap_mixed`
    /// updates and deletes by them).
    live_keys: Vec<i32>,
}

/// Eight-entry literal pools of `htap_mixed`: dashboards repeat.
const HTAP_DATES: [i32; 8] = [
    20230200, 20230300, 20230400, 20230500, 20230600, 20230700, 20230800, 20230900,
];

impl Stream {
    /// Connection `conn`'s stream for a run with this `seed`.
    pub fn new(seed: u64, conn: usize) -> Stream {
        Stream {
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(2).wrapping_add(conn as u64)),
            conn,
            deck: Vec::new(),
            dealt: 0,
            next_key: 0,
            live_keys: Vec::new(),
        }
    }

    fn fresh_key(&mut self) -> i32 {
        let k = own_key_base(self.conn) + self.next_key;
        self.next_key += 1;
        k
    }

    fn deal(&mut self, w: Workload) -> Kind {
        if self.dealt == self.deck.len() {
            self.deck = w
                .mix()
                .into_iter()
                .flat_map(|(k, n)| std::iter::repeat_n(k, n))
                .collect();
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.gen_range(0..=i));
            }
            self.dealt = 0;
        }
        self.dealt += 1;
        self.deck[self.dealt - 1]
    }

    /// The next statement.
    pub fn next_stmt(&mut self, ds: &Dataset) -> Stmt {
        match self.deal(ds.workload) {
            Kind::Query(name) => self.query(ds, name),
            Kind::Insert(rows) => self.insert(ds.workload, rows),
            // Nothing of one's own to change yet: insert it first.
            Kind::Update | Kind::Delete if self.live_keys.is_empty() => self.insert(ds.workload, 8),
            Kind::Update => {
                let k = self.live_keys[self.rng.gen_range(0..self.live_keys.len())];
                let qty = self.rng.gen_range(1..100);
                Stmt {
                    sql: format!("UPDATE VBAP SET KWMENG = {qty}.0 WHERE VBELN = {k}"),
                    class: Class::Write,
                    expect: Expect::Count(8),
                    effect: None,
                }
            }
            Kind::Delete => {
                let k = self.live_keys.remove(0);
                Stmt {
                    sql: format!("DELETE FROM VBAP WHERE VBELN = {k}"),
                    class: Class::Write,
                    expect: Expect::Count(8),
                    effect: Some(Effect {
                        table: "VBAP",
                        rows: -8,
                        key_sum: -(k as i64 * 8),
                    }),
                }
            }
            Kind::RangeScan => {
                let n = ds.ch_orders as i32;
                let width = self.rng.gen_range(n / 50..n / 5);
                let from = self.rng.gen_range(0..n - width);
                Self::read(
                    format!(
                        "SELECT count(*), sum(ol_quantity), min(ol_delivery_d), max(ol_delivery_d) \
                         FROM ORDER_LINE WHERE ol_o_id >= {from} AND ol_o_id < {}",
                        from + width
                    ),
                    Some(1),
                )
            }
            Kind::FullScan => {
                let cents = self.rng.gen_range(5000..10_000);
                Self::read(
                    format!(
                        "SELECT count(*), sum(ol_quantity) FROM ORDER_LINE WHERE ol_amount <= {}.{:02}",
                        cents / 100,
                        cents % 100
                    ),
                    Some(1),
                )
            }
        }
    }

    fn read(sql: String, rows: Option<usize>) -> Stmt {
        Stmt {
            sql,
            class: Class::Read,
            expect: Expect::Rows(rows),
            effect: None,
        }
    }

    /// A `yyyymmdd`-shaped integer with the day part drawn from `days`
    /// (generated dates run over 20230101..20231231, so over a thousand
    /// distinct literals).
    fn date_in(&mut self, days: std::ops::Range<i32>) -> i32 {
        20_230_000 + self.rng.gen_range(days)
    }

    /// A read query with its literals drawn: uniformly drawn keys of the
    /// generated data for the point selects, over a thousand values for
    /// the CH scans, a pool of eight for the `htap_mixed` dashboards.
    fn query(&mut self, ds: &Dataset, name: &'static str) -> Stmt {
        let t = ds.template(name);
        let pick = self.rng.gen_range(0..8usize);
        let date = HTAP_DATES[pick].to_string();
        let until = (HTAP_DATES[pick] + 100).to_string();
        match name {
            "Q3" | "Q7" => {
                let k = format!("'C{:07}'", self.rng.gen_range(0..ds.customers));
                Self::read(t.fill(&[&k]), Some(if name == "Q3" { 2 } else { 1 }))
            }
            "Q8" => {
                let v = self.rng.gen_range(0..ds.orders);
                Self::read(
                    t.fill(&[&v.to_string()]),
                    Some(ds.items_per_order[v] as usize),
                )
            }
            "Q1" => Self::read(
                t.fill(&[&format!("'{}%'", sapsd::NAME_PREFIXES[pick])]),
                None,
            ),
            "Q2" => Self::read(t.fill(&[&date]), Some(1)),
            "Q4" | "Q5" => Self::read(t.fill(&[]), None),
            "Q9" | "Q12" => Self::read(t.fill(&[&date, &until]), None),
            "Q10" => Self::read(t.fill(&[]), Some(100)),
            "Q11" => Self::read(t.fill(&[&format!("'{}'", sapsd::COUNTRIES[pick])]), None),
            "CH-Q1" | "CH-Q10" => {
                let d = self.date_in(101..1231).to_string();
                Self::read(t.fill(&[&d]), None)
            }
            "CH-Q4" | "CH-Q6" => {
                let from = self.date_in(101..800);
                let to = from + self.rng.gen_range(100..600i32);
                let rows = (name == "CH-Q6").then_some(1);
                Self::read(t.fill(&[&from.to_string(), &to.to_string()]), rows)
            }
            other => panic!("no literals defined for {other}"),
        }
    }

    /// Insert `rows` rows under one fresh own key into the table the
    /// workload writes.
    fn insert(&mut self, w: Workload, rows: i32) -> Stmt {
        let k = self.fresh_key();
        let (table, tuples): (&'static str, Vec<String>) = match w {
            Workload::SapsdPoint | Workload::HtapMixed => {
                if w == Workload::HtapMixed {
                    self.live_keys.push(k);
                }
                let tuples = (1..=rows)
                    .map(|p| tuple(&sapsd::vbap_row(&mut self.rng, k, p * 10)))
                    .collect();
                ("VBAP", tuples)
            }
            Workload::ChScan => {
                let qty = self.rng.gen_range(10..100);
                (
                    "STOCK",
                    vec![format!("({k}, 0, {qty}, 0.0, 0, 0, 'stock data')")],
                )
            }
            Workload::ColdPool => {
                let day = self.date_in(101..1231);
                let qty = self.rng.gen_range(1..10);
                (
                    "ORDER_LINE",
                    vec![format!(
                        "({k}, 0, 0, 0, 1, 0, {day}, {qty}, 12.5, 'dist00')"
                    )],
                )
            }
        };
        Stmt {
            sql: format!("INSERT INTO {table} VALUES {}", tuples.join(", ")),
            class: Class::Write,
            expect: Expect::Count(tuples.len()),
            effect: Some(Effect {
                table,
                rows: tuples.len() as i64,
                key_sum: k as i64 * tuples.len() as i64,
            }),
        }
    }
}

/// `(v1, v2, …)` as SQL literals.
fn tuple(values: &[Value]) -> String {
    let lits: Vec<String> = values.iter().map(sql_literal).collect();
    format!("({})", lits.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_fills_slots_in_order() {
        let t = Template::new(
            "SELECT a FROM t WHERE (x >= 10) AND (x < 20)",
            &["10", "20"],
        );
        assert_eq!(
            t.fill(&["3", "4"]),
            "SELECT a FROM t WHERE (x >= 3) AND (x < 4)"
        );
        let none = Template::new("SELECT 1", &[]);
        assert_eq!(none.fill(&[]), "SELECT 1");
    }

    #[test]
    fn own_key_ranges_are_disjoint_and_above_the_data() {
        assert!(own_key_base(0) > Scale::Full.sapsd_point_orders() as i32);
        assert!(own_key_base(1) - own_key_base(0) >= 10_000_000);
    }
}
