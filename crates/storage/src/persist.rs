//! Byte-exact [`Table`] serialization — the checkpoint blob format.
//!
//! A persisted main store must reload *bit-identically*: dictionary codes
//! are referenced raw by the execution engines' grouped-by-key fast
//! paths, and the differential tests compare scan output byte-for-byte
//! across save/load. The format therefore dumps the arenas and
//! dictionaries verbatim and re-derives everything that is deterministic
//! from schema + layout (partition geometry, column locations) through
//! [`Table::with_layout`].
//!
//! There is one format (version 5). A CRC'd header, padded to a whole
//! 4 KiB page, carries an (extent × layout group) directory of CRCs. Then
//! each layout group's arena follows as one run across all extents,
//! starting on a 4 KiB boundary, and after the last arena run each
//! group's validity words follow in a run of their own. All integers
//! little-endian:
//!
//! ```text
//! "PDSMTBL1"  magic
//! u32         format version (5)
//! u32         header_len (a multiple of 4096; bytes 0..header_len)
//! u64         generation (the merge counter at checkpoint time)
//! str         table name              (str = u32 length + UTF-8 bytes)
//! u32         #columns, then per column: str name, u8 type, u8 nullable
//! u32         #layout groups, then per group: u32 len + u32 col ids
//! per column: u8 has-dict, then for a dictionary: u8 code width (1, 2
//!             or 4 bytes, at least what its size needs), u32 #strings +
//!             str each (code order)
//! u64         row count
//! per column: u8 zone tag (0 none, 1 int, 2 float), then for 1/2:
//!             u32 #blocks + per block: 8B min, 8B max, u8 flags
//! u32         extent_rows (multiple of ZONE_BLOCK_ROWS)
//! u32         n_extents   (= ceil(rows / extent_rows))
//! per extent, per group: u32 CRC-32 of the extent's arena slice followed
//!             by its validity words
//! zeros       up to header_len - 4
//! u32         CRC-32 of the header bytes above, padding included
//! per group:  zeros up to the next 4 KiB boundary, then the arena run:
//!             rows * stride bytes, extent after extent, each fragment's
//!             fields back to back at their stored widths
//! per group:  the validity run: per extent, per nullable slot in slot
//!             order, the validity words of the extent's rows
//! ```
//!
//! Extents start on ZONE_BLOCK_ROWS boundaries, so each extent covers
//! whole zone blocks and whole 64-bit validity words: extent `e`'s slice
//! of a run sits at a fixed offset, and the runs are the resident arenas
//! and bitmaps bit-for-bit. The zone map travels in the header so
//! recovery starts with scan pruning warm instead of paying a rebuild
//! pass.
//!
//! [`write_extents`] seals the table in one walk — each extent's slices
//! folded into the zone map and checksummed while in cache — then streams
//! the header and each run straight from the arenas and bitmaps into any
//! writer; [`to_bytes_extents`] is that writer into a `Vec`. A
//! resident load ([`read_file`]) maps the arena runs read-only and checks
//! every CRC at open: each partition's arena is then a shared range of
//! the mapping, copied out only by a write (see `mapping.rs`, which names
//! the invariant this relies on: a committed blob is never rewritten or
//! truncated in place, only renamed in and unlinked). [`from_bytes`] is
//! the same loader over the runs held in memory. An extent fault
//! ([`decode_extent`]) reads the extent's slice of each arena run and of
//! each validity run by positioned reads into the frame's own arenas.
//!
//! A load fails hard on any mismatch — unlike a WAL tail, a committed
//! checkpoint blob is written atomically, so corruption here is damage,
//! not an interrupted write; a code width too narrow for its dictionary is
//! refused with the header. Blobs stamped with any other version are
//! refused: no deployed data in an older format exists.

use crate::bitmap::Bitmap;
use crate::dictionary::Dictionary;
use crate::error::{Error, Result};
use crate::layout::Layout;
use crate::mapping::{Arena, Pages};
use crate::partition::{code_width, Partition};
use crate::schema::{ColumnDef, Schema};
use crate::table::Table;
use crate::types::DataType;
use crate::zonemap::{ColZone, ZoneBlock, ZoneFold, ZoneMap, ZONE_BLOCK_ROWS};
use crate::{crc32, Crc32};
use std::borrow::Borrow;
use std::fs::File;
use std::io::{self, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"PDSMTBL1";
/// The packed run format — the only version written or accepted.
const VERSION: u32 = 5;
/// The header's length and every arena run's offset are multiples of
/// this, so each run can be mapped on its own pages.
const RUN_ALIGN: usize = 4096;

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int32 => 0,
        DataType::Int64 => 1,
        DataType::Float64 => 2,
        DataType::Str => 3,
    }
}

fn type_from_tag(tag: u8) -> Option<DataType> {
    Some(match tag {
        0 => DataType::Int32,
        1 => DataType::Int64,
        2 => DataType::Float64,
        3 => DataType::Str,
        _ => return None,
    })
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn zone_flags(has_null: bool, has_value: bool) -> u8 {
    (has_null as u8) | ((has_value as u8) << 1)
}

/// The one bounds-checked little-endian reader behind every binary
/// decoder: checkpoint blobs here, WAL records and the manifest in
/// `pdsm-store`. A forward-only cursor; a `take` past the end is an error
/// and leaves the cursor where it was.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at `pos`.
    pub fn new(buf: &'a [u8], pos: usize) -> Self {
        ByteReader { buf, pos }
    }

    /// Bytes consumed so far, counted from the start of the buffer.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("unexpected end of blob"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        self.str_ref().map(str::to_owned)
    }

    /// A `u32`-length-prefixed UTF-8 string, borrowed where it lies.
    pub fn str_ref(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| corrupt("non-UTF-8 string"))
    }
}

/// One persisted dictionary (`u32` count, then each string in code order),
/// codes assigned by position. A first pass over the length prefixes
/// sizes the arena; the second checks each string as UTF-8 where it lies
/// (each alone: two invalid halves can join into a valid character) and
/// appends it, so loading allocates three blocks, not one per string.
fn read_dictionary(r: &mut ByteReader<'_>) -> Result<Dictionary> {
    let n = r.u32()? as usize;
    let mut sizing = ByteReader::new(r.buf, r.pos);
    let mut bytes = 0usize;
    for _ in 0..n {
        let len = sizing.u32()? as usize;
        sizing.take(len)?;
        bytes += len;
    }
    let mut d = Dictionary::with_capacity(n, bytes);
    for code in 0..n {
        if d.intern(r.str_ref()?) as usize != code {
            return Err(corrupt("duplicate dictionary string"));
        }
    }
    Ok(d)
}

fn corrupt(why: &str) -> Error {
    Error::Io(format!("corrupt table blob: {why}"))
}

fn read_zone_blocks<T: Copy>(
    r: &mut ByteReader<'_>,
    n_blocks: usize,
    make: impl Fn([u8; 8], [u8; 8]) -> ZoneBlock<T>,
) -> Result<Vec<ZoneBlock<T>>> {
    let n = r.u32()? as usize;
    if n != n_blocks {
        return Err(corrupt("zone block count does not match row count"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let min: [u8; 8] = r.take(8)?.try_into().unwrap();
        let max: [u8; 8] = r.take(8)?.try_into().unwrap();
        let flags = r.u8()?;
        if flags & !0b11 != 0 {
            return Err(corrupt("bad zone flags"));
        }
        let mut b = make(min, max);
        b.has_null = flags & 1 != 0;
        b.has_value = flags & 2 != 0;
        out.push(b);
    }
    Ok(out)
}

/// Default extent size. 64 Ki rows = 64 zone blocks per extent.
pub const DEFAULT_EXTENT_ROWS: usize = 65_536;

/// Extent size knob: `PDSM_EXTENT_ROWS`, rounded up to a whole number of
/// zone blocks (min one block of 1024 rows).
pub fn extent_rows_from_env() -> usize {
    match std::env::var("PDSM_EXTENT_ROWS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) => n.max(1).div_ceil(ZONE_BLOCK_ROWS) * ZONE_BLOCK_ROWS,
        None => DEFAULT_EXTENT_ROWS,
    }
}

/// Parsed v5 header: everything needed to locate, decode, and validate
/// extents without materializing any row data.
#[derive(Debug, Clone)]
pub struct TableHeader {
    pub name: String,
    pub schema: Schema,
    pub layout: Layout,
    /// Shared by every table decoded from this header.
    pub dicts: Arc<Vec<Option<Dictionary>>>,
    /// Per column: the stored code width of a `Str` column, 0 otherwise.
    code_widths: Vec<usize>,
    pub zones: Option<ZoneMap>,
    pub len: usize,
    pub extent_rows: usize,
    pub generation: u64,
    /// `[extent][group] ->` CRC-32 of the extent's arena slice followed
    /// by its validity words.
    crcs: Vec<Vec<u32>>,
    /// Per-group arena stride in bytes (derived from schema, layout and
    /// code widths).
    pub strides: Vec<usize>,
    /// Per-group, per-slot: does this slot carry a validity bitmap?
    pub slot_validity: Vec<Vec<bool>>,
    /// Total header length in bytes (the first arena run starts here).
    pub header_len: usize,
    /// Where the blob's runs lie.
    runs: Runs,
}

/// The blob offsets of each group's arena run and validity run, and the
/// blob's length. Derived from the geometry alone, so the header stores
/// none of them.
#[derive(Debug, Clone)]
struct Runs {
    arena_at: Vec<u64>,
    validity_at: Vec<u64>,
    end: u64,
}

impl Runs {
    /// The runs of `rows` rows of groups with `strides` and `nullable`
    /// slots each, after a header of `header_len` bytes; `None` when a
    /// length overflows.
    fn place(
        header_len: usize,
        rows: usize,
        strides: &[usize],
        nullable: &[usize],
    ) -> Option<Runs> {
        let mut at = header_len as u64;
        let mut arena_at = Vec::with_capacity(strides.len());
        for stride in strides {
            at = at.checked_next_multiple_of(RUN_ALIGN as u64)?;
            arena_at.push(at);
            at = at.checked_add(u64::try_from(rows.checked_mul(*stride)?).ok()?)?;
        }
        let words = rows.div_ceil(64) as u64 * 8;
        let mut validity_at = Vec::with_capacity(strides.len());
        for &n in nullable {
            validity_at.push(at);
            at = at.checked_add(words.checked_mul(n as u64)?)?;
        }
        Some(Runs {
            arena_at,
            validity_at,
            end: at,
        })
    }
}

impl TableHeader {
    pub fn n_extents(&self) -> usize {
        self.len.div_ceil(self.extent_rows)
    }

    pub fn n_groups(&self) -> usize {
        self.strides.len()
    }

    /// Row range `[lo, hi)` covered by extent `e`.
    pub fn extent_row_range(&self, e: usize) -> (usize, usize) {
        let lo = e * self.extent_rows;
        (lo, ((e + 1) * self.extent_rows).min(self.len))
    }

    /// Nullable slots of group `g`: the validity bitmaps it carries.
    fn nullable(&self, g: usize) -> usize {
        self.slot_validity[g].iter().filter(|&&has| has).count()
    }

    /// Where rows `lo..hi` of group `g` lie in the blob: `(offset,
    /// length)` of their arena bytes and of their validity words. `lo` is
    /// an extent's first row, so both are contiguous.
    fn slices(&self, g: usize, lo: usize, hi: usize) -> [(u64, usize); 2] {
        let (stride, nullable) = (self.strides[g], self.nullable(g));
        let words = |rows: usize| nullable * rows.div_ceil(64) * 8;
        [
            (
                self.runs.arena_at[g] + (lo * stride) as u64,
                (hi - lo) * stride,
            ),
            (
                self.runs.validity_at[g] + words(lo) as u64,
                words(hi) - words(lo),
            ),
        ]
    }

    /// Where extent `e`'s slice of group `g` lies in the blob: `(offset,
    /// length)` of its arena bytes and of its validity words.
    pub fn extent_slices(&self, e: usize, g: usize) -> [(u64, usize); 2] {
        let (lo, hi) = self.extent_row_range(e);
        self.slices(g, lo, hi)
    }

    /// Decoded in-memory size of extent `e`, every layout group's arena
    /// slice and validity words — what a fault reads, and what the buffer
    /// pool charges against its budget for a resident frame.
    pub fn extent_bytes(&self, e: usize) -> usize {
        (0..self.n_groups())
            .flat_map(|g| self.extent_slices(e, g))
            .map(|(_, len)| len)
            .sum()
    }

    /// A zero-row table under this header's name, schema, layout and
    /// dictionaries — a cold main's skeleton, and what extent decoding and
    /// reassembly restore partitions into.
    pub fn skeleton(&self) -> Result<Table> {
        let mut t =
            Table::with_layout(self.name.clone(), self.schema.clone(), self.layout.clone())?;
        t.restore_dicts(Arc::clone(&self.dicts), &self.code_widths);
        Ok(t)
    }

    /// Verify extents `es` of group `g` against their directory CRCs —
    /// `arena` holds their arena bytes and `validity` their validity
    /// words, each from extent `es.start` on — and gather the group's
    /// validity bitmaps over their rows.
    fn check_group(
        &self,
        g: usize,
        es: Range<usize>,
        mut arena: &[u8],
        mut validity: &[u8],
    ) -> Result<Vec<Option<Bitmap>>> {
        let first = es.start * self.extent_rows;
        let rows = (es.end * self.extent_rows).min(self.len) - first;
        let mut words: Vec<Option<Vec<u64>>> = (self.slot_validity[g].iter())
            .map(|&has| has.then(|| Vec::with_capacity(rows.div_ceil(64))))
            .collect();
        for e in es {
            let [(_, arena_len), (_, validity_len)] = self.extent_slices(e, g);
            let (a, rest) = arena.split_at(arena_len);
            arena = rest;
            let (v, rest) = validity.split_at(validity_len);
            validity = rest;
            let mut crc = Crc32::new();
            crc.update(a);
            crc.update(v);
            if crc.finish() != self.crcs[e][g] {
                return Err(corrupt("extent checksum mismatch"));
            }
            let (lo, hi) = self.extent_row_range(e);
            let per_slot = (hi - lo).div_ceil(64) * 8;
            for (acc, slot) in words.iter_mut().flatten().zip(v.chunks_exact(per_slot)) {
                acc.extend(
                    (slot.chunks_exact(8)).map(|w| u64::from_le_bytes(w.try_into().unwrap())),
                );
            }
        }
        debug_assert!(arena.is_empty() && validity.is_empty());
        Ok(words
            .into_iter()
            .map(|w| w.map(|w| Bitmap::from_words(w, rows)))
            .collect())
    }

    /// A table of `rows` rows under this header, from each group's arena
    /// and validity bitmaps, with `zones` installed.
    fn build(
        &self,
        rows: usize,
        groups: Vec<(Arena, Vec<Option<Bitmap>>)>,
        zones: Option<ZoneMap>,
    ) -> Result<Table> {
        let mut t = self.skeleton()?;
        for (p, (arena, validity)) in t.partitions_mut().iter_mut().zip(groups) {
            p.restore(arena, rows, validity);
        }
        t.restore_len(rows);
        if let Some(z) = zones {
            t.install_zones(z);
        }
        Ok(t)
    }
}

/// Serialize `table` as a generation-stamped checkpoint blob with
/// `extent_rows` rows per extent: [`write_extents`] into a `Vec`.
pub fn to_bytes_extents(table: &Table, generation: u64, extent_rows: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    write_extents(table, generation, extent_rows, &mut buf).expect("a Vec takes every write");
    buf
}

/// The validity words of rows `lo..hi` of partition `p` (`lo` an
/// extent's first row), each nullable slot's in slot order, put into
/// `words` as bytes.
fn validity_words(p: &Partition, lo: usize, hi: usize, words: &mut Vec<u8>) {
    words.clear();
    for bm in (0..p.cols().len()).filter_map(|slot| p.validity(slot)) {
        for w in &bm.words()[lo / 64..hi.div_ceil(64)] {
            words.extend_from_slice(&w.to_le_bytes());
        }
    }
}

/// Seal `table` for a blob of `extent_rows`-row extents in one walk: zone
/// block by zone block of each extent's slice of each layout group, the
/// block's numeric fields are folded into the zone map (unless the table
/// has one cached) and its bytes fed to the extent's CRC while they are in
/// cache. Returns the zone map, now the table's, and the directory of
/// CRCs, extent-major.
fn seal(table: &Table, extent_rows: usize) -> (Arc<ZoneMap>, Vec<u32>) {
    let len = table.len();
    let mut fold = table.cached_zones().is_none().then(|| ZoneFold::new(table));
    let mut crcs = Vec::with_capacity(len.div_ceil(extent_rows) * table.partitions().len());
    let mut words = Vec::new();
    for lo in (0..len).step_by(extent_rows) {
        let hi = (lo + extent_rows).min(len);
        for p in table.partitions() {
            let mut crc = Crc32::new();
            for b in (lo..hi).step_by(ZONE_BLOCK_ROWS) {
                let end = (b + ZONE_BLOCK_ROWS).min(hi);
                if let Some(fold) = &mut fold {
                    fold.block(p, b, end);
                }
                crc.update(&p.raw_bytes()[b * p.stride()..end * p.stride()]);
            }
            validity_words(p, lo, hi, &mut words);
            crc.update(&words);
            crcs.push(crc.finish());
        }
    }
    if let Some(fold) = fold {
        table.install_zones(fold.finish());
    }
    (Arc::clone(table.zone_map()), crcs)
}

/// Stream `table` as a generation-stamped checkpoint blob with
/// `extent_rows` rows per extent into `out`: the table is sealed (zone map
/// and CRC directory, see `seal`) into the header, then the header and
/// each run are written straight from the arenas and bitmaps. Nothing but
/// the header and one extent's validity words is buffered.
pub fn write_extents(
    table: &Table,
    generation: u64,
    extent_rows: usize,
    out: &mut impl Write,
) -> io::Result<()> {
    assert!(
        extent_rows > 0 && extent_rows.is_multiple_of(ZONE_BLOCK_ROWS),
        "extent_rows must be a positive multiple of ZONE_BLOCK_ROWS"
    );
    let len = table.len();
    let n_extents = len.div_ceil(extent_rows);
    let (zones, crcs) = seal(table, extent_rows);

    let mut head = Vec::with_capacity(RUN_ALIGN);
    head.extend_from_slice(MAGIC);
    head.extend_from_slice(&VERSION.to_le_bytes());
    head.extend_from_slice(&0u32.to_le_bytes()); // header_len, patched below
    head.extend_from_slice(&generation.to_le_bytes());
    put_str(&mut head, table.name());
    let cols = table.schema().columns();
    head.extend_from_slice(&(cols.len() as u32).to_le_bytes());
    for c in cols {
        put_str(&mut head, &c.name);
        head.push(type_tag(c.ty));
        head.push(c.nullable as u8);
    }
    let groups = table.layout().groups();
    head.extend_from_slice(&(groups.len() as u32).to_le_bytes());
    for g in groups {
        head.extend_from_slice(&(g.len() as u32).to_le_bytes());
        for &c in g {
            head.extend_from_slice(&(c as u32).to_le_bytes());
        }
    }
    for (c, _) in cols.iter().enumerate() {
        match table.dicts()[c].as_ref() {
            None => head.push(0),
            Some(d) => {
                head.push(1);
                head.push(table.code_width(c) as u8);
                head.extend_from_slice(&(d.len() as u32).to_le_bytes());
                for (_, s) in d.iter() {
                    put_str(&mut head, s);
                }
            }
        }
    }
    head.extend_from_slice(&(len as u64).to_le_bytes());
    for zone in zones.cols() {
        match zone {
            ColZone::Skipped => head.push(0),
            ColZone::Int(blocks) => {
                head.push(1);
                head.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
                for b in blocks {
                    head.extend_from_slice(&b.min.to_le_bytes());
                    head.extend_from_slice(&b.max.to_le_bytes());
                    head.push(zone_flags(b.has_null, b.has_value));
                }
            }
            ColZone::Float(blocks) => {
                head.push(2);
                head.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
                for b in blocks {
                    head.extend_from_slice(&b.min.to_bits().to_le_bytes());
                    head.extend_from_slice(&b.max.to_bits().to_le_bytes());
                    head.push(zone_flags(b.has_null, b.has_value));
                }
            }
        }
    }
    head.extend_from_slice(&(extent_rows as u32).to_le_bytes());
    head.extend_from_slice(&(n_extents as u32).to_le_bytes());
    for crc in crcs {
        head.extend_from_slice(&crc.to_le_bytes());
    }
    let header_len = (head.len() + 4).next_multiple_of(RUN_ALIGN);
    head.resize(header_len - 4, 0);
    head[12..16].copy_from_slice(&(header_len as u32).to_le_bytes());
    let crc = crc32(&head);
    head.extend_from_slice(&crc.to_le_bytes());
    out.write_all(&head)?;

    let mut at = header_len;
    for p in table.partitions() {
        let pad = at.next_multiple_of(RUN_ALIGN) - at;
        out.write_all(&[0; RUN_ALIGN][..pad])?;
        out.write_all(p.raw_bytes())?;
        at += pad + p.byte_size();
    }
    let mut words = Vec::new();
    for p in table.partitions() {
        for lo in (0..len).step_by(extent_rows) {
            validity_words(p, lo, (lo + extent_rows).min(len), &mut words);
            out.write_all(&words)?;
        }
    }
    Ok(())
}

/// Parse a v5 header from a prefix of the blob (at least `header_len`
/// bytes). The header carries its own CRC, so a caller holding only the
/// file's head can validate it without reading any run.
pub fn read_header(bytes: &[u8]) -> Result<TableHeader> {
    if bytes.len() < 16 || &bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(corrupt("unsupported format version"));
    }
    let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    if header_len < 20 || header_len > bytes.len() || !header_len.is_multiple_of(RUN_ALIGN) {
        return Err(corrupt("bad header length"));
    }
    let (body, crc_bytes) = bytes[..header_len].split_at(header_len - 4);
    let want = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != want {
        return Err(corrupt("header checksum mismatch"));
    }
    let mut r = ByteReader::new(body, 16);
    let generation = r.u64()?;
    let name = r.str()?;
    let ncols = r.u32()? as usize;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let cname = r.str()?;
        let ty = type_from_tag(r.u8()?).ok_or_else(|| corrupt("bad type tag"))?;
        let nullable = r.u8()? != 0;
        cols.push(if nullable {
            ColumnDef::nullable(cname, ty)
        } else {
            ColumnDef::new(cname, ty)
        });
    }
    let schema = Schema::new(cols);
    let ngroups = r.u32()? as usize;
    let mut groups = Vec::with_capacity(ngroups);
    for _ in 0..ngroups {
        let glen = r.u32()? as usize;
        let mut g = Vec::with_capacity(glen);
        for _ in 0..glen {
            g.push(r.u32()? as usize);
        }
        groups.push(g);
    }
    let layout = Layout::from_groups(groups, ncols)?;
    let mut dicts = Vec::with_capacity(ncols);
    let mut code_widths = vec![0; ncols];
    for (c, width) in code_widths.iter_mut().enumerate() {
        let has = r.u8()? != 0;
        if has != (schema.columns()[c].ty == DataType::Str) {
            return Err(corrupt("dictionary presence does not match schema"));
        }
        if !has {
            dicts.push(None);
            continue;
        }
        *width = r.u8()? as usize;
        if ![1, 2, 4].contains(width) {
            return Err(corrupt("bad code width"));
        }
        let dict = read_dictionary(&mut r)?;
        if *width < code_width(dict.len()) {
            return Err(corrupt("code width too narrow for its dictionary"));
        }
        dicts.push(Some(dict));
    }
    let dicts = Arc::new(dicts);
    let len = r.u64()? as usize;
    let n_blocks = len.div_ceil(ZONE_BLOCK_ROWS);
    let mut zone_cols = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let tag = r.u8()?;
        let want = match schema.columns()[c].ty {
            DataType::Int32 | DataType::Int64 => 1,
            DataType::Float64 => 2,
            DataType::Str => 0,
        };
        if tag != want {
            return Err(corrupt("zone tag does not match column type"));
        }
        zone_cols.push(match tag {
            0 => ColZone::Skipped,
            1 => ColZone::Int(read_zone_blocks(&mut r, n_blocks, |min, max| ZoneBlock {
                min: i64::from_le_bytes(min),
                max: i64::from_le_bytes(max),
                has_null: false,
                has_value: false,
            })?),
            _ => ColZone::Float(read_zone_blocks(&mut r, n_blocks, |min, max| ZoneBlock {
                min: f64::from_bits(u64::from_le_bytes(min)),
                max: f64::from_bits(u64::from_le_bytes(max)),
                has_null: false,
                has_value: false,
            })?),
        });
    }
    let zones = Some(ZoneMap::from_parts(len, zone_cols));
    let extent_rows = r.u32()? as usize;
    if extent_rows == 0 || !extent_rows.is_multiple_of(ZONE_BLOCK_ROWS) {
        return Err(corrupt("bad extent size"));
    }
    let n_extents = r.u32()? as usize;
    if n_extents != len.div_ceil(extent_rows) {
        return Err(corrupt("extent count does not match row count"));
    }
    let dir = r.take(n_extents.saturating_mul(ngroups).saturating_mul(4))?;
    let crcs = (dir.chunks_exact(4 * ngroups.max(1)))
        .map(|e| {
            (e.chunks_exact(4))
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect()
        })
        .collect();
    if body[r.pos..].iter().any(|&b| b != 0) {
        return Err(corrupt("trailing header bytes"));
    }
    let mut skeleton = Table::with_layout(name.clone(), schema.clone(), layout.clone())?;
    skeleton.restore_dicts(Arc::clone(&dicts), &code_widths);
    let strides: Vec<usize> = skeleton.partitions().iter().map(|p| p.stride()).collect();
    let slot_validity: Vec<Vec<bool>> = (skeleton.partitions().iter())
        .map(|p| {
            (0..p.cols().len())
                .map(|s| p.validity(s).is_some())
                .collect()
        })
        .collect();
    let nullable: Vec<usize> = (slot_validity.iter())
        .map(|slots| slots.iter().filter(|&&has| has).count())
        .collect();
    let runs = Runs::place(header_len, len, &strides, &nullable)
        .ok_or_else(|| corrupt("row count exceeds the blob"))?;
    Ok(TableHeader {
        name,
        schema,
        layout,
        dicts,
        code_widths,
        zones,
        len,
        extent_rows,
        generation,
        crcs,
        strides,
        slot_validity,
        header_len,
        runs,
    })
}

/// Where a blob's bytes come from: positioned reads of exact lengths,
/// from a blob in memory (`[u8]`) or a file on disk (`File`).
pub trait BlobSource {
    /// The blob's length in bytes.
    fn blob_len(&self) -> Result<u64>;

    /// Fill `buf` from the blob's bytes starting at offset `at`. A read
    /// reaching past the end is an error, never a partial fill.
    fn read_at(&self, buf: &mut [u8], at: u64) -> Result<()>;
}

/// The blob's bytes `at..at + len`, read into memory.
fn read_pages<S: BlobSource + ?Sized>(src: &S, at: u64, len: usize) -> Result<Pages> {
    let mut buf = vec![0; len];
    src.read_at(&mut buf, at)?;
    Ok(Pages::heap(at, buf))
}

impl BlobSource for [u8] {
    fn blob_len(&self) -> Result<u64> {
        Ok(self.len() as u64)
    }

    fn read_at(&self, buf: &mut [u8], at: u64) -> Result<()> {
        let from = (usize::try_from(at).ok())
            .and_then(|at| self.get(at..at.checked_add(buf.len())?))
            .ok_or_else(|| corrupt("read out of range"))?;
        buf.copy_from_slice(from);
        Ok(())
    }
}

impl BlobSource for File {
    fn blob_len(&self) -> Result<u64> {
        self.metadata().map(|m| m.len()).map_err(read_failed)
    }

    fn read_at(&self, buf: &mut [u8], at: u64) -> Result<()> {
        self.read_exact_at(buf, at).map_err(read_failed)
    }
}

fn read_failed(e: io::Error) -> Error {
    Error::Io(format!("table blob read: {e}"))
}

/// Read and parse the header at the start of `src` (see [`read_header`])
/// without touching a run. Its claimed length must fit in the blob before
/// it is read.
pub fn read_header_from<S: BlobSource + ?Sized>(src: &S) -> Result<TableHeader> {
    let mut prefix = [0u8; 16];
    src.read_at(&mut prefix, 0)?;
    let header_len = u32::from_le_bytes(prefix[12..16].try_into().unwrap()) as u64;
    if header_len > src.blob_len()? {
        return Err(corrupt("bad header length"));
    }
    let mut head = vec![0u8; (header_len as usize).max(prefix.len())];
    src.read_at(&mut head, 0)?;
    read_header(&head)
}

/// Decode extent `e` of the blob `src` into a self-contained mini
/// [`Table`] holding exactly the extent's rows: each group's arena slice
/// and validity words read by positioned reads from their runs into the
/// mini table's own arenas, and checked against the directory CRC there.
/// The header's dictionaries are shared and the extent's slice of the
/// zone map is installed, so engines scan it exactly as they would the
/// corresponding rows of the resident table.
pub fn decode_extent<S: BlobSource + ?Sized>(h: &TableHeader, e: usize, src: &S) -> Result<Table> {
    // A slice larger than the whole blob is damage, not an allocation.
    if h.extent_bytes(e) as u64 > src.blob_len()? {
        return Err(corrupt("row count exceeds the blob"));
    }
    let (lo, hi) = h.extent_row_range(e);
    let groups = (0..h.n_groups())
        .map(|g| {
            let [(arena_at, arena_len), (words_at, words_len)] = h.extent_slices(e, g);
            let mut arena = vec![0; arena_len];
            src.read_at(&mut arena, arena_at)?;
            let mut words = vec![0; words_len];
            src.read_at(&mut words, words_at)?;
            let validity = h.check_group(g, e..e + 1, &arena, &words)?;
            Ok((Arena::Owned(arena), validity))
        })
        .collect::<Result<_>>()?;
    h.build(
        hi - lo,
        groups,
        h.zones.as_ref().map(|z| z.slice_rows(lo, hi)),
    )
}

/// Reassemble the full resident [`Table`] from its decoded extents, in
/// extent order: the concatenated extent slices are the checkpointed
/// table's arenas and bitmaps, bit for bit. Each extent is read once and
/// may be dropped as soon as the next one is asked for.
pub fn assemble_table<T: Borrow<Table>>(
    h: &TableHeader,
    extents: impl IntoIterator<Item = Result<T>>,
) -> Result<Table> {
    // Sized from the header alone (its CRC vouches for the row count):
    // decoded extents share no one buffer to bound it by.
    let mut arenas: Vec<Vec<u8>> = (h.strides.iter())
        .map(|s| Vec::with_capacity(h.len * s))
        .collect();
    let mut words: Vec<Vec<Option<Vec<u64>>>> = (h.slot_validity.iter())
        .map(|slots| {
            (slots.iter())
                .map(|&has| has.then(|| Vec::with_capacity(h.len.div_ceil(64))))
                .collect()
        })
        .collect();
    let mut rows = 0;
    for extent in extents {
        let extent = extent?;
        let extent = extent.borrow();
        for (g, p) in extent.partitions().iter().enumerate() {
            arenas[g].extend_from_slice(p.raw_bytes());
            for (slot, acc) in words[g].iter_mut().enumerate() {
                if let (Some(acc), Some(bm)) = (acc, p.validity(slot)) {
                    acc.extend_from_slice(bm.words());
                }
            }
        }
        rows += extent.len();
    }
    if rows != h.len {
        return Err(corrupt("extents do not cover the table"));
    }
    let groups = (arenas.into_iter().zip(words))
        .map(|(arena, words)| {
            let validity = (words.into_iter())
                .map(|w| w.map(|w| Bitmap::from_words(w, rows)))
                .collect();
            (Arena::Owned(arena), validity)
        })
        .collect();
    h.build(rows, groups, h.zones.clone())
}

/// Load the whole table under header `h` from the blob `src`: the span
/// of its arena runs becomes shared pages (`pages(at, len)`) that each
/// partition's arena is a range of, the validity runs are read, and every
/// extent's CRC is checked before the table is handed out. The blob must
/// end where its last run does, and the padding between arena runs must
/// be zero.
fn load<S: BlobSource + ?Sized>(
    h: &TableHeader,
    src: &S,
    pages: impl FnOnce(u64, usize) -> Result<Pages>,
) -> Result<Table> {
    let len = src.blob_len()?;
    if len < h.runs.end {
        return Err(corrupt("row count exceeds the blob"));
    }
    if len > h.runs.end {
        return Err(corrupt("trailing bytes"));
    }
    let ends: Vec<u64> = (0..h.n_groups())
        .map(|g| h.runs.arena_at[g] + (h.len * h.strides[g]) as u64)
        .collect();
    let first = h.runs.arena_at[0];
    let last = *ends.last().expect("a layout has a group");
    let pages = Arc::new(pages(first, (last - first) as usize)?);
    for (g, &at) in h.runs.arena_at.iter().enumerate().skip(1) {
        let pad = pages.get(ends[g - 1], (at - ends[g - 1]) as usize);
        if pad.is_none_or(|pad| pad.iter().any(|&b| b != 0)) {
            return Err(corrupt("nonzero padding between arena runs"));
        }
    }
    let groups = (0..h.n_groups())
        .map(|g| {
            let [(arena_at, arena_len), (words_at, words_len)] = h.slices(g, 0, h.len);
            let arena = Arena::shared(&pages, arena_at, arena_len)
                .ok_or_else(|| corrupt("arena run out of range"))?;
            let mut words = vec![0; words_len];
            src.read_at(&mut words, words_at)?;
            let validity = h.check_group(g, 0..h.n_extents(), &arena, &words)?;
            Ok((arena, validity))
        })
        .collect::<Result<_>>()?;
    h.build(h.len, groups, h.zones.clone())
}

/// Deserialize a whole checkpoint blob in memory back into `(table,
/// generation)`: the loader of [`read_file`] over the arena runs copied
/// into one shared buffer. Any framing, checksum, version or invariant
/// violation is a hard [`Error::Io`].
pub fn from_bytes(bytes: &[u8]) -> Result<(Table, u64)> {
    let h = read_header(bytes)?;
    let table = load(&h, bytes, |at, len| read_pages(bytes, at, len))?;
    Ok((table, h.generation))
}

/// [`from_bytes`] of a checkpoint file: its arena runs mapped read-only
/// and every extent's CRC checked at open, so the returned table's arenas
/// are the file's pages until a write copies one out. The caller must not
/// rewrite or truncate the file in place while the table lives.
pub fn read_file(file: &File) -> Result<(Table, u64)> {
    let h = read_header_from(file)?;
    let map = |at, len| Pages::map(file, at, len).map_or_else(|| read_pages(file, at, len), Ok);
    Ok((load(&h, file, map)?, h.generation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn demo_rows(layout: Layout, n: i32) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int32),
            ColumnDef::new("name", DataType::Str),
            ColumnDef::nullable("price", DataType::Float64),
            ColumnDef::new("qty", DataType::Int64),
        ]);
        let mut t = Table::with_layout("demo", schema, layout).unwrap();
        for i in 0..n {
            t.insert(&[
                Value::Int32(i),
                Value::Str(format!("item-{}", i % 9)),
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Float64(i as f64 * 0.5)
                },
                Value::Int64(i as i64 * 3),
            ])
            .unwrap();
        }
        t
    }

    fn layouts() -> [Layout; 3] {
        [
            Layout::row(4),
            Layout::column(4),
            Layout::from_groups(vec![vec![0, 3], vec![1], vec![2]], 4).unwrap(),
        ]
    }

    /// `back` is `t`, bit for bit: geometry, arenas, validity, dictionary
    /// codes, decoded rows and zone map.
    fn assert_bit_identical(t: &Table, back: &Table) {
        assert_eq!(back.name(), t.name());
        assert_eq!(back.layout(), t.layout());
        assert_eq!(back.len(), t.len());
        for (a, b) in t.partitions().iter().zip(back.partitions()) {
            assert_eq!(a.raw_bytes(), b.raw_bytes());
            for slot in 0..a.cols().len() {
                assert_eq!(
                    a.validity(slot).map(|bm| bm.words()),
                    b.validity(slot).map(|bm| bm.words())
                );
            }
        }
        for r in 0..t.len() {
            assert_eq!(t.str_code_reader(1).get(r), back.str_code_reader(1).get(r));
            assert_eq!(t.row(r).unwrap(), back.row(r).unwrap());
        }
        assert_eq!(**back.zone_map(), **t.zone_map());
    }

    #[test]
    fn round_trip_is_bit_exact_across_layouts() {
        for layout in layouts() {
            // 3000 rows at 1024-row extents = two full extents + a partial.
            let t = demo_rows(layout, 3000);
            let blob = to_bytes_extents(&t, 11, ZONE_BLOCK_ROWS);
            let (back, generation) = from_bytes(&blob).unwrap();
            assert_eq!(generation, 11);
            assert_bit_identical(&t, &back);
            // A load / re-save cycle reproduces the blob.
            assert_eq!(to_bytes_extents(&back, 11, ZONE_BLOCK_ROWS), blob);
        }
    }

    #[test]
    fn zone_map_travels_with_the_blob() {
        let t = demo_rows(Layout::column(4), 100);
        let warmed = t.zone_map().clone();
        let blob = to_bytes_extents(&t, 3, ZONE_BLOCK_ROWS);
        // The header alone answers pruning questions, no payload read …
        let h = read_header(&blob).unwrap();
        assert_eq!(h.zones.as_ref(), Some(&*warmed));
        // … and the reloaded table's installed map equals the one
        // computed from the data, without a rebuild pass.
        let (back, _) = from_bytes(&blob).unwrap();
        assert_eq!(**back.zone_map(), *warmed);
    }

    #[test]
    fn extent_tables_cover_the_rows_exactly() {
        let t = demo_rows(
            Layout::from_groups(vec![vec![0, 2], vec![1, 3]], 4).unwrap(),
            2500,
        );
        let blob = to_bytes_extents(&t, 5, ZONE_BLOCK_ROWS);
        let h = read_header(&blob).unwrap();
        assert_eq!(h.n_extents(), 3);
        assert_eq!(h.len, 2500);
        let mut seen = 0usize;
        for e in 0..h.n_extents() {
            let mini = decode_extent(&h, e, &blob[..]).unwrap();
            let (lo, hi) = h.extent_row_range(e);
            assert_eq!(mini.len(), hi - lo);
            for r in 0..mini.len() {
                assert_eq!(mini.row(r).unwrap(), t.row(lo + r).unwrap());
            }
            // The charge is the decoded arenas plus validity words.
            let words: usize = (mini.partitions().iter())
                .flat_map(|p| (0..p.cols().len()).filter_map(|s| p.validity(s)))
                .map(|bm| bm.words().len() * 8)
                .sum();
            assert_eq!(h.extent_bytes(e), mini.byte_size() + words);
            assert!(std::ptr::eq(
                mini.dict(1).unwrap(),
                h.dicts[1].as_ref().unwrap()
            ));
            assert_eq!(
                **mini.zone_map(),
                h.zones.as_ref().unwrap().slice_rows(lo, hi)
            );
            // A blob that stops short of the extent's last slice is refused.
            let end = (0..h.n_groups())
                .flat_map(|g| h.extent_slices(e, g))
                .map(|(at, len)| at as usize + len)
                .max()
                .unwrap();
            assert!(decode_extent(&h, e, &blob[..end - 1]).is_err());
            seen += mini.len();
        }
        assert_eq!(seen, t.len());
    }

    #[test]
    fn empty_table_round_trips() {
        let schema = Schema::new(vec![ColumnDef::nullable("x", DataType::Int32)]);
        let t = Table::with_layout("empty", schema, Layout::column(1)).unwrap();
        let blob = to_bytes_extents(&t, 2, ZONE_BLOCK_ROWS);
        let (back, generation) = from_bytes(&blob).unwrap();
        assert_eq!(generation, 2);
        assert!(back.is_empty());
        let h = read_header(&blob).unwrap();
        assert_eq!(h.n_extents(), 0);
    }

    #[test]
    fn any_bit_flip_is_rejected() {
        let t = demo_rows(Layout::row(4), 1500);
        let bytes = to_bytes_extents(&t, 1, ZONE_BLOCK_ROWS);
        // Sample a spread of positions (every 97th byte) to keep it fast.
        for pos in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            assert!(from_bytes(&bad).is_err(), "flip at {pos} accepted");
        }
        // Truncations are rejected too.
        for cut in [0, 4, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    /// Older formats are refused by version, not misparsed: a blob that is
    /// well-formed in every other respect — correct CRC included — but
    /// stamped version 1, 2, 3 (the extent format, whose payloads sat
    /// extent by extent), 4 (four-byte codes in padded fragments) or a
    /// future 6 must not load.
    #[test]
    fn older_format_versions_are_refused() {
        let t = demo_rows(Layout::row(4), 100);
        let blob = to_bytes_extents(&t, 9, ZONE_BLOCK_ROWS);
        let header_len = read_header(&blob).unwrap().header_len;
        for version in [1u32, 2, 3, 4, 6] {
            let mut old = blob.clone();
            old[8..12].copy_from_slice(&version.to_le_bytes());
            let crc = crc32(&old[..header_len - 4]);
            old[header_len - 4..header_len].copy_from_slice(&crc.to_le_bytes());
            for err in [
                from_bytes(&old).unwrap_err(),
                read_header(&old).unwrap_err(),
            ] {
                assert!(
                    err.to_string().contains("unsupported format version"),
                    "version {version}: {err}"
                );
            }
        }
    }

    /// A small table with two dictionaries (an empty string, repeats, a
    /// NULL and multi-byte UTF-8 among their entries), its blob pinned:
    /// how a dictionary is held in memory must not move a byte of the
    /// format, nor the code any string is given.
    #[test]
    fn a_two_dictionary_blob_is_pinned() {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int32),
            ColumnDef::new("city", DataType::Str),
            ColumnDef::nullable("note", DataType::Str),
        ]);
        let layout = Layout::from_groups(vec![vec![0, 2], vec![1]], 3).unwrap();
        let mut t = Table::with_layout("pinned", schema, layout).unwrap();
        let rows = [
            ("Zürich", Some("")),
            ("Köln", None),
            ("", Some("naïve")),
            ("Zürich", Some("日本")),
            ("Köln", Some("")),
        ];
        for (k, (city, note)) in rows.into_iter().enumerate() {
            t.insert(&[
                Value::Int32(k as i32),
                Value::from(city),
                note.map_or(Value::Null, Value::from),
            ])
            .unwrap();
        }
        let blob = to_bytes_extents(&t, 7, ZONE_BLOCK_ROWS);
        assert_eq!((blob.len(), crc32(&blob)), (8205, 0xe6ec_25f7));
    }

    /// A header claiming one-byte codes for a 300-string dictionary is
    /// refused at open, by both loaders and before any run is read; so is
    /// a width that is no code width at all.
    #[test]
    fn a_code_width_too_narrow_for_its_dictionary_is_refused() {
        let schema = Schema::new(vec![ColumnDef::new("s", DataType::Str)]);
        let mut t = Table::with_layout("narrow", schema, Layout::column(1)).unwrap();
        for i in 0..300 {
            t.insert(&[Value::Str(format!("s{i}"))]).unwrap();
        }
        assert_eq!(t.code_width(0), 2);
        let blob = to_bytes_extents(&t, 1, ZONE_BLOCK_ROWS);
        // has-dict 1, width 2, 300 strings.
        let at = (blob.windows(6))
            .position(|w| w == [1, 2, 0x2C, 0x01, 0, 0])
            .expect("the dictionary's head");
        for (width, why) in [(1, "too narrow for its dictionary"), (3, "bad code width")] {
            let mut bad = blob.clone();
            bad[at + 1] = width;
            reseal(&mut bad);
            assert!(read_header(&bad).unwrap_err().to_string().contains(why));
            both_refuse("narrow", &bad, [Some(why); 2]);
        }
    }

    /// A blob whose one dictionary, `["xé", "y"]`, has its twelve bytes
    /// (length prefixes included) replaced by `with`; header CRC made good.
    fn recut_dictionary(with: [u8; 12]) -> Vec<u8> {
        let schema = Schema::new(vec![ColumnDef::new("s", DataType::Str)]);
        let mut t = Table::with_layout("recut", schema, Layout::column(1)).unwrap();
        t.insert(&[Value::from("xé")]).unwrap();
        t.insert(&[Value::from("y")]).unwrap();
        let mut blob = to_bytes_extents(&t, 1, ZONE_BLOCK_ROWS);
        let whole = [3, 0, 0, 0, b'x', 0xC3, 0xA9, 1, 0, 0, 0, b'y'];
        let at = (blob.windows(whole.len()))
            .position(|w| w == whole)
            .expect("the dictionary's bytes");
        blob[at..at + with.len()].copy_from_slice(&with);
        let header_len = u32::from_le_bytes(blob[12..16].try_into().unwrap()) as usize;
        let crc = crc32(&blob[..header_len - 4]);
        blob[header_len - 4..header_len].copy_from_slice(&crc.to_le_bytes());
        blob
    }

    #[test]
    fn a_dictionary_string_invalid_alone_or_repeated_is_refused() {
        // `["x\xC3", "\xA9y"]`: each string is invalid UTF-8 although the
        // two together are valid, so a check of the concatenation alone
        // would pass it.
        let split = recut_dictionary([2, 0, 0, 0, b'x', 0xC3, 2, 0, 0, 0, 0xA9, b'y']);
        assert!(std::str::from_utf8(&[b'x', 0xC3, 0xA9, b'y']).is_ok());
        // `["xy", "xy"]`: one string under two codes.
        let repeated = recut_dictionary([2, 0, 0, 0, b'x', b'y', 2, 0, 0, 0, b'x', b'y']);
        for (blob, why) in [(split, "UTF-8"), (repeated, "duplicate")] {
            for err in [
                read_header(&blob).unwrap_err(),
                from_bytes(&blob).unwrap_err(),
            ] {
                assert!(err.to_string().contains(why), "{err}");
            }
        }
    }

    /// `blob` as a file of its own, open for reading.
    fn as_file(tag: &str, blob: &[u8]) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!("pdsm-persist-{tag}-{}", std::process::id()));
        std::fs::write(&path, blob).unwrap();
        let file = File::open(&path).unwrap();
        (path, file)
    }

    /// Both loaders refuse `blob`, each naming `why` when given.
    fn both_refuse(tag: &str, blob: &[u8], why: [Option<&str>; 2]) {
        let (path, file) = as_file(tag, blob);
        let errs = [from_bytes(blob).unwrap_err(), read_file(&file).unwrap_err()];
        let _ = std::fs::remove_file(&path);
        for (err, why) in errs.iter().zip(why) {
            assert!(
                why.is_none_or(|w| err.to_string().contains(w)),
                "{tag}: {err}"
            );
        }
    }

    /// The header's CRC recomputed after an edit of its bytes.
    fn reseal(blob: &mut [u8]) {
        let header_len = u32::from_le_bytes(blob[12..16].try_into().unwrap()) as usize;
        let crc = crc32(&blob[..header_len - 4]);
        blob[header_len - 4..header_len].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn a_file_loads_like_its_bytes() {
        for (i, layout) in layouts().into_iter().enumerate() {
            let t = demo_rows(layout, 3000);
            let blob = to_bytes_extents(&t, 4, ZONE_BLOCK_ROWS);
            let (path, file) = as_file(&format!("load-{i}"), &blob);
            let (back, generation) = read_file(&file).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(generation, 4);
            assert_bit_identical(&t, &back);
            // The file's arena runs are mapped; the in-memory blob's are
            // copied into one shared buffer.
            assert!(back.partitions().iter().all(Partition::is_mapped));
            let (copied, _) = from_bytes(&blob).unwrap();
            assert!(!copied.partitions().iter().any(Partition::is_mapped));
        }
    }

    /// A mapped load, a load from bytes, and the decoded extents of a cold
    /// fault (one by one, and reassembled) reproduce the table bit for
    /// bit: row, column and PDSM layouts, a nullable column, 1 024-row
    /// extents, a partial last extent, a one-row table and a 0-row table.
    #[test]
    fn mapped_bytes_and_fault_loads_are_bit_identical() {
        for (i, layout) in layouts().into_iter().enumerate() {
            for n in [0, 1, 1024, 2500] {
                let t = demo_rows(layout.clone(), n);
                let blob = to_bytes_extents(&t, 3, ZONE_BLOCK_ROWS);
                let h = read_header(&blob).unwrap();
                let (path, file) = as_file(&format!("parity-{i}-{n}"), &blob);
                let (mapped, _) = read_file(&file).unwrap();
                let (copied, _) = from_bytes(&blob).unwrap();
                let extents: Vec<Table> = (0..h.n_extents())
                    .map(|e| decode_extent(&h, e, &file).unwrap())
                    .collect();
                let _ = std::fs::remove_file(&path);
                for (e, mini) in extents.iter().enumerate() {
                    let (lo, hi) = h.extent_row_range(e);
                    let mut rows = t.skeleton();
                    for r in lo..hi {
                        rows.insert(t.row(r).unwrap().values()).unwrap();
                    }
                    assert_bit_identical(&rows, mini);
                }
                let assembled = assemble_table(&h, extents.into_iter().map(Ok)).unwrap();
                for back in [&mapped, &copied, &assembled] {
                    assert_bit_identical(&t, back);
                    assert!(to_bytes_extents(back, 3, ZONE_BLOCK_ROWS) == blob);
                }
            }
        }
    }

    /// A write to a mapped main copies the partition it touches out of
    /// the mapping first: the file's bytes do not move, the other
    /// partitions stay mapped, and the table reads the new value.
    #[test]
    fn a_write_to_a_mapped_main_copies_first() {
        let t = demo_rows(Layout::column(4), 2000);
        let blob = to_bytes_extents(&t, 1, ZONE_BLOCK_ROWS);
        let (path, file) = as_file("write", &blob);
        let (mut back, _) = read_file(&file).unwrap();
        assert!(back.partitions().iter().all(Partition::is_mapped));
        let mapped =
            |t: &Table| -> Vec<bool> { t.partitions().iter().map(Partition::is_mapped).collect() };
        back.update(7, 3, &Value::Int64(-1)).unwrap();
        // A NULL moves a validity bit alone: no arena byte is written.
        back.update(8, 2, &Value::Null).unwrap();
        assert_eq!(mapped(&back), [true, true, true, false]);
        back.insert(t.row(0).unwrap().values()).unwrap();
        assert_eq!(mapped(&back), [false; 4]);
        assert_eq!(back.get(7, 3).unwrap(), Value::Int64(-1));
        assert_eq!(back.get(8, 2).unwrap(), Value::Null);
        assert_eq!(back.row(2000).unwrap(), t.row(0).unwrap());
        assert_eq!(back.get(7, 0).unwrap(), t.get(7, 0).unwrap());
        let on_disk = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(on_disk == blob, "a write reached the checkpoint file");
    }

    /// What `from_bytes` refuses, the file loader refuses too.
    #[test]
    fn the_file_loader_refuses_the_damage_from_bytes_refuses() {
        let t = demo_rows(
            Layout::from_groups(vec![vec![0, 3], vec![1], vec![2]], 4).unwrap(),
            2500,
        );
        let blob = to_bytes_extents(&t, 1, ZONE_BLOCK_ROWS);
        let h = read_header(&blob).unwrap();
        for cut in [10, h.header_len - 1, h.header_len + 5, blob.len() - 1] {
            both_refuse("cut", &blob[..cut], [None, None]);
        }
        for (what, g, slice) in [("arena", 2, 0), ("validity", 2, 1), ("codes", 1, 0)] {
            let mut flipped = blob.clone();
            let (at, len) = h.extent_slices(1, g)[slice];
            flipped[at as usize + len / 2] ^= 0x10;
            both_refuse(what, &flipped, [Some("checksum"); 2]);
        }
        // Between the first and second arena runs: zeros no CRC covers.
        let mut padded = blob.clone();
        let end = h.extent_slices(h.n_extents() - 1, 0)[0];
        padded[(end.0 as usize + end.1).next_multiple_of(RUN_ALIGN) - 1] = 1;
        both_refuse("padding", &padded, [Some("padding"); 2]);
        let mut in_header = blob.clone();
        in_header[h.header_len - 5] = 1;
        both_refuse("header padding", &in_header, [Some("header checksum"); 2]);
        let mut trailing = blob.clone();
        trailing.push(0);
        both_refuse("trailing", &trailing, [Some("trailing bytes"); 2]);
    }

    /// A well-sealed header of one string column claiming 2^40 rows in
    /// 2^31-row extents: four bytes a row would need 4 TiB. Both loaders,
    /// and an extent fault, refuse it before allocating a byte of arena.
    #[test]
    fn a_row_count_the_blob_cannot_hold_is_refused_before_allocating() {
        let (rows, extent_rows) = (1u64 << 40, 1u64 << 31);
        let n_extents = rows.div_ceil(extent_rows);
        let mut blob = Vec::new();
        blob.extend_from_slice(MAGIC);
        blob.extend_from_slice(&VERSION.to_le_bytes());
        blob.extend_from_slice(&0u32.to_le_bytes());
        blob.extend_from_slice(&0u64.to_le_bytes());
        put_str(&mut blob, "huge");
        blob.extend_from_slice(&1u32.to_le_bytes());
        put_str(&mut blob, "s");
        blob.extend_from_slice(&[type_tag(DataType::Str), 0]);
        for word in [1u32, 1, 0] {
            blob.extend_from_slice(&word.to_le_bytes()); // one group: column 0
        }
        blob.extend_from_slice(&[1, 4]); // four-byte codes …
        blob.extend_from_slice(&0u32.to_le_bytes()); // … of an empty dictionary
        blob.extend_from_slice(&rows.to_le_bytes());
        blob.push(0); // a string column has no zones
        blob.extend_from_slice(&(extent_rows as u32).to_le_bytes());
        blob.extend_from_slice(&(n_extents as u32).to_le_bytes());
        blob.resize(blob.len() + n_extents as usize * 4, 0xAB); // the CRCs
        let header_len = (blob.len() + 4).next_multiple_of(RUN_ALIGN);
        blob.resize(header_len, 0);
        blob[12..16].copy_from_slice(&(header_len as u32).to_le_bytes());
        reseal(&mut blob);
        let h = read_header(&blob).unwrap();
        assert_eq!(h.len as u64, rows);
        both_refuse("huge", &blob, [Some("row count exceeds the blob"); 2]);
        let err = decode_extent(&h, 0, &blob[..]).unwrap_err();
        assert!(
            err.to_string().contains("row count exceeds the blob"),
            "{err}"
        );
    }

    /// A blob streamed through a small-buffered file writer is the blob
    /// `to_bytes_extents` builds, byte for byte: several extents, several
    /// groups, nullable columns.
    #[test]
    fn a_streamed_blob_is_the_built_blob() {
        let t = demo_rows(
            Layout::from_groups(vec![vec![0, 2], vec![1, 3]], 4).unwrap(),
            3000,
        );
        let built = to_bytes_extents(&t, 6, ZONE_BLOCK_ROWS);
        assert_eq!(read_header(&built).unwrap().n_extents(), 3);
        let path = std::env::temp_dir().join(format!("pdsm-persist-stream-{}", std::process::id()));
        let mut out = io::BufWriter::with_capacity(100, File::create(&path).unwrap());
        write_extents(&t, 6, ZONE_BLOCK_ROWS, &mut out).unwrap();
        drop(out);
        let streamed = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(streamed == built);
    }
}
