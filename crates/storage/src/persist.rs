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
//! There is one format, the *extent* format (version 3): a CRC'd header
//! with an (extent × layout group) directory followed by independently
//! CRC'd payloads, an extent's groups adjacent, so a buffer pool can fault
//! one extent into a mini table ([`decode_extent`]) without touching the
//! rest of the blob. All integers little-endian:
//!
//! ```text
//! "PDSMTBL1"  magic
//! u32         format version (3)
//! u32         header_len (bytes 0..header_len are the header, CRC included)
//! u64         generation (the merge counter at checkpoint time)
//! str         table name              (str = u32 length + UTF-8 bytes)
//! u32         #columns, then per column: str name, u8 type, u8 nullable
//! u32         #layout groups, then per group: u32 len + u32 col ids
//! per column: u8 has-dict, then u32 #strings + str each (code order)
//! u64         row count
//! per column: u8 zone tag (0 none, 1 int, 2 float), then for 1/2:
//!             u32 #blocks + per block: 8B min, 8B max, u8 flags
//! u32         extent_rows (multiple of ZONE_BLOCK_ROWS)
//! u32         n_extents   (= ceil(rows / extent_rows))
//! per extent, per group: u64 payload offset + u64 payload length
//! u32         CRC-32 of the header bytes above
//! then per (extent, group) payload at its directory offset:
//!   arena slice (rows_in_extent * stride bytes)
//!   per slot: u8 has-validity + validity words for the extent's rows
//!   u32 CRC-32 of the payload bytes above
//! ```
//!
//! Extents start on ZONE_BLOCK_ROWS boundaries, so each extent covers
//! whole zone blocks and whole 64-bit validity words; concatenating the
//! extent slices reproduces the resident arenas and bitmaps bit-for-bit.
//! The zone map travels in the header so recovery starts with scan
//! pruning warm instead of paying a rebuild pass.
//!
//! Every byte moves once each way. [`write_extents`] streams the header
//! and then each payload straight from the arenas and bitmaps into any
//! writer, checksumming as it goes; [`to_bytes_extents`] is that writer
//! into a `Vec`. One loader serves a whole blob in memory
//! ([`from_bytes`]), a checkpoint file ([`read_file`]) and an extent
//! fault ([`decode_extent`]) over any [`BlobSource`]: it reads each
//! payload into its layout group's arena where the rows belong, checks
//! its CRC there, takes the validity words from its tail, and lets the
//! next payload overwrite that tail.
//!
//! [`from_bytes`] fails hard on any mismatch — unlike a WAL tail, a
//! committed checkpoint blob is written atomically, so corruption here is
//! damage, not an interrupted write. Blobs stamped with any other version
//! are refused: no deployed data in an older format exists.

use crate::bitmap::Bitmap;
use crate::dictionary::Dictionary;
use crate::error::{Error, Result};
use crate::layout::Layout;
use crate::partition::Partition;
use crate::schema::{ColumnDef, Schema};
use crate::table::Table;
use crate::types::DataType;
use crate::zonemap::{ColZone, ZoneBlock, ZoneMap, ZONE_BLOCK_ROWS};
use crate::{crc32, Crc32};
use std::borrow::Borrow;
use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"PDSMTBL1";
/// The extent format — the only version written or accepted.
const VERSION_EXTENTS: u32 = 3;

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

/// Parsed v3 header: everything needed to locate, decode, and validate
/// extent payloads without materializing any row data.
#[derive(Debug, Clone)]
pub struct TableHeader {
    pub name: String,
    pub schema: Schema,
    pub layout: Layout,
    /// Shared by every table decoded from this header.
    pub dicts: Arc<Vec<Option<Dictionary>>>,
    pub zones: Option<ZoneMap>,
    pub len: usize,
    pub extent_rows: usize,
    pub generation: u64,
    /// `[extent][group] -> (file offset, payload length incl. CRC)`.
    pub dir: Vec<Vec<(u64, u64)>>,
    /// Per-group arena stride in bytes (derived from schema + layout).
    pub strides: Vec<usize>,
    /// Per-group, per-slot: does this slot carry a validity bitmap?
    pub slot_validity: Vec<Vec<bool>>,
    /// Total header length in bytes (payloads start here).
    pub header_len: usize,
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

    /// Decoded in-memory size of extent `e`, every layout group's arena
    /// slice and validity words — what the buffer pool charges against its
    /// budget for a resident frame.
    pub fn extent_bytes(&self, e: usize) -> usize {
        let (lo, hi) = self.extent_row_range(e);
        let rows = hi - lo;
        (self.strides.iter().zip(&self.slot_validity))
            .map(|(stride, slots)| {
                let nullable = slots.iter().filter(|&&has| has).count();
                rows * stride + nullable * rows.div_ceil(64) * 8
            })
            .sum()
    }

    /// A zero-row table under this header's name, schema, layout and
    /// dictionaries — a cold main's skeleton, and what extent decoding and
    /// reassembly restore partitions into.
    pub fn skeleton(&self) -> Result<Table> {
        let mut t =
            Table::with_layout(self.name.clone(), self.schema.clone(), self.layout.clone())?;
        t.restore_dicts(Arc::clone(&self.dicts));
        Ok(t)
    }

    /// The file range `[start, end)` holding extent `e`'s payloads — its
    /// directory entries are adjacent, so one read faults the whole extent.
    pub fn extent_span(&self, e: usize) -> (u64, u64) {
        let entries = &self.dir[e];
        let start = entries.iter().map(|&(off, _)| off).min().unwrap_or(0);
        let end = (entries.iter())
            .map(|&(off, plen)| off.saturating_add(plen))
            .max()
            .unwrap_or(start);
        (start, end)
    }
}

/// Serialize `table` as a generation-stamped checkpoint blob with
/// `extent_rows` rows per extent: [`write_extents`] into a `Vec`.
pub fn to_bytes_extents(table: &Table, generation: u64, extent_rows: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    write_extents(table, generation, extent_rows, &mut buf).expect("a Vec takes every write");
    buf
}

/// Stream `table` as a generation-stamped checkpoint blob with
/// `extent_rows` rows per extent into `out`: the header, then each
/// payload straight from the arenas and bitmaps, checksummed as it goes.
/// Nothing but the header is buffered.
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
    let ngroups = table.layout().n_groups();

    let mut head = Vec::with_capacity(256);
    head.extend_from_slice(MAGIC);
    head.extend_from_slice(&VERSION_EXTENTS.to_le_bytes());
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
                head.extend_from_slice(&(d.len() as u32).to_le_bytes());
                for (_, s) in d.iter() {
                    put_str(&mut head, s);
                }
            }
        }
    }
    head.extend_from_slice(&(len as u64).to_le_bytes());
    let zones = table.zone_map();
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

    let header_len = head.len() + n_extents * ngroups * 16 + 4;
    head[12..16].copy_from_slice(&(header_len as u32).to_le_bytes());

    // Every payload's length is known up front, so the directory is
    // written first and each payload once, straight into the blob.
    let extent_rows_of = |e: usize| (e * extent_rows, ((e + 1) * extent_rows).min(len));
    let payload_len = |p: &Partition, rows: usize| {
        let validity = (0..p.cols().len()).map(|slot| p.validity(slot).is_some());
        rows * p.stride() + payload_tail(validity, rows)
    };
    let mut off = header_len as u64;
    for e in 0..n_extents {
        let (lo, hi) = extent_rows_of(e);
        for p in table.partitions() {
            let plen = payload_len(p, hi - lo) as u64;
            head.extend_from_slice(&off.to_le_bytes());
            head.extend_from_slice(&plen.to_le_bytes());
            off += plen;
        }
    }
    let crc = crc32(&head);
    head.extend_from_slice(&crc.to_le_bytes());
    debug_assert_eq!(head.len(), header_len);
    out.write_all(&head)?;
    let mut words = Vec::new();
    for e in 0..n_extents {
        let (lo, hi) = extent_rows_of(e);
        for p in table.partitions() {
            let mut crc = Crc32::new();
            let mut put = |bytes: &[u8]| {
                crc.update(bytes);
                out.write_all(bytes)
            };
            put(&p.raw_bytes()[lo * p.stride()..hi * p.stride()])?;
            for slot in 0..p.cols().len() {
                match p.validity(slot) {
                    None => put(&[0])?,
                    Some(bm) => {
                        words.clear();
                        words.push(1);
                        for w in &bm.words()[lo / 64..hi.div_ceil(64)] {
                            words.extend_from_slice(&w.to_le_bytes());
                        }
                        put(&words)?;
                    }
                }
            }
            out.write_all(&crc.finish().to_le_bytes())?;
        }
    }
    Ok(())
}

/// Parse a v3 header from a prefix of the blob (at least `header_len`
/// bytes). The header carries its own CRC, so a caller holding only the
/// file's head can validate it without reading any payload.
pub fn read_header(bytes: &[u8]) -> Result<TableHeader> {
    if bytes.len() < 16 || &bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION_EXTENTS {
        return Err(corrupt("unsupported format version"));
    }
    let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    if header_len < 20 || header_len > bytes.len() {
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
    let skeleton = Table::with_layout(name.clone(), schema.clone(), layout.clone())?;
    let mut dicts = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let has = r.u8()? != 0;
        if has != (schema.columns()[c].ty == DataType::Str) {
            return Err(corrupt("dictionary presence does not match schema"));
        }
        if !has {
            dicts.push(None);
            continue;
        }
        dicts.push(Some(read_dictionary(&mut r)?));
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
    let mut dir = Vec::with_capacity(n_extents);
    for _ in 0..n_extents {
        let mut row = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            let off = r.u64()?;
            let plen = r.u64()?;
            row.push((off, plen));
        }
        dir.push(row);
    }
    if r.pos != body.len() {
        return Err(corrupt("trailing header bytes"));
    }
    let strides = skeleton.partitions().iter().map(|p| p.stride()).collect();
    let slot_validity = skeleton
        .partitions()
        .iter()
        .map(|p| {
            (0..p.cols().len())
                .map(|s| p.validity(s).is_some())
                .collect()
        })
        .collect();
    Ok(TableHeader {
        name,
        schema,
        layout,
        dicts,
        zones,
        len,
        extent_rows,
        generation,
        dir,
        strides,
        slot_validity,
        header_len,
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

impl BlobSource for [u8] {
    fn blob_len(&self) -> Result<u64> {
        Ok(self.len() as u64)
    }

    fn read_at(&self, buf: &mut [u8], at: u64) -> Result<()> {
        let from = (usize::try_from(at).ok())
            .and_then(|at| self.get(at..at.checked_add(buf.len())?))
            .ok_or_else(|| corrupt("extent directory out of range"))?;
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
/// without touching a payload. Its claimed length must fit in the blob
/// before it is read.
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

/// Arenas and validity words being filled, in extent order, for `rows`
/// rows of a header's layout — by a resident load or an extent fault,
/// each payload read straight into place, or by a reassembly from decoded
/// extents — then handed to a skeleton table.
struct Fill {
    rows: usize,
    /// Per group: room for the rows' arena bytes and one payload's tail
    /// (validity and CRC), which the next payload's read overwrites.
    arenas: Vec<Vec<u8>>,
    /// Per group: arena bytes filled so far.
    filled: Vec<usize>,
    words: Vec<Vec<Option<Vec<u64>>>>,
}

impl Fill {
    /// Arenas pre-sized for `rows` rows, refused unless they fit in
    /// `avail` bytes: a payload holds its rows' arena bytes and more, so a
    /// row count the bytes cannot back is damage, not an allocation.
    fn new(h: &TableHeader, rows: usize, avail: u64) -> Result<Fill> {
        let need =
            (h.strides.iter()).try_fold(0usize, |sum, s| sum.checked_add(rows.checked_mul(*s)?));
        if need.is_none_or(|need| need as u64 > avail) {
            return Err(corrupt("row count exceeds the blob"));
        }
        let tail_rows = rows.min(h.extent_rows);
        Ok(Fill {
            rows,
            arenas: (h.strides.iter().zip(&h.slot_validity))
                .map(|(stride, slots)| {
                    vec![0; rows * stride + payload_tail(slots.iter().copied(), tail_rows)]
                })
                .collect(),
            filled: vec![0; h.n_groups()],
            words: (h.slot_validity.iter())
                .map(|slots| {
                    (slots.iter())
                        .map(|&has| has.then(|| Vec::with_capacity(rows.div_ceil(64))))
                        .collect()
                })
                .collect(),
        })
    }

    /// Read extent `e`'s payloads from `src`, each into its group's arena
    /// where its rows belong, and verify them there: CRC, then geometry,
    /// with the validity words taken from the payload's tail.
    fn read_extent<S: BlobSource + ?Sized>(
        &mut self,
        h: &TableHeader,
        e: usize,
        src: &S,
    ) -> Result<()> {
        let (lo, hi) = h.extent_row_range(e);
        let rows = hi - lo;
        for (g, &(off, plen)) in h.dir[e].iter().enumerate() {
            let at = self.filled[g];
            let payload = (usize::try_from(plen).ok())
                .and_then(|plen| self.arenas[g].get_mut(at..at.checked_add(plen)?))
                .ok_or_else(|| corrupt("extent payload does not match its rows"))?;
            if payload.len() < 4 {
                return Err(corrupt("extent payload too short"));
            }
            src.read_at(payload, off)?;
            let (body, crc_bytes) = payload.split_at(payload.len() - 4);
            if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
                return Err(corrupt("extent checksum mismatch"));
            }
            let mut r = ByteReader::new(body, 0);
            r.take(rows * h.strides[g])?;
            for acc in &mut self.words[g] {
                if (r.u8()? != 0) != acc.is_some() {
                    return Err(corrupt("validity presence does not match schema"));
                }
                if let Some(acc) = acc {
                    let words = r.take(rows.div_ceil(64) * 8)?.chunks_exact(8);
                    acc.extend(words.map(|w| u64::from_le_bytes(w.try_into().unwrap())));
                }
            }
            if r.pos != body.len() {
                return Err(corrupt("trailing extent bytes"));
            }
            self.filled[g] += rows * h.strides[g];
        }
        Ok(())
    }

    /// Append a decoded extent's arenas and validity words.
    fn append_table(&mut self, extent: &Table) -> Result<()> {
        for (g, p) in extent.partitions().iter().enumerate() {
            let at = self.filled[g];
            (self.arenas[g].get_mut(at..at + p.byte_size()))
                .ok_or_else(|| corrupt("extents do not cover the table"))?
                .copy_from_slice(p.raw_bytes());
            self.filled[g] += p.byte_size();
            for (slot, acc) in self.words[g].iter_mut().enumerate() {
                if let (Some(acc), Some(bm)) = (acc, p.validity(slot)) {
                    acc.extend_from_slice(bm.words());
                }
            }
        }
        Ok(())
    }

    /// The filled table, under `zones`. Fails unless the appended extents
    /// cover exactly the rows the fill was sized for.
    fn finish(self, h: &TableHeader, zones: Option<ZoneMap>) -> Result<Table> {
        let rows = self.rows;
        let covered = (self.filled.iter().zip(&h.strides)).all(|(&n, stride)| n == rows * stride);
        if !covered {
            return Err(corrupt("extents do not cover the table"));
        }
        let mut t = h.skeleton()?;
        for (g, (mut arena, words)) in self.arenas.into_iter().zip(self.words).enumerate() {
            arena.truncate(rows * h.strides[g]);
            let validity = (words.into_iter())
                .map(|w| w.map(|w| Bitmap::from_words(w, rows)))
                .collect();
            t.partitions_mut()[g].restore(arena, rows, validity);
        }
        t.restore_len(rows);
        if let Some(z) = zones {
            t.install_zones(z);
        }
        Ok(t)
    }
}

/// Bytes a payload of `rows` rows holds after its arena slice: a presence
/// byte per slot, the validity words of the nullable ones, and the CRC.
fn payload_tail(slot_validity: impl Iterator<Item = bool>, rows: usize) -> usize {
    let words = rows.div_ceil(64) * 8;
    slot_validity
        .map(|has| 1 + if has { words } else { 0 })
        .sum::<usize>()
        + 4
}

/// Decode extent `e` of the blob `src` into a self-contained mini
/// [`Table`] holding exactly the extent's rows, its payloads read straight
/// into the mini table's arenas. Every group's payload must lie inside the
/// blob and pass its CRC and geometry checks. The header's dictionaries
/// are shared and the extent's slice of the zone map is installed, so
/// engines scan it exactly as they would the corresponding rows of the
/// resident table.
pub fn decode_extent<S: BlobSource + ?Sized>(h: &TableHeader, e: usize, src: &S) -> Result<Table> {
    let (lo, hi) = h.extent_row_range(e);
    let mut fill = Fill::new(h, hi - lo, src.blob_len()?)?;
    fill.read_extent(h, e, src)?;
    fill.finish(h, h.zones.as_ref().map(|z| z.slice_rows(lo, hi)))
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
    let mut fill = Fill::new(h, h.len, u64::MAX)?;
    for extent in extents {
        fill.append_table(extent?.borrow())?;
    }
    fill.finish(h, h.zones.clone())
}

/// Load the whole table under header `h` from the blob `src`, every
/// payload read once, straight into the table's arenas and verified
/// there — the same checks an extent fault makes. The blob must end where
/// its last payload does.
fn load<S: BlobSource + ?Sized>(h: &TableHeader, src: &S) -> Result<Table> {
    let len = src.blob_len()?;
    let mut fill = Fill::new(h, h.len, len)?;
    let mut end = h.header_len as u64;
    for e in 0..h.n_extents() {
        end = end.max(h.extent_span(e).1);
        fill.read_extent(h, e, src)?;
    }
    let t = fill.finish(h, h.zones.clone())?;
    if end != len {
        return Err(corrupt("trailing bytes"));
    }
    Ok(t)
}

/// Deserialize a whole checkpoint blob in memory back into `(table,
/// generation)`. Any framing, checksum, version or invariant violation is
/// a hard [`Error::Io`].
pub fn from_bytes(bytes: &[u8]) -> Result<(Table, u64)> {
    let h = read_header(bytes)?;
    Ok((load(&h, bytes)?, h.generation))
}

/// [`from_bytes`] of a checkpoint file, read by positioned reads straight
/// into the table's arenas: no whole-blob buffer.
pub fn read_file(file: &File) -> Result<(Table, u64)> {
    let h = read_header_from(file)?;
    Ok((load(&h, file)?, h.generation))
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
            // A blob that stops short of the extent's last group is refused.
            let end = h.extent_span(e).1 as usize;
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
    /// stamped version 1 or 2 must not load.
    #[test]
    fn older_format_versions_are_refused() {
        let t = demo_rows(Layout::row(4), 100);
        let blob = to_bytes_extents(&t, 9, ZONE_BLOCK_ROWS);
        let header_len = read_header(&blob).unwrap().header_len;
        for version in [1u32, 2, 4] {
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
        assert_eq!((blob.len(), crc32(&blob)), (303, 0x2310_e7ab));
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
        }
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
        let mut flipped = blob.clone();
        let (off, plen) = h.dir[1][2];
        flipped[(off + plen / 2) as usize] ^= 0x10;
        both_refuse("flip", &flipped, [Some("checksum"); 2]);
        let mut past_eof = blob.clone();
        let last = h.header_len - 4 - 16;
        past_eof[last..last + 8].copy_from_slice(&(blob.len() as u64 + 64).to_le_bytes());
        reseal(&mut past_eof);
        both_refuse(
            "eof",
            &past_eof,
            [Some("out of range"), Some("fill whole buffer")],
        );
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
        blob.extend_from_slice(&VERSION_EXTENTS.to_le_bytes());
        blob.extend_from_slice(&0u32.to_le_bytes());
        blob.extend_from_slice(&0u64.to_le_bytes());
        put_str(&mut blob, "huge");
        blob.extend_from_slice(&1u32.to_le_bytes());
        put_str(&mut blob, "s");
        blob.extend_from_slice(&[type_tag(DataType::Str), 0]);
        for word in [1u32, 1, 0] {
            blob.extend_from_slice(&word.to_le_bytes()); // one group: column 0
        }
        blob.push(1);
        blob.extend_from_slice(&0u32.to_le_bytes()); // an empty dictionary
        blob.extend_from_slice(&rows.to_le_bytes());
        blob.push(0); // a string column has no zones
        blob.extend_from_slice(&(extent_rows as u32).to_le_bytes());
        blob.extend_from_slice(&(n_extents as u32).to_le_bytes());
        let header_len = blob.len() + n_extents as usize * 16 + 4;
        for e in 0..n_extents {
            let plen = extent_rows * 4 + 5;
            blob.extend_from_slice(&(header_len as u64 + e * plen).to_le_bytes());
            blob.extend_from_slice(&plen.to_le_bytes());
        }
        blob.extend_from_slice(&[0; 4]);
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
