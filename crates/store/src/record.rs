//! WAL record encoding: one committed statement per record, framed as
//! `[payload len: u32 LE][crc32(payload): u32 LE][payload]`. A
//! [`WalRecord`] is what `pdsm-txn`'s one commit step applies: rows
//! appended, then row ids tombstoned (an insert has only appends, a
//! delete only tombstones, an update of n rows n of each).
//!
//! A short frame or a failed checksum is the torn tail of a writer killed
//! mid-append: decoding stops there and reports the valid prefix, which
//! recovery replays, truncating the rest. A checksum-valid payload that
//! does not parse was written whole in a format this decoder does not
//! speak; truncating it would drop acknowledged writes, so it is an error.

use pdsm_storage::{crc32, ByteReader};
use pdsm_storage::{Row, Value};

/// One committed statement: `appends` take the next row ids in order,
/// then every id in `tombstones` is marked dead. Ids are the
/// `pdsm_txn`-level ids of the commit; a checkpoint rewrites the log so
/// they are always valid against the main store generation the log sits
/// on top of.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalRecord {
    /// Normalized rows appended to the delta.
    pub appends: Vec<Row>,
    /// Ids tombstoned after the appends: rows visible before the record,
    /// or rows it appended.
    pub tombstones: Vec<u64>,
}

/// The payload's leading tag. Tags 1–3 were the per-row and per-cell
/// records of the earlier format; the decoder refuses them.
const TAG_COMMIT: u8 = 4;

const VAL_NULL: u8 = 0;
const VAL_I32: u8 = 1;
const VAL_I64: u8 = 2;
const VAL_F64: u8 = 3;
const VAL_STR: u8 = 4;

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(VAL_NULL),
        Value::Int32(x) => {
            buf.push(VAL_I32);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Int64(x) => {
            buf.push(VAL_I64);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Float64(x) => {
            buf.push(VAL_F64);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(VAL_STR);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
    }
}

fn put_row(buf: &mut Vec<u8>, row: &Row) {
    buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row.values() {
        put_value(buf, v);
    }
}

impl WalRecord {
    /// True iff the record neither appends nor tombstones anything.
    pub fn is_empty(&self) -> bool {
        self.appends.is_empty() && self.tombstones.is_empty()
    }

    /// Serialize the record as a complete frame (length, checksum,
    /// payload) ready to append to a WAL file.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = vec![TAG_COMMIT];
        payload.extend_from_slice(&(self.appends.len() as u32).to_le_bytes());
        for r in &self.appends {
            put_row(&mut payload, r);
        }
        payload.extend_from_slice(&(self.tombstones.len() as u32).to_le_bytes());
        for id in &self.tombstones {
            payload.extend_from_slice(&id.to_le_bytes());
        }
        let mut rec = Vec::with_capacity(8 + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&crc32(&payload).to_le_bytes());
        rec.extend_from_slice(&payload);
        rec
    }
}

fn get_value(c: &mut ByteReader) -> Option<Value> {
    Some(match c.u8().ok()? {
        VAL_NULL => Value::Null,
        VAL_I32 => Value::Int32(c.u32().ok()? as i32),
        VAL_I64 => Value::Int64(c.u64().ok()? as i64),
        VAL_F64 => Value::Float64(f64::from_bits(c.u64().ok()?)),
        VAL_STR => Value::Str(c.str().ok()?),
        _ => return None,
    })
}

/// `n` items read by `get`, into a vector sized up front (capped, so a
/// corrupt count cannot reserve unbounded memory).
fn get_n<T>(c: &mut ByteReader, get: impl Fn(&mut ByteReader) -> Option<T>) -> Option<Vec<T>> {
    let n = c.u32().ok()? as usize;
    let mut items = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        items.push(get(c)?);
    }
    Some(items)
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut c = ByteReader::new(payload, 0);
    if c.u8().ok()? != TAG_COMMIT {
        return None;
    }
    let appends = get_n(&mut c, |c| get_n(c, get_value).map(Row))?;
    let tombstones = get_n(&mut c, |c| c.u64().ok())?;
    (c.pos() == payload.len()).then_some(WalRecord {
        appends,
        tombstones,
    })
}

/// Decode every whole, checksum-valid record from the front of `bytes`.
/// Returns the records and the byte length of the valid prefix; anything
/// past that point is a torn or corrupt tail and must be truncated away
/// before new records are appended. A checksum-valid record that does not
/// decode is an [`std::io::ErrorKind::InvalidData`] error naming its
/// offset.
pub fn decode_stream(bytes: &[u8]) -> std::io::Result<(Vec<WalRecord>, usize)> {
    let mut records = Vec::new();
    let mut valid = 0usize;
    loop {
        let rest = &bytes[valid..];
        if rest.len() < 8 {
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let want_crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        // No payload is empty (each starts with its tag), and crc32 of
        // nothing is 0: an all-zero frame is the zero fill a crash can
        // leave where the file grew, not a record.
        if len == 0 {
            break;
        }
        let Some(payload) = rest.get(8..8 + len) else {
            break; // record extends past EOF: torn append
        };
        if crc32(payload) != want_crc {
            break; // bit rot or half-written payload
        }
        let Some(record) = decode_payload(payload) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unsupported WAL record at byte {valid}"),
            ));
        };
        records.push(record);
        valid += 8 + len;
    }
    Ok((records, valid))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<WalRecord> {
        vec![
            WalRecord {
                appends: vec![
                    Row(vec![
                        Value::Int32(1),
                        Value::Str("déjà".into()),
                        Value::Null,
                        Value::Float64(-0.5),
                    ]),
                    Row(vec![Value::Int64(i64::MIN), Value::Str(String::new())]),
                ],
                tombstones: vec![7, 2],
            },
            WalRecord {
                appends: Vec::new(),
                tombstones: vec![u64::MAX],
            },
            WalRecord {
                appends: vec![Row(vec![Value::Int32(3)])],
                tombstones: Vec::new(),
            },
            WalRecord::default(),
        ]
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        records.iter().flat_map(WalRecord::encode).collect()
    }

    /// Byte offsets of the record boundaries, 0 first.
    fn bounds(records: &[WalRecord]) -> Vec<usize> {
        let mut b = vec![0usize];
        for r in records {
            b.push(b.last().unwrap() + r.encode().len());
        }
        b
    }

    #[test]
    fn round_trip() {
        let records = sample();
        let bytes = encode_all(&records);
        let (decoded, valid) = decode_stream(&bytes).unwrap();
        assert_eq!(decoded, records);
        assert_eq!(valid, bytes.len());
    }

    #[test]
    fn torn_tail_stops_cleanly_at_every_cut() {
        let records = sample();
        let bytes = encode_all(&records);
        let bounds = bounds(&records);
        for cut in 0..bytes.len() {
            let (decoded, valid) = decode_stream(&bytes[..cut]).unwrap();
            // Valid prefix = the largest record boundary <= cut.
            let want = *bounds.iter().filter(|&&b| b <= cut).max().unwrap();
            assert_eq!(valid, want, "cut at {cut}");
            let nrec = bounds.iter().position(|&b| b == want).unwrap();
            assert_eq!(decoded, records[..nrec], "cut at {cut}");
        }
        // Zero fill past the last record is a crash frontier too.
        let mut zeroed = bytes.clone();
        zeroed.extend_from_slice(&[0; 64]);
        assert_eq!(decode_stream(&zeroed).unwrap(), (records, bytes.len()));
    }

    #[test]
    fn bit_flip_anywhere_invalidates_exactly_the_hit_record_onward() {
        let records = sample();
        let bytes = encode_all(&records);
        let bounds = bounds(&records);
        for byte in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 0x40;
            let (decoded, valid) = decode_stream(&corrupt).unwrap();
            // Everything strictly before the record containing `byte`
            // must still decode; the decoder must not read past it.
            let rec = bounds.iter().rposition(|&b| b <= byte).unwrap();
            assert!(valid <= bounds[rec], "flip at {byte}");
            assert!(decoded.len() <= rec, "flip at {byte}");
            // A flipped length field may truncate earlier, but never
            // yields wrong records: whatever decoded matches the originals.
            assert_eq!(decoded[..], records[..decoded.len()], "flip at {byte}");
        }
    }

    /// A whole, checksum-valid record the decoder cannot parse is refused
    /// with its offset — never mistaken for the torn tail.
    #[test]
    fn a_whole_record_that_does_not_decode_is_an_error() {
        let good = sample()[1].encode();
        let mut trailing = good[8..].to_vec();
        trailing.push(0);
        let mut short = sample()[0].encode()[8..].to_vec();
        short.truncate(short.len() - 8);
        let payloads = [
            // The earlier format's per-cell update: tag 2, row, col, value.
            [
                vec![2],
                5u64.to_le_bytes().to_vec(),
                vec![1, 0, 0, 0, VAL_NULL],
            ]
            .concat(),
            vec![0xFF],
            trailing,
            short,
        ];
        for payload in payloads {
            let mut bytes = good.clone();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            let err = decode_stream(&bytes).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                format!("unsupported WAL record at byte {}", good.len())
            );
        }
    }
}
