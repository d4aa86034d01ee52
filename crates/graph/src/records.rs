//! The one home of every byte layout built from fixed-width records.
//!
//! * [`Record`] — the little-endian image of an [`Edge`] (12 bytes) and of
//!   a [`DeltaRecord`] (16), its validity check, and the argument that
//!   lets a mapped file be read as `&[R]` in place;
//! * record **lists** over byte buffers ([`encode`] / [`decode`]), which
//!   the WAL, replication frames and the binary edge list put behind
//!   their own headers;
//! * the record **file** — `magic (8) | count u64 | count × record` —
//!   that base segments (`GMSEG001`) and delta segments (`GMDEL001`) both
//!   are: [`write()`] / [`validate`] / [`read`];
//! * the CRC **envelope** — `len u32 | crc32 u32 | payload` — around WAL
//!   entries and replication frames: [`seal`] / [`open`];
//! * [`Cursor`], the bounds-checked reader every header — these and the
//!   callers' own — is read through: all fields are little-endian, and a
//!   length read from a file is checked against the bytes really there
//!   before anything is allocated for it, so a corrupt header is a typed
//!   [`GraphError::Truncated`] or [`GraphError::Format`], never an abort.

use crate::delta::{DeltaRecord, DELTA_OP_DELETE, DELTA_RECORD_BYTES};
use crate::types::{Edge, GraphError, Result, VertexId, EDGE_BYTES};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Record file header: magic (8) + record count (8). Sixteen bytes keep
/// the record array 4-byte aligned in a page-aligned mapping.
const FILE_HEADER_BYTES: usize = 16;

/// Envelope prefix: payload length (4) + payload CRC-32 (4).
const ENVELOPE_BYTES: usize = 8;

/// A fixed-width record with one on-disk and on-wire image.
///
/// # Safety
///
/// An implementor guarantees that `Self` is `#[repr(C)]` with alignment at
/// most 4, that `BYTES == size_of::<Self>()` with no padding, that every
/// bit pattern of those bytes is a value of `Self`, and that [`put`]
/// writes the fields in declaration order, little-endian — the bytes a
/// little-endian host holds in memory. A reader may then view a validated,
/// suitably aligned record array as `&[Self]` on such a host.
///
/// [`put`]: Record::put
pub unsafe trait Record: Copy {
    /// The record's image as a stack array.
    type Image: AsRef<[u8]>;

    /// Size of one image.
    const BYTES: usize;

    /// Magic opening a record file of this type.
    const MAGIC: &'static [u8; 8];

    /// Encodes the record.
    fn put(&self) -> Self::Image;

    /// Decodes `bytes` (exactly [`Record::BYTES`] of them) and
    /// [`check`](Record::check)s the result.
    fn get(bytes: &[u8]) -> std::result::Result<Self, String>;

    /// Whether the record is one a writer of this format can have
    /// produced; the reason when not. Runs on every decoded record and,
    /// for records viewed in place, once when their file is opened.
    fn check(&self) -> std::result::Result<(), String> {
        Ok(())
    }

    /// Source and destination vertex.
    fn endpoints(&self) -> [VertexId; 2];
}

// SAFETY: `Edge` is `#[repr(C)] { u32, u32, f32 }`: three 4-byte fields at
// offsets 0, 4 and 8, size 12, alignment 4, no padding; every `u32` and
// `f32` bit pattern is a value; `put` writes them in that order.
unsafe impl Record for Edge {
    type Image = [u8; EDGE_BYTES];
    const BYTES: usize = EDGE_BYTES;
    const MAGIC: &'static [u8; 8] = b"GMSEG001";

    fn put(&self) -> [u8; EDGE_BYTES] {
        let mut image = [0u8; EDGE_BYTES];
        image[0..4].copy_from_slice(&self.src.to_le_bytes());
        image[4..8].copy_from_slice(&self.dst.to_le_bytes());
        image[8..12].copy_from_slice(&self.weight.to_le_bytes());
        image
    }

    fn get(bytes: &[u8]) -> std::result::Result<Edge, String> {
        Ok(Edge { src: u32_at(bytes, 0), dst: u32_at(bytes, 4), weight: f32_at(bytes, 8) })
    }

    fn endpoints(&self) -> [VertexId; 2] {
        [self.src, self.dst]
    }
}

// SAFETY: `DeltaRecord` is `#[repr(C)] { u32, u32, f32, u32 }`: four
// 4-byte fields at offsets 0, 4, 8 and 12, size 16, alignment 4, no
// padding; every bit pattern is a value (an unknown `op` is a valid `u32`
// that `check` rejects); `put` writes them in that order.
unsafe impl Record for DeltaRecord {
    type Image = [u8; DELTA_RECORD_BYTES];
    const BYTES: usize = DELTA_RECORD_BYTES;
    const MAGIC: &'static [u8; 8] = b"GMDEL001";

    fn put(&self) -> [u8; DELTA_RECORD_BYTES] {
        let mut image = [0u8; DELTA_RECORD_BYTES];
        image[0..4].copy_from_slice(&self.src.to_le_bytes());
        image[4..8].copy_from_slice(&self.dst.to_le_bytes());
        image[8..12].copy_from_slice(&self.weight.to_le_bytes());
        image[12..16].copy_from_slice(&self.op.to_le_bytes());
        image
    }

    fn get(bytes: &[u8]) -> std::result::Result<DeltaRecord, String> {
        let record = DeltaRecord {
            src: u32_at(bytes, 0),
            dst: u32_at(bytes, 4),
            weight: f32_at(bytes, 8),
            op: u32_at(bytes, 12),
        };
        record.check().map(|()| record)
    }

    fn check(&self) -> std::result::Result<(), String> {
        if self.op > DELTA_OP_DELETE {
            return Err(format!("unknown op {}", self.op));
        }
        Ok(())
    }

    fn endpoints(&self) -> [VertexId; 2] {
        [self.src, self.dst]
    }
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("a four-byte slice"))
}

fn f32_at(bytes: &[u8], at: usize) -> f32 {
    f32::from_le_bytes(bytes[at..at + 4].try_into().expect("a four-byte slice"))
}

/// A forward reader over the untrusted bytes of `what`. Every read is
/// checked against the bytes left: running out is a typed
/// [`GraphError::Truncated`] naming `what` and the field.
pub struct Cursor<'a, 'w> {
    rest: &'a [u8],
    what: &'w str,
}

impl<'a, 'w> Cursor<'a, 'w> {
    /// A cursor at the front of `bytes`.
    pub fn new(bytes: &'a [u8], what: &'w str) -> Cursor<'a, 'w> {
        Cursor { rest: bytes, what }
    }

    /// The bytes not yet read.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Fails unless `n` more bytes are left — the check a count read from
    /// the bytes must pass before anything is allocated for it.
    pub fn need(&self, n: u64, field: &str) -> Result<()> {
        let available = self.rest.len() as u64;
        if n > available {
            let what = format!("{}: {field}", self.what);
            return Err(GraphError::Truncated { what, needed: n, available });
        }
        Ok(())
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: u64, field: &str) -> Result<&'a [u8]> {
        self.need(n, field)?;
        let (head, rest) = self.rest.split_at(n as usize);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, field: &str) -> Result<[u8; N]> {
        Ok(self.take(N as u64, field)?.try_into().expect("take returned N bytes"))
    }

    /// The next two bytes as a `u16`.
    pub fn u16(&mut self, field: &str) -> Result<u16> {
        self.array(field).map(u16::from_le_bytes)
    }

    /// The next four bytes as a `u32`.
    pub fn u32(&mut self, field: &str) -> Result<u32> {
        self.array(field).map(u32::from_le_bytes)
    }

    /// The next eight bytes as a `u64`.
    pub fn u64(&mut self, field: &str) -> Result<u64> {
        self.array(field).map(u64::from_le_bytes)
    }

    /// Consumes the eight bytes every GraphM file opens with, which must
    /// be `magic`.
    pub fn magic(&mut self, magic: &[u8; 8]) -> Result<()> {
        if self.take(8, "magic")? != magic {
            let kind = String::from_utf8_lossy(magic);
            return Err(self.malformed(format_args!("does not open with {kind}")));
        }
        Ok(())
    }

    /// The next `count` images of `R`, undecoded: an overflowing count is
    /// a [`GraphError::Format`], one the bytes cannot hold `Truncated`.
    pub fn images<R: Record>(&mut self, count: u64) -> Result<&'a [u8]> {
        let needed = count.checked_mul(R::BYTES as u64).ok_or_else(|| {
            GraphError::Format(format!("{}: record count {count} overflows", self.what))
        })?;
        self.take(needed, "records")
    }

    /// A [`GraphError::Format`] about `what`.
    pub fn malformed(&self, why: impl std::fmt::Display) -> GraphError {
        GraphError::Format(format!("{}: {why}", self.what))
    }
}

fn invalid(what: &str, index: usize, why: String) -> GraphError {
    GraphError::Format(format!("{what}: record {index}: {why}"))
}

/// Appends the images of `records` to `out`.
pub fn encode<R: Record>(records: &[R], out: &mut Vec<u8>) {
    out.reserve(records.len() * R::BYTES);
    for r in records {
        out.extend_from_slice(r.put().as_ref());
    }
}

/// Decodes a record list that fills `bytes` exactly. A length that is not
/// a whole number of records, or a record failing its check, is a
/// [`GraphError::Format`] naming `what`.
pub fn decode<R: Record>(bytes: &[u8], what: &str) -> Result<Vec<R>> {
    if !bytes.len().is_multiple_of(R::BYTES) {
        return Err(GraphError::Format(format!(
            "{what}: {} bytes is not a whole number of {}-byte records",
            bytes.len(),
            R::BYTES
        )));
    }
    let mut records = Vec::with_capacity(bytes.len() / R::BYTES);
    for (i, image) in bytes.chunks_exact(R::BYTES).enumerate() {
        records.push(R::get(image).map_err(|why| invalid(what, i, why))?);
    }
    Ok(records)
}

/// The scan records are trusted after: each passes its own check and
/// names only vertices below `num_vertices`, so a job can index its
/// vertex-state arrays with them.
pub fn check_all<R: Record>(records: &[R], num_vertices: VertexId, what: &str) -> Result<()> {
    for (i, r) in records.iter().enumerate() {
        r.check().map_err(|why| invalid(what, i, why))?;
        let [src, dst] = r.endpoints();
        if src >= num_vertices || dst >= num_vertices {
            let vertex = if src >= num_vertices { src } else { dst };
            return Err(GraphError::VertexOutOfRange { vertex, num_vertices });
        }
    }
    Ok(())
}

/// Records [`write_to`] encodes between two `write_all`s (48–64 KiB).
const WRITE_CHUNK: usize = 4096;

/// Streams `header`, then the images of `records`, into `w` through a
/// bounded buffer: one `write_all` per `WRITE_CHUNK` records, the first
/// carrying the header. Nothing is left in user space when it returns.
pub fn write_to<R: Record>(w: &mut impl Write, header: &[u8], records: &[R]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(header.len() + WRITE_CHUNK.min(records.len()) * R::BYTES);
    buf.extend_from_slice(header);
    for chunk in records.chunks(WRITE_CHUNK) {
        encode(chunk, &mut buf);
        w.write_all(&buf)?;
        buf.clear();
    }
    // The header alone when there were no records; nothing otherwise.
    w.write_all(&buf)
}

/// Writes `records` as a record file at `path` and returns the file, every
/// byte handed to the kernel but **not** synced: a caller whose file must
/// be durable before something else names it calls `sync_all` on it.
pub fn write<R: Record>(records: &[R], path: &Path) -> Result<File> {
    let mut file = File::create(path)?;
    let mut header = [0u8; FILE_HEADER_BYTES];
    header[..8].copy_from_slice(R::MAGIC);
    header[8..].copy_from_slice(&(records.len() as u64).to_le_bytes());
    write_to(&mut file, &header, records)?;
    Ok(file)
}

/// Validates the header of a record file held in `bytes` (its full
/// contents, or its mapped view) against the bytes really there and
/// against the count `expect`ed by whoever named the file. O(1); returns
/// the record count.
pub fn validate<R: Record>(bytes: &[u8], expect: Option<u64>, what: &str) -> Result<u64> {
    let mut r = Cursor::new(bytes, what);
    r.magic(R::MAGIC)?;
    let count = r.u64("record count")?;
    r.images::<R>(count)?;
    match expect {
        Some(expect) if expect != count => {
            Err(r.malformed(format_args!("manifest says {expect} records, header says {count}")))
        }
        _ => Ok(count),
    }
}

/// The record array of a file [`validate`] accepted with `count` records.
pub fn payload<R: Record>(bytes: &[u8], count: usize) -> &[u8] {
    &bytes[FILE_HEADER_BYTES..FILE_HEADER_BYTES + count * R::BYTES]
}

/// Reads a record file eagerly — [`validate`], then [`decode`]: the path
/// for compaction and frame rebuilding, and the only one on hosts that
/// cannot view the file in place.
pub fn read<R: Record>(path: &Path, expect: Option<u64>) -> Result<Vec<R>> {
    let bytes = std::fs::read(path)?;
    let what = path.display().to_string();
    let count = validate::<R>(&bytes, expect, &what)? as usize;
    decode(payload::<R>(&bytes, count), &what)
}

/// IEEE CRC-32, table-driven, dependency-free.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb88320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Appends one envelope to `out`: whatever `payload` appends, prefixed
/// with its length and CRC-32.
pub fn seal(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0u8; ENVELOPE_BYTES]);
    payload(out);
    let body = at + ENVELOPE_BYTES;
    let len = u32::try_from(out.len() - body).expect("an envelope payload is under 4 GiB");
    let crc = crc32(&out[body..]);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..body].copy_from_slice(&crc.to_le_bytes());
}

/// Opens the envelope at the front of `bytes`: its payload and whatever
/// follows it. A prefix or payload cut short is [`GraphError::Truncated`],
/// a checksum mismatch [`GraphError::Format`]; `what` names the envelope.
pub fn open<'a>(bytes: &'a [u8], what: &str) -> Result<(&'a [u8], &'a [u8])> {
    let mut r = Cursor::new(bytes, what);
    let (len, crc) = (r.u32("length")?, r.u32("checksum")?);
    let payload = r.take(len.into(), "payload")?;
    if crc32(payload) != crc {
        return Err(r.malformed("CRC mismatch"));
    }
    Ok((payload, r.rest()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `R`'s image survives `get(put(r))` bit for bit, a list decodes only
    /// at whole-record lengths, and its record file cut at any byte is a
    /// typed error from the validator — which is all `read` consults
    /// before it allocates, and it holds no more than the file's bytes.
    fn codec_holds<R: Record>(records: &[R], cut_seed: u64, name: &str) -> Vec<R> {
        let mut list = Vec::new();
        encode(records, &mut list);
        assert_eq!(list.len(), records.len() * R::BYTES);
        for (r, image) in records.iter().zip(list.chunks_exact(R::BYTES)) {
            assert_eq!(R::get(image).unwrap().put().as_ref(), r.put().as_ref());
        }
        for cut in (0..list.len()).filter(|cut| cut % R::BYTES != 0) {
            assert!(matches!(decode::<R>(&list[..cut], "list"), Err(GraphError::Format(_))));
        }

        let path = std::env::temp_dir().join(format!(
            "graphm-records-test-{name}-{}-{}",
            std::process::id(),
            records.len()
        ));
        write(records, &path).unwrap();
        let file = std::fs::read(&path).unwrap();
        assert_eq!(file.len(), FILE_HEADER_BYTES + list.len());
        assert_eq!(payload::<R>(&file, records.len()), &list[..]);
        let back = read::<R>(&path, Some(records.len() as u64)).unwrap();
        let typed = |err: Option<GraphError>| {
            matches!(err, Some(GraphError::Truncated { .. } | GraphError::Format(_)))
        };
        for cut in 0..file.len() {
            assert!(typed(validate::<R>(&file[..cut], None, "cut").err()), "cut at {cut}");
        }
        for cut in [cut_seed as usize % file.len(), file.len() - 1] {
            std::fs::write(&path, &file[..cut]).unwrap();
            assert!(typed(read::<R>(&path, None).err()), "file cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
        back
    }

    proptest! {
        #[test]
        fn edge_codec_holds(
            raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..40),
            cut_seed in any::<u64>(),
        ) {
            // Weights from raw bits: NaN payloads and signed zeros included.
            let edges: Vec<Edge> =
                raw.iter().map(|&(s, d, w)| Edge::weighted(s, d, f32::from_bits(w))).collect();
            let back = codec_holds(&edges, cut_seed, "edge");
            for (a, b) in back.iter().zip(&edges) {
                prop_assert_eq!((a.src, a.dst, a.weight.to_bits()), (b.src, b.dst, b.weight.to_bits()));
            }
        }

        #[test]
        fn delta_record_codec_holds(
            raw in proptest::collection::vec(
                (any::<u32>(), any::<u32>(), any::<u32>(), 0..DELTA_OP_DELETE + 1), 0..40),
            cut_seed in any::<u64>(),
            bad_op in DELTA_OP_DELETE + 1..u32::MAX,
        ) {
            let records: Vec<DeltaRecord> = raw
                .iter()
                .map(|&(src, dst, w, op)| DeltaRecord { src, dst, weight: f32::from_bits(w), op })
                .collect();
            let back = codec_holds(&records, cut_seed, "delta");
            for (a, b) in back.iter().zip(&records) {
                prop_assert_eq!(
                    (a.src, a.dst, a.weight.to_bits(), a.op),
                    (b.src, b.dst, b.weight.to_bits(), b.op)
                );
            }
            // The one validity rule, through both of its callers.
            let bad = DeltaRecord { src: 0, dst: 0, weight: 0.0, op: bad_op };
            prop_assert!(DeltaRecord::get(bad.put().as_ref()).is_err());
            prop_assert!(matches!(check_all(&[bad], 1, "scan"), Err(GraphError::Format(_))));
        }
    }

    #[test]
    fn a_header_promising_more_than_the_file_holds_allocates_nothing() {
        let mut file = Vec::new();
        file.extend_from_slice(Edge::MAGIC);
        file.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(validate::<Edge>(&file, None, "huge"), Err(GraphError::Format(_))));
        file[8..16].copy_from_slice(&(u64::MAX / 64).to_le_bytes());
        assert!(matches!(validate::<Edge>(&file, None, "huge"), Err(GraphError::Truncated { .. })));
    }

    #[test]
    fn envelope_round_trips_and_rejects_damage() {
        let mut out = b"prefix".to_vec();
        seal(&mut out, |payload| payload.extend_from_slice(b"123456789"));
        out.extend_from_slice(b"rest");
        let sealed = &out[6..];
        assert_eq!(u32_at(sealed, 0), 9);
        assert_eq!(u32_at(sealed, 4), 0xcbf43926, "the IEEE check value");
        assert_eq!(open(sealed, "test").unwrap(), (&b"123456789"[..], &b"rest"[..]));
        for cut in 0..ENVELOPE_BYTES + 9 {
            assert!(matches!(open(&sealed[..cut], "test"), Err(GraphError::Truncated { .. })));
        }
        let mut flipped = sealed.to_vec();
        flipped[ENVELOPE_BYTES + 3] ^= 1;
        assert!(matches!(open(&flipped, "test"), Err(GraphError::Format(_))));
    }
}
