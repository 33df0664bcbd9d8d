//! The durable byte store under every persistent store — the checkpoint
//! store ([`ckpt_store`](crate::ckpt_store)), the result store
//! ([`result_store`](crate::result_store)) and the sweep journal in
//! `nda-bench` — plus the little-endian encoder/decoder pair their codecs
//! are written in.
//!
//! [`BlobStore`] is the only owner of the durability code: the
//! checksummed header, the key-material check, the atomic write,
//! quarantine and size-capped garbage collection. The typed stores are
//! thin codecs on top of it.
//!
//! ## Blob format
//!
//! One blob per file, named by the caller:
//!
//! ```text
//! <magic> <checksum:016x>\n           ASCII header line
//! <key material, length-prefixed>     the exact bytes the caller keys on
//! <body>                              the caller's codec
//! ```
//!
//! The checksum is FNV-1a 64 over everything after the header line. The
//! key material is stored *and verified byte-for-byte* on read, so a hash
//! collision (or a file copied onto another name) degrades to a clean
//! miss instead of returning another key's value.
//!
//! ## Durability
//!
//! [`BlobStore::put`] encodes header, material and body into one buffer,
//! writes it to a per-call `.tmp.<pid>.<seq>.<name>`, `sync_all`s it and
//! `rename`s it over the final name. Concurrent writers of the same name
//! race benignly (the last rename wins) and readers never observe a torn
//! file. A blob that fails its header, its checksum or the caller's
//! decoder is [`Blob::Corrupt`]; [`BlobStore::quarantine`] moves it into
//! a `quarantine/` subdirectory for forensics.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// FNV-1a, 64 bit: the content hash behind store keys and the blob
/// checksum. Small, dependency-free, and plenty to detect truncation and
/// bit flips (this is corruption detection, not authentication).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian append-only encoder.
#[derive(Default)]
pub struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }
}

/// Cursor over a blob body; every accessor returns `None` on underrun,
/// which [`BlobStore::read`] maps to [`Blob::Corrupt`].
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }
    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    pub(crate) fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }
    /// A count of records that each take at least `record` bytes,
    /// refused when the rest of the buffer cannot hold that many: a
    /// corrupt count cannot reserve more than the blob's own size.
    pub(crate) fn count(&mut self, record: usize) -> Option<usize> {
        let n = self.usize()?;
        (n.checked_mul(record)? <= self.buf.len() - self.pos).then_some(n)
    }
    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    pub(crate) fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    pub(crate) fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
    /// A length-prefixed byte string; the length is sanity-capped by the
    /// remaining buffer so a corrupt prefix cannot trigger a huge
    /// allocation.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.usize()?;
        self.take(n)
    }
    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// What one garbage-collection pass over a store directory did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Entry files examined.
    pub scanned: usize,
    /// Entry files evicted (oldest modification time first).
    pub evicted: usize,
    /// Bytes reclaimed by the evictions.
    pub evicted_bytes: u64,
    /// Bytes of entries left on disk after the pass.
    pub live_bytes: u64,
}

/// What [`BlobStore::read`] found under one name.
#[derive(Debug)]
pub enum Blob<T> {
    /// A sound blob for this key material, decoded.
    Hit(T),
    /// No blob, or a sound blob for *different* key material (a hash
    /// collision: a miss, not corruption — it is left alone).
    Miss,
    /// A blob that fails its header, its checksum, the caller's decoder
    /// or has trailing bytes.
    Corrupt,
}

/// Distinguishes the temporary files of concurrent writers in one
/// process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of checksummed, key-verified blobs. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct BlobStore {
    dir: PathBuf,
    magic: &'static str,
    ext: &'static str,
    max_bytes: Option<u64>,
}

impl BlobStore {
    /// Open (creating if necessary) an uncapped store rooted at `dir`
    /// whose blobs carry `magic`; garbage collection counts the files
    /// ending in `.{ext}`.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error if the directory cannot be created.
    pub fn open(
        dir: impl Into<PathBuf>,
        magic: &'static str,
        ext: &'static str,
    ) -> io::Result<BlobStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(BlobStore {
            dir,
            magic,
            ext,
            max_bytes: None,
        })
    }

    /// Set (or clear) the size cap. A capped store garbage-collects after
    /// every [`put`](Self::put).
    #[must_use]
    pub(crate) fn with_max_bytes(mut self, max_bytes: Option<u64>) -> BlobStore {
        self.max_bytes = max_bytes;
        self
    }

    pub(crate) fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of blob `name` (whether or not it exists).
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Evict oldest-mtime `*.{ext}` blobs (non-recursive — `quarantine/`
    /// is never touched) until they total at most `max_bytes`. Capped
    /// stores run it after every put. LRU-ish rather than LRU: plain reads
    /// do not bump mtime, so the policy is eviction by age of *write*,
    /// which is what a content-addressed store can promise without
    /// rewriting entries on every hit. Ties on mtime break by filename so
    /// the pass is deterministic.
    ///
    /// # Errors
    ///
    /// Propagates the `read_dir` failure; per-file metadata or remove
    /// errors are skipped (another process may be racing the same pass).
    pub(crate) fn gc(&self, max_bytes: u64) -> io::Result<GcStats> {
        let mut entries: Vec<(SystemTime, PathBuf, u64)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(self.ext) {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((mtime, path, meta.len()));
        }
        let mut stats = GcStats {
            scanned: entries.len(),
            live_bytes: entries.iter().map(|e| e.2).sum(),
            ..GcStats::default()
        };
        entries.sort();
        let mut it = entries.into_iter();
        while stats.live_bytes > max_bytes {
            let Some((_, path, size)) = it.next() else {
                break;
            };
            if fs::remove_file(&path).is_ok() {
                stats.evicted += 1;
                stats.evicted_bytes += size;
                stats.live_bytes -= size;
            }
        }
        Ok(stats)
    }

    fn header(&self, checksum: u64) -> String {
        format!("{} {checksum:016x}\n", self.magic)
    }

    /// Read blob `name`, verify its frame and key material, and decode the
    /// body with `decode`, which must consume all of it. Has no side
    /// effects: quarantining a [`Blob::Corrupt`] is the caller's call.
    ///
    /// # Errors
    ///
    /// Propagates a read failure other than a missing file (which is a
    /// [`Blob::Miss`]).
    pub fn read<T>(
        &self,
        name: &str,
        material: &[u8],
        decode: impl FnOnce(&mut Dec<'_>) -> Option<T>,
    ) -> io::Result<Blob<T>> {
        let data = match fs::read(self.path(name)) {
            Ok(data) => data,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Blob::Miss),
            Err(e) => return Err(e),
        };
        let Some((header, body)) = data.split_at_checked(self.header(0).len()) else {
            return Ok(Blob::Corrupt);
        };
        if header != self.header(fnv1a64(body)).as_bytes() {
            return Ok(Blob::Corrupt);
        }
        let mut d = Dec::new(body);
        Ok(match d.bytes() {
            None => Blob::Corrupt,
            Some(stored) if stored != material => Blob::Miss,
            Some(_) => match decode(&mut d) {
                Some(v) if d.done() => Blob::Hit(v),
                _ => Blob::Corrupt,
            },
        })
    }

    /// [`read`](Self::read) for a cache: every failure is a miss, and a
    /// corrupt blob is quarantined first so it costs one regeneration,
    /// never a crash or a wrong result.
    pub(crate) fn load<T>(
        &self,
        name: &str,
        material: &[u8],
        decode: impl FnOnce(&mut Dec<'_>) -> Option<T>,
    ) -> Option<T> {
        match self.read(name, material, decode) {
            Ok(Blob::Hit(v)) => Some(v),
            Ok(Blob::Corrupt) => {
                let _ = self.quarantine(name);
                None
            }
            Ok(Blob::Miss) | Err(_) => None,
        }
    }

    /// Write blob `name` atomically: header, `material` and the body that
    /// `body` encodes, in one buffer, through tmp + `sync_all` + `rename`.
    /// Returns the blob's path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the temporary file is removed). A
    /// failed garbage-collection pass never fails the put.
    pub fn put(
        &self,
        name: &str,
        material: &[u8],
        body: impl FnOnce(&mut Enc),
    ) -> io::Result<PathBuf> {
        // Reserve the fixed-width header, then patch in the checksum.
        let header_len = self.header(0).len();
        let mut e = Enc {
            buf: vec![0; header_len],
        };
        e.bytes(material);
        body(&mut e);
        let header = self.header(fnv1a64(&e.buf[header_len..]));
        e.buf[..header_len].copy_from_slice(header.as_bytes());

        let path = self.path(name);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".tmp.{}.{seq}.{name}", std::process::id()));
        let written = fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(&e.buf)?;
                f.sync_all()
            })
            .and_then(|()| fs::rename(&tmp, &path));
        if let Err(err) = written {
            let _ = fs::remove_file(&tmp);
            return Err(err);
        }
        if let Some(cap) = self.max_bytes {
            let _ = self.gc(cap);
        }
        Ok(path)
    }

    /// Move blob `name` into `quarantine/` and return its new path. If
    /// even that fails, remove the blob so it cannot poison every later
    /// read, and return the error.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create `quarantine/` or to move the blob.
    pub fn quarantine(&self, name: &str) -> io::Result<PathBuf> {
        let qdir = self.dir.join("quarantine");
        let qpath = qdir.join(name);
        fs::create_dir_all(&qdir)
            .and_then(|()| fs::rename(self.path(name), &qpath))
            .map(|()| qpath)
            .inspect_err(|_| {
                let _ = fs::remove_file(self.path(name));
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Known FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn counts_are_checked_against_the_bytes_left() {
        let mut e = Enc::default();
        e.usize(3);
        e.buf.extend_from_slice(&[0; 24]);
        // Three 8-byte records fit exactly; three 9-byte ones do not.
        assert_eq!(Dec::new(&e.buf).count(8), Some(3));
        assert_eq!(Dec::new(&e.buf).count(9), None);
        // A count whose byte total overflows is refused, not wrapped.
        for n in [u64::MAX, u64::MAX / 8 + 1, 1 << 61] {
            let mut e = Enc::default();
            e.u64(n);
            e.buf.extend_from_slice(&[0; 64]);
            assert_eq!(Dec::new(&e.buf).count(8), None, "{n}");
        }
        // Zero records fit anywhere, even at the end of the buffer.
        let mut e = Enc::default();
        e.usize(0);
        let mut d = Dec::new(&e.buf);
        assert_eq!(d.count(4096), Some(0));
        assert!(d.done());
    }
}
