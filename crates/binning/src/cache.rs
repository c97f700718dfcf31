//! The out-of-core quantized store: a versioned on-disk cache file plus
//! [`ChunkedStore`], which memory-maps it and streams row-block-aligned
//! chunks through a resident-byte budget with LRU eviction.
//!
//! # Cache file format (version 3, little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "HARPQSC1"
//! 8       4     version (u32)
//! 12      8     header length H (u64)
//! 20      H     header blob
//! 20+H    ...   chunk blobs (at the offsets the chunk table records)
//! ```
//!
//! Header blob:
//!
//! ```text
//! flags u8              bit0 dense
//! n_rows u64 · n_features u64
//! rows_per_chunk u64 · n_chunks u64 · decoded_bytes u64
//! mapper                n_features u64, then per feature {n_cuts u64,
//!                       cuts as f32::to_bits u32…}
//! chunk table           n_chunks × {offset u64, len u64, checksum u64,
//!                       n_rows u64, decoded_bytes u64}
//! ```
//!
//! Cut points are stored as raw `f32` bit patterns (JSON cannot hold the
//! `±inf` cuts the mapper uses), so a reopened mapper is bit-identical and
//! chunked training stays bitwise equal to in-core. Checksums are FNV-1a 64
//! over each chunk blob; [`ChunkedStore::open`] verifies every one up front,
//! and in the same pass checks that every bin a blob stores is one its
//! feature has (the kernels index histograms by bin unchecked), so
//! corruption and hostile bytes surface as a typed [`CacheError`] — never
//! as UB in a scan. Version 2 caches, whose header also described the
//! nibble-packed and bundled layouts, are refused as
//! [`CacheError::BadVersion`].
//!
//! # Building and verifying
//!
//! A chunk blob's length follows from the layout alone, so [`write_cache`]
//! fixes every offset before encoding anything and then runs ⟨chunk-range⟩
//! tasks on scoped threads: a worker encodes a few adjacent chunks into its
//! one buffer, checksums them together (`codec::fnv1a_each` — FNV-1a is a
//! serial chain per blob, so several blobs hash in the time of one) and
//! writes the group at its offset. The bytes do not depend on the thread
//! count. [`ChunkedStore::open`] verifies with the same tasks and names the
//! lowest failing chunk.
//!
//! The file is never rewritten in place: it is built under a sibling
//! temporary name, `sync_all`ed and renamed over the target, so a store that
//! has the previous file mapped keeps reading the previous bytes (truncating
//! a mapped file turns the next page fault into SIGBUS) and a failed build
//! leaves the previous file — or no file — rather than a zeroed header.
//!
//! # Chunk lifecycle
//!
//! `pin(c)` decodes chunk `c`'s blob into a self-contained slab matrix
//! (rows renumbered `0..chunk_len`) on first touch, keeps it in a slot map,
//! and hands back an `Arc` guard. Before each decode the store evicts
//! least-recently-used **unpinned** slabs until the incoming chunk fits the
//! budget, so the resident high-water stays under the budget whenever any
//! one chunk does. A chunk is decoded only by a thread that pins it — the
//! store starts no thread of its own — and a slot's `OnceLock` makes
//! concurrent pinners of one chunk share one decode. Loads and evictions
//! are therefore a function of the order of pins and unpins alone: a run
//! at one thread repeats them exactly. With several threads they follow
//! how the sweeps interleave, which the trainer's sweep throttle keeps
//! within [`sweep_capacity`] of each other.
//!
//! [`sweep_capacity`]: crate::QuantStore::sweep_capacity
//!
//! A mapped slab is a view of the file's pages, so the budget bounds the
//! process's memory only because the store gives pages back: `open`
//! releases each group of blobs once it is hashed (and the whole mapping
//! once every group is), and eviction releases the victim's blob
//! (`madvise(MADV_DONTNEED)` on the whole pages inside it). The mapping's
//! resident pages therefore stay within the budget up to page rounding and
//! the folio a read fault maps around itself, which leaves with its own
//! chunk. A released page refaults exactly the verified bytes: the mapping
//! is private and never written, and the file is never rewritten in place.

use crate::bytes::SharedBytes;
use crate::codec::{fnv1a_each, put_u32, put_u64, Cursor, FNV_LANES};
use crate::mapper::{BinMapper, FeatureCuts};
use crate::quantized::QuantizedMatrix;
use crate::setup::{run_tasks, setup_threads, split_mut, split_ranges};
use crate::store::{ChunkIoStats, PinnedChunk, QuantStore};
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

/// First 8 bytes of every cache file.
pub const CACHE_MAGIC: [u8; 8] = *b"HARPQSC1";
/// Format version this build reads and writes.
pub const CACHE_VERSION: u32 = 3;
/// Default chunk granularity (rows): large enough that a chunk's scan
/// amortizes its decode, small enough that tiny `--mem-budget` values can
/// still hold a handful of chunks resident.
pub const DEFAULT_ROWS_PER_CHUNK: usize = 16 * 1024;

/// Typed failures of cache building, opening, and verification.
#[derive(Debug)]
pub enum CacheError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with [`CACHE_MAGIC`].
    BadMagic,
    /// The file's version is not [`CACHE_VERSION`].
    BadVersion(u32),
    /// The file is shorter than its header or chunk table claims.
    Truncated,
    /// A chunk blob's FNV-1a checksum does not match the table.
    ChecksumMismatch {
        /// Index of the corrupt chunk.
        chunk: usize,
    },
    /// The header or a structure inside it failed to parse, or a chunk
    /// blob's counts disagree with its bytes or its table entry, or it
    /// stores a bin its feature does not have.
    Malformed(String),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache i/o error: {e}"),
            CacheError::BadMagic => write!(f, "not a HarpGBDT quantized cache (bad magic)"),
            CacheError::BadVersion(v) => {
                write!(f, "unsupported cache version {v} (this build reads {CACHE_VERSION})")
            }
            CacheError::Truncated => write!(f, "cache file is truncated"),
            CacheError::ChecksumMismatch { chunk } => {
                write!(f, "chunk {chunk} failed checksum verification (corrupt cache)")
            }
            CacheError::Malformed(m) => write!(f, "malformed cache header: {m}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

/// What a cache build produced, for CLI/bench reporting.
#[derive(Debug, Clone, Copy)]
pub struct CacheSummary {
    /// Rows in the cached matrix.
    pub n_rows: usize,
    /// Chunk count.
    pub n_chunks: usize,
    /// Rows per chunk (last chunk may be shorter).
    pub rows_per_chunk: usize,
    /// Bytes of the cache file on disk.
    pub file_bytes: u64,
    /// Decoded (in-memory-equivalent) bytes across all chunks.
    pub decoded_bytes: u64,
}

const FLAG_DENSE: u8 = 1;
/// Bytes per chunk-table entry: offset, len, checksum, n_rows, decoded.
const TABLE_ENTRY: usize = 40;
/// magic + version + header_len.
const DATA_PRELUDE: u64 = 8 + 4 + 8;

fn encode_mapper(mapper: &BinMapper, out: &mut Vec<u8>) {
    put_u64(out, mapper.n_features() as u64);
    for f in 0..mapper.n_features() {
        let cuts = &mapper.cuts(f).cuts;
        put_u64(out, cuts.len() as u64);
        for &c in cuts {
            put_u32(out, c.to_bits());
        }
    }
}

fn decode_mapper(cur: &mut Cursor<'_>) -> Result<BinMapper, CacheError> {
    let short = || CacheError::Malformed("mapper blob truncated".into());
    let m = cur.get_u64().ok_or_else(short)? as usize;
    // Counts come from the file: reserve no more than its bytes can hold
    // (8 per feature, 4 per cut), so a hostile count is a parse error, not
    // an allocation that aborts.
    let mut features = Vec::with_capacity(m.min(cur.remaining() / 8));
    for _ in 0..m {
        let n_cuts = cur.get_u64().ok_or_else(short)? as usize;
        let mut cuts = Vec::with_capacity(n_cuts.min(cur.remaining() / 4));
        for _ in 0..n_cuts {
            cuts.push(f32::from_bits(cur.get_u32().ok_or_else(short)?));
        }
        features.push(FeatureCuts { cuts });
    }
    Ok(BinMapper::from_cuts(features))
}

#[derive(Debug, Clone, Copy)]
struct ChunkMeta {
    offset: u64,
    len: u64,
    checksum: u64,
    n_rows: u64,
    decoded_bytes: u64,
}

impl ChunkMeta {
    /// The blob's bytes in the file.
    fn span(&self) -> Range<usize> {
        self.offset as usize..(self.offset + self.len) as usize
    }
}

/// Builds the versioned chunk cache for `qm` at `path`, replacing any
/// existing file. Chunks are `rows_per_chunk`-row blocks in row order; the
/// matrix itself is unchanged (the cache is a re-encoding, built once and
/// reopened by [`ChunkedStore`] on later runs).
///
/// The file is built under a sibling temporary name, synced, and renamed
/// over `path`: a store that has the previous file mapped keeps reading the
/// previous bytes, and a failed or interrupted build leaves `path` as it
/// was (the temporary file is removed on any error).
///
/// # Errors
/// [`CacheError::Io`] of kind [`std::io::ErrorKind::InvalidInput`] when
/// `rows_per_chunk` is 0 or `qm` has no rows (nothing is written then), and
/// any filesystem failure.
pub fn write_cache(
    qm: &QuantizedMatrix,
    rows_per_chunk: usize,
    path: &Path,
) -> Result<CacheSummary, CacheError> {
    let invalid = |msg| CacheError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg));
    if rows_per_chunk == 0 {
        return Err(invalid("rows per chunk must be positive"));
    }
    if qm.n_rows() == 0 {
        return Err(invalid("cannot cache an empty matrix"));
    }
    static BUILDS: AtomicU64 = AtomicU64::new(0);
    let mut temp = path.as_os_str().to_owned();
    temp.push(format!(".tmp.{}.{}", std::process::id(), BUILDS.fetch_add(1, Relaxed)));
    let temp = std::path::PathBuf::from(temp);
    let built = write_cache_file(qm, rows_per_chunk, &temp, setup_threads()).and_then(|summary| {
        std::fs::rename(&temp, path)?;
        // The rename is durable once the directory entry is.
        #[cfg(unix)]
        File::open(path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new(".")))?
            .sync_all()?;
        Ok(summary)
    });
    if built.is_err() {
        let _ = std::fs::remove_file(&temp);
    }
    built
}

/// Writes the cache file itself (at its temporary path). Chunk blob lengths
/// are known before encoding, so every offset is laid out first and the
/// chunks are encoded, checksummed and written as ⟨chunk-range⟩ tasks, each
/// worker reusing one blob buffer.
fn write_cache_file(
    qm: &QuantizedMatrix,
    rows_per_chunk: usize,
    path: &Path,
    threads: usize,
) -> Result<CacheSummary, CacheError> {
    let n_rows = qm.n_rows();
    let n_chunks = n_rows.div_ceil(rows_per_chunk);
    let chunk_rows = |c: usize| c * rows_per_chunk..((c + 1) * rows_per_chunk).min(n_rows);

    let mut mapper_blob = Vec::new();
    encode_mapper(qm.mapper(), &mut mapper_blob);
    // flags + 5 scalars + mapper + table.
    let header_len = 1 + 5 * 8 + mapper_blob.len() + n_chunks * TABLE_ENTRY;

    let mut offset = DATA_PRELUDE + header_len as u64;
    let mut table: Vec<ChunkMeta> = (0..n_chunks)
        .map(|c| {
            let meta = ChunkMeta {
                offset,
                len: qm.encoded_chunk_bytes(chunk_rows(c)) as u64,
                checksum: 0,
                n_rows: chunk_rows(c).len() as u64,
                decoded_bytes: qm.chunk_storage_bytes(chunk_rows(c)) as u64,
            };
            offset += meta.len;
            meta
        })
        .collect();
    let decoded_total: u64 = table.iter().map(|m| m.decoded_bytes).sum();

    let file = Mutex::new(File::options().write(true).create_new(true).open(path)?);
    let ranges = split_ranges(n_chunks, threads, 1);
    // One buffer per worker, holding a group of adjacent blobs. Allocated
    // here and lent to the workers, like pass 1's key buffers.
    let group_bytes = |group: &[ChunkMeta]| group.iter().map(|m| m.len as usize).sum::<usize>();
    let mut buffers: Vec<Vec<u8>> = ranges
        .iter()
        .map(|r| table[r.clone()].chunks(FNV_LANES).map(group_bytes).max().unwrap_or(0))
        .map(Vec::with_capacity)
        .collect();
    let mut results: Vec<std::io::Result<()>> = ranges.iter().map(|_| Ok(())).collect();
    let metas = split_mut(&mut table, ranges.iter().map(|r| r.len()));
    let mut tasks = Vec::new();
    for (((range, metas), buffer), result) in
        ranges.into_iter().zip(metas).zip(&mut buffers).zip(&mut results)
    {
        let file = &file;
        tasks.push(move || {
            let groups = range.step_by(FNV_LANES).zip(metas.chunks_mut(FNV_LANES));
            *result = groups.into_iter().try_for_each(|(first, group)| {
                buffer.clear();
                for (c, meta) in (first..).zip(group.iter()) {
                    qm.encode_chunk(chunk_rows(c), buffer);
                    let end = meta.offset + meta.len - group[0].offset;
                    assert_eq!(buffer.len() as u64, end, "chunk {c} blob length");
                }
                let base = group[0].offset;
                let blobs: Vec<&[u8]> = group
                    .iter()
                    .map(|meta| &buffer[(meta.offset - base) as usize..][..meta.len as usize])
                    .collect();
                for (meta, sum) in group.iter_mut().zip(fnv1a_each(&blobs)) {
                    meta.checksum = sum;
                }
                let mut file = file.lock().expect("a cache writer panicked");
                file.seek(SeekFrom::Start(group[0].offset))?;
                file.write_all(buffer)
            });
        });
    }
    run_tasks(tasks);
    results.into_iter().collect::<std::io::Result<()>>()?;

    let mut header = Vec::with_capacity(DATA_PRELUDE as usize + header_len);
    header.extend_from_slice(&CACHE_MAGIC);
    put_u32(&mut header, CACHE_VERSION);
    put_u64(&mut header, header_len as u64);
    header.push(if qm.is_dense() { FLAG_DENSE } else { 0 });
    put_u64(&mut header, n_rows as u64);
    put_u64(&mut header, qm.n_features() as u64);
    put_u64(&mut header, rows_per_chunk as u64);
    put_u64(&mut header, n_chunks as u64);
    put_u64(&mut header, decoded_total);
    header.extend_from_slice(&mapper_blob);
    for m in &table {
        put_u64(&mut header, m.offset);
        put_u64(&mut header, m.len);
        put_u64(&mut header, m.checksum);
        put_u64(&mut header, m.n_rows);
        put_u64(&mut header, m.decoded_bytes);
    }
    debug_assert_eq!(header.len(), DATA_PRELUDE as usize + header_len);
    let mut file = file.into_inner().expect("a cache writer panicked");
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header)?;
    file.sync_all()?;

    Ok(CacheSummary {
        n_rows,
        n_chunks,
        rows_per_chunk,
        file_bytes: offset,
        decoded_bytes: decoded_total,
    })
}

/// A read-only `mmap(2)` of the cache file, and `madvise(2)` to hand its
/// pages back. Minimal FFI — `libc` is always linked on the platforms we
/// build for, so no new dependency.
#[cfg(unix)]
mod map {
    use std::ffi::{c_int, c_void};
    use std::ops::Range;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        fn sysconf(name: c_int) -> std::ffi::c_long;
    }

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    #[cfg(target_os = "linux")]
    const MADV_DONTNEED: c_int = 4;
    #[cfg(target_os = "linux")]
    const SC_PAGESIZE: c_int = 30;

    /// The kernel's page size, `sysconf(_SC_PAGESIZE)`.
    #[cfg(target_os = "linux")]
    pub(super) fn page_size() -> Option<usize> {
        // SAFETY: sysconf only reads a constant of the running system.
        let page = unsafe { sysconf(SC_PAGESIZE) };
        usize::try_from(page).ok().filter(|p| p.is_power_of_two())
    }

    pub(super) struct Mmap {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is read-only and lives until Drop.
    unsafe impl Send for Mmap {}
    // SAFETY: as for `Send`: nothing writes to a read-only mapping, so any
    // number of threads may read it at once.
    unsafe impl Sync for Mmap {}

    impl Mmap {
        pub(super) fn new(file: &std::fs::File, len: usize) -> Option<Self> {
            if len == 0 {
                return None;
            }
            // SAFETY: PROT_READ + MAP_PRIVATE over a file we hold open; the
            // result is checked against MAP_FAILED before use.
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr == usize::MAX as *mut c_void || ptr.is_null() {
                return None;
            }
            Some(Self { ptr: ptr.cast(), len })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: the mapping covers `len` readable bytes until Drop.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }

        /// Hands the whole pages inside `range` back to the kernel, so they
        /// stop counting toward the process's resident set. The start is
        /// rounded up and the end down: a page shared with a neighbouring
        /// blob stays. Views into the range stay valid and read the same
        /// bytes, at the price of a page fault each.
        #[cfg(target_os = "linux")]
        pub(super) fn release(&self, range: Range<usize>) {
            let Some(page) = page_size() else { return };
            // `ptr` is page-aligned, so offsets round like addresses.
            let start = range.start.next_multiple_of(page);
            let end = range.end.min(self.len) / page * page;
            if start < end {
                // SAFETY: `start..end` is whole pages inside the mapping. It
                // is PROT_READ + MAP_PRIVATE and never written, so it holds
                // no private copies, and the file is never rewritten in
                // place (`write_cache` renames a new file over it): a
                // released page refaults from the file exactly the bytes
                // `open`'s checksum verified. A failure only leaves the
                // pages resident.
                unsafe {
                    madvise(self.ptr.add(start).cast_mut().cast(), end - start, MADV_DONTNEED)
                };
            }
        }

        /// Other kernels take `MADV_DONTNEED` as a hint; the pages stay.
        #[cfg(not(target_os = "linux"))]
        pub(super) fn release(&self, _: Range<usize>) {}
    }

    impl AsRef<[u8]> for Mmap {
        fn as_ref(&self) -> &[u8] {
            self.as_slice()
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: unmapping exactly what new() mapped.
            unsafe { munmap(self.ptr as *mut c_void, self.len) };
        }
    }
}

/// Where chunk blobs are read from: the mapping when `mmap` succeeded,
/// positioned reads otherwise, a heap copy on non-unix targets. Mapped and
/// heap sources sit behind an `Arc` so a decoded slab can hold zero-copy
/// [`SharedBytes`] views of the blob instead of copying it out.
enum Source {
    #[cfg(unix)]
    Mapped(Arc<map::Mmap>),
    #[cfg(unix)]
    File(File),
    #[allow(dead_code)]
    Heap(Arc<Vec<u8>>),
}

impl Source {
    /// One chunk's blob as a shared buffer. Mapped and heap sources hand
    /// out a view of the backing (no copy — for a mapping, decode then
    /// reads straight from page cache); a plain-file source materializes
    /// the blob once and the slab's buffers view that single allocation.
    fn blob(&self, meta: &ChunkMeta) -> std::io::Result<SharedBytes> {
        match self {
            #[cfg(unix)]
            Source::Mapped(m) => Ok(SharedBytes::from_backing(m.clone(), meta.span())),
            #[cfg(unix)]
            Source::File(file) => {
                use std::os::unix::fs::FileExt;
                let mut buf = vec![0u8; meta.len as usize];
                file.read_exact_at(&mut buf, meta.offset)?;
                Ok(SharedBytes::from(buf))
            }
            Source::Heap(bytes) => Ok(SharedBytes::from_backing(bytes.clone(), meta.span())),
        }
    }

    /// Hands file bytes `range` back once the store stops referencing
    /// them ([`map::Mmap::release`]). A plain-file source has nothing to
    /// return — its slabs own heap copies, which eviction frees — and the
    /// heap source holds the whole file for the store's life.
    fn release(&self, range: Range<usize>) {
        match self {
            #[cfg(unix)]
            Source::Mapped(m) => m.release(range),
            #[cfg(unix)]
            Source::File(_) => {}
            Source::Heap(_) => {}
        }
    }
}

/// Checks chunks `range` against their table checksums, a few blobs at a
/// time ([`fnv1a_each`]), and, while the group is resident, each blob's
/// counts against its bytes and its table entry and each stored bin against
/// its feature ([`QuantizedMatrix::check_chunk`]): a blob is input from
/// outside the program, and one whose checksum matches may still lie. Each
/// group is released once it is checked. The error names the lowest
/// failing chunk.
fn verify_chunks(
    source: &Source,
    table: &[ChunkMeta],
    mapper: &BinMapper,
    range: Range<usize>,
) -> Result<(), CacheError> {
    for start in range.clone().step_by(FNV_LANES) {
        let group = start..(start + FNV_LANES).min(range.end);
        let blobs = table[group.clone()]
            .iter()
            .map(|meta| source.blob(meta))
            .collect::<std::io::Result<Vec<SharedBytes>>>()?;
        let sums = fnv1a_each(&blobs.iter().map(|b| &b[..]).collect::<Vec<_>>());
        let checked: Vec<_> =
            blobs.iter().map(|b| QuantizedMatrix::check_chunk(b, mapper)).collect();
        for meta in &table[group.clone()] {
            source.release(meta.span());
        }
        for ((c, sum), checked) in group.zip(sums).zip(checked) {
            if sum != table[c].checksum {
                return Err(CacheError::ChecksumMismatch { chunk: c });
            }
            match checked {
                Err(e) => return Err(CacheError::Malformed(format!("chunk {c}: {e}"))),
                Ok(rows) if rows as u64 != table[c].n_rows => {
                    return Err(CacheError::Malformed(format!(
                        "chunk {c} holds another row count than its table entry"
                    )));
                }
                Ok(_) => {}
            }
        }
    }
    Ok(())
}

/// One chunk's residency slot. Handles are cloned out of the map so decode
/// runs without holding the map lock; the `OnceLock` serializes concurrent
/// loaders of the same chunk.
#[derive(Clone)]
struct Slot {
    cell: Arc<OnceLock<Arc<QuantizedMatrix>>>,
    last_used: Arc<AtomicU64>,
}

impl Slot {
    fn empty() -> Self {
        Self { cell: Arc::new(OnceLock::new()), last_used: Arc::new(AtomicU64::new(0)) }
    }
}

struct Inner {
    source: Source,
    mapper: BinMapper,
    table: Vec<ChunkMeta>,
    n_rows: usize,
    n_features: usize,
    rows_per_chunk: usize,
    dense: bool,
    decoded_bytes: u64,
    budget: u64,
    slots: Mutex<HashMap<usize, Slot>>,
    clock: AtomicU64,
    resident: AtomicU64,
    high_water: AtomicU64,
    loads: AtomicU64,
    evictions: AtomicU64,
}

impl Inner {
    fn decode(&self, c: usize) -> QuantizedMatrix {
        let meta = &self.table[c];
        let blob = self
            .source
            .blob(meta)
            .unwrap_or_else(|e| panic!("cache chunk {c} read failed after open verified it: {e}"));
        let slab = QuantizedMatrix::decode_chunk(&blob, &self.mapper).unwrap_or_else(|e| {
            panic!("cache chunk {c} decode failed after open verified it: {e}")
        });
        debug_assert_eq!(slab.n_rows() as u64, meta.n_rows);
        slab
    }

    /// Evicts LRU unpinned slabs until `extra` more bytes fit the budget,
    /// then reserves those bytes — eviction and reservation share one
    /// critical section so concurrent loaders cannot jointly overshoot the
    /// budget (each sees the others' reservations). The high-water can
    /// still exceed a budget that is smaller than the chunks concurrently
    /// pinned by scanning workers: pinned slabs never leave. The victims'
    /// blobs are released once the lock is dropped; a concurrent re-pin of
    /// one only refaults the same bytes.
    fn reserve(&self, extra: u64, keep: usize) {
        let mut victims = Vec::new();
        let mut slots = self.slots.lock().unwrap();
        while self.resident.load(Relaxed) + extra > self.budget {
            let victim = slots
                .iter()
                .filter(|&(&k, _)| k != keep)
                .filter_map(|(&k, s)| {
                    let m = s.cell.get()?;
                    (Arc::strong_count(m) == 1).then(|| (k, s.last_used.load(Relaxed)))
                })
                .min_by_key(|&(_, t)| t)
                .map(|(k, _)| k);
            let Some(k) = victim else { break };
            slots.remove(&k);
            victims.push(k);
            self.resident.fetch_sub(self.table[k].decoded_bytes, Relaxed);
            self.evictions.fetch_add(1, Relaxed);
        }
        let now = self.resident.fetch_add(extra, Relaxed) + extra;
        self.high_water.fetch_max(now, Relaxed);
        drop(slots);
        for k in victims {
            self.source.release(self.table[k].span());
        }
    }
}

/// The out-of-core [`QuantStore`]: row-block chunks streamed from a cache
/// file built by [`write_cache`], under `mem_budget` resident decoded bytes
/// with LRU eviction. A chunk is decoded by the thread that pins it; the
/// store runs no thread of its own. See the [module docs](self).
pub struct ChunkedStore {
    inner: Inner,
    file_bytes: u64,
}

impl ChunkedStore {
    /// Opens and fully verifies a cache file: magic, version, header
    /// structure, and every chunk's checksum, counts and bins. Nothing is
    /// decoded yet; chunks load lazily on [`pin`](QuantStore::pin).
    pub fn open(path: &Path, mem_budget: u64) -> Result<Self, CacheError> {
        Self::open_on(path, mem_budget, setup_threads())
    }

    /// [`open`](Self::open), verifying on `threads` threads.
    fn open_on(path: &Path, mem_budget: u64, threads: usize) -> Result<Self, CacheError> {
        let mut file = File::open(path)?;
        let file_bytes = file.metadata()?.len();
        let mut prelude = [0u8; DATA_PRELUDE as usize];
        file.read_exact(&mut prelude).map_err(|_| CacheError::Truncated)?;
        if prelude[..8] != CACHE_MAGIC {
            return Err(CacheError::BadMagic);
        }
        let version = u32::from_le_bytes(prelude[8..12].try_into().unwrap());
        if version != CACHE_VERSION {
            return Err(CacheError::BadVersion(version));
        }
        let header_len = u64::from_le_bytes(prelude[12..20].try_into().unwrap());
        if DATA_PRELUDE + header_len > file_bytes {
            return Err(CacheError::Truncated);
        }
        let mut header = vec![0u8; header_len as usize];
        file.read_exact(&mut header).map_err(|_| CacheError::Truncated)?;

        let short = || CacheError::Malformed("header truncated".into());
        let mut cur = Cursor::new(&header);
        let flags = cur.get_u8().ok_or_else(short)?;
        let n_rows = cur.get_u64().ok_or_else(short)? as usize;
        let n_features = cur.get_u64().ok_or_else(short)? as usize;
        let rows_per_chunk = cur.get_u64().ok_or_else(short)? as usize;
        let n_chunks = cur.get_u64().ok_or_else(short)? as usize;
        let decoded_bytes = cur.get_u64().ok_or_else(short)?;
        let mapper = decode_mapper(&mut cur)?;
        if mapper.n_features() != n_features {
            return Err(CacheError::Malformed("mapper/header feature count disagree".into()));
        }
        if rows_per_chunk == 0 || n_chunks != n_rows.div_ceil(rows_per_chunk) {
            return Err(CacheError::Malformed("chunk geometry inconsistent".into()));
        }
        let mut table = Vec::with_capacity(n_chunks.min(cur.remaining() / TABLE_ENTRY));
        let mut rows_total = 0u64;
        for _ in 0..n_chunks {
            let meta = ChunkMeta {
                offset: cur.get_u64().ok_or_else(short)?,
                len: cur.get_u64().ok_or_else(short)?,
                checksum: cur.get_u64().ok_or_else(short)?,
                n_rows: cur.get_u64().ok_or_else(short)?,
                decoded_bytes: cur.get_u64().ok_or_else(short)?,
            };
            if meta.offset.checked_add(meta.len).is_none_or(|end| end > file_bytes) {
                return Err(CacheError::Truncated);
            }
            rows_total += meta.n_rows;
            table.push(meta);
        }
        if cur.remaining() != 0 || rows_total != n_rows as u64 {
            return Err(CacheError::Malformed("chunk table inconsistent".into()));
        }

        #[cfg(unix)]
        let source = match map::Mmap::new(&file, file_bytes as usize) {
            Some(m) => Source::Mapped(Arc::new(m)),
            None => Source::File(file),
        };
        #[cfg(not(unix))]
        let source = {
            let mut bytes = Vec::with_capacity(file_bytes as usize);
            file.seek(SeekFrom::Start(0))?;
            file.read_to_end(&mut bytes)?;
            Source::Heap(Arc::new(bytes))
        };

        // Verify every chunk before handing out data: a flipped bit fails
        // here as a typed error instead of decoding garbage mid-train.
        // ⟨chunk-range⟩ tasks; ranges ascend, so the first failure in task
        // order is the lowest failing chunk. Each task holds one group of
        // blobs resident at a time; the final release drops what a group's
        // release cannot: the pages blobs share, and those a read fault
        // mapped ahead of a task into blobs another task already released.
        let ranges = split_ranges(n_chunks, threads, 1);
        let mut verdicts: Vec<Result<(), CacheError>> = ranges.iter().map(|_| Ok(())).collect();
        let mut tasks = Vec::new();
        for (range, verdict) in ranges.into_iter().zip(&mut verdicts) {
            let (source, table, mapper) = (&source, &table, &mapper);
            tasks.push(move || *verdict = verify_chunks(source, table, mapper, range));
        }
        run_tasks(tasks);
        source.release(0..file_bytes as usize);
        verdicts.into_iter().collect::<Result<(), CacheError>>()?;

        let inner = Inner {
            source,
            mapper,
            table,
            n_rows,
            n_features,
            rows_per_chunk,
            dense: flags & FLAG_DENSE != 0,
            decoded_bytes,
            budget: mem_budget,
            slots: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        };
        Ok(Self { inner, file_bytes })
    }

    /// The geometry and size summary of the opened cache.
    pub fn summary(&self) -> CacheSummary {
        CacheSummary {
            n_rows: self.inner.n_rows,
            n_chunks: self.inner.table.len(),
            rows_per_chunk: self.inner.rows_per_chunk,
            file_bytes: self.file_bytes,
            decoded_bytes: self.inner.decoded_bytes,
        }
    }

    /// The resident-byte budget this store was opened with.
    pub fn mem_budget(&self) -> u64 {
        self.inner.budget
    }
}

impl QuantStore for ChunkedStore {
    fn n_rows(&self) -> usize {
        self.inner.n_rows
    }

    fn n_features(&self) -> usize {
        self.inner.n_features
    }

    fn mapper(&self) -> &BinMapper {
        &self.inner.mapper
    }

    fn is_dense(&self) -> bool {
        self.inner.dense
    }

    fn storage_bytes(&self) -> usize {
        self.inner.decoded_bytes as usize
    }

    fn n_chunks(&self) -> usize {
        self.inner.table.len()
    }

    fn chunk_rows(&self, c: usize) -> Range<usize> {
        let start = c * self.inner.rows_per_chunk;
        start..(start + self.inner.table[c].n_rows as usize)
    }

    fn chunk_of_row(&self, row: usize) -> usize {
        row / self.inner.rows_per_chunk
    }

    fn sweep_capacity(&self) -> usize {
        let largest = self.inner.table.iter().map(|m| m.decoded_bytes).max().unwrap_or(1).max(1);
        let cap = (self.inner.budget / largest) as usize;
        if cap >= self.inner.table.len() {
            usize::MAX
        } else {
            cap.max(1)
        }
    }

    /// Decodes on the calling thread on a miss. Concurrent pinners of one
    /// absent chunk wait on its slot's `OnceLock`, so it is decoded and
    /// counted once.
    fn pin(&self, c: usize) -> PinnedChunk<'_> {
        let inner = &self.inner;
        let slot = {
            let mut slots = inner.slots.lock().unwrap();
            let slot = slots.entry(c).or_insert_with(Slot::empty).clone();
            slot.last_used.store(inner.clock.fetch_add(1, Relaxed) + 1, Relaxed);
            slot
        };
        let slab = slot.cell.get_or_init(|| {
            // Make room and reserve *before* decoding so the resident
            // high-water stays under budget whenever the concurrently
            // pinned chunks fit it.
            inner.reserve(inner.table[c].decoded_bytes, c);
            let slab = inner.decode(c);
            inner.loads.fetch_add(1, Relaxed);
            Arc::new(slab)
        });
        PinnedChunk::Cached(slab.clone())
    }

    fn io_stats(&self) -> ChunkIoStats {
        ChunkIoStats {
            chunk_loads: self.inner.loads.load(Relaxed),
            chunk_evictions: self.inner.evictions.load(Relaxed),
            resident_bytes: self.inner.resident.load(Relaxed),
            resident_high_water: self.inner.high_water.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::fnv1a;
    use crate::mapper::BinningConfig;
    use harp_data::{CsrMatrix, DenseMatrix, FeatureMatrix};

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir();
        dir.join(format!("harp_cache_test_{tag}_{}.qsc", std::process::id()))
    }

    fn dense_qm(n: usize, m: usize) -> QuantizedMatrix {
        let vals: Vec<f32> = (0..n * m)
            .map(|i| if i % 29 == 0 { f32::NAN } else { ((i * 31) % 23) as f32 })
            .collect();
        QuantizedMatrix::from_matrix(
            &FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, vals)),
            BinningConfig::default(),
        )
    }

    fn sparse_qm(n: usize, m: usize) -> QuantizedMatrix {
        let rows: Vec<Vec<(u32, f32)>> = (0..n)
            .map(|r| {
                (0..m)
                    .filter(|f| (r + f) % 3 != 0)
                    .map(|f| (f as u32, ((r * f) % 11) as f32))
                    .collect()
            })
            .collect();
        QuantizedMatrix::from_matrix(
            &FeatureMatrix::Sparse(CsrMatrix::from_rows(m, &rows)),
            BinningConfig::default(),
        )
    }

    fn assert_store_matches(qm: &QuantizedMatrix, store: &ChunkedStore) {
        assert_eq!(QuantStore::n_rows(store), qm.n_rows());
        assert_eq!(QuantStore::n_features(store), qm.n_features());
        assert_eq!(QuantStore::is_dense(store), qm.is_dense());
        // Advertised decoded bytes equal the real slab total (per-chunk
        // indptr/CSC overhead means this can exceed the monolithic matrix).
        let slab_total: usize = (0..store.n_chunks()).map(|c| store.pin(c).storage_bytes()).sum();
        assert_eq!(QuantStore::storage_bytes(store), slab_total);
        assert!(QuantStore::storage_bytes(store) >= qm.storage_bytes() / 2);
        assert_eq!(
            serde_json::to_string(QuantStore::mapper(store)).unwrap(),
            serde_json::to_string(qm.mapper()).unwrap(),
            "reopened mapper must be bit-identical"
        );
        for c in 0..store.n_chunks() {
            let span = store.chunk_rows(c);
            let slab = store.pin(c);
            for (local, global) in span.clone().enumerate() {
                for f in 0..qm.n_features() {
                    assert_eq!(slab.bin(local, f), qm.bin(global, f), "cell ({global},{f})");
                }
            }
        }
    }

    #[test]
    fn cache_round_trips_dense() {
        let qm = dense_qm(100, 4);
        let path = tmp_path("dense");
        let summary = write_cache(&qm, 32, &path).unwrap();
        assert_eq!(summary.n_chunks, 4);
        assert_eq!(summary.decoded_bytes as usize, qm.storage_bytes());
        let store = ChunkedStore::open(&path, u64::MAX).unwrap();
        assert_store_matches(&qm, &store);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cache_round_trips_sparse() {
        let qm = sparse_qm(90, 6);
        assert!(qm.sparse_row(0).is_some());
        let path = tmp_path("sparse");
        write_cache(&qm, 25, &path).unwrap();
        let store = ChunkedStore::open(&path, u64::MAX).unwrap();
        assert_store_matches(&qm, &store);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stored_cells_is_exact_and_chunking_does_not_move_it() {
        let sparse = sparse_qm(90, 6);
        let entries = sparse.sparse_csr().expect("CSR storage").1.len() as u64;
        assert_eq!(QuantStore::stored_cells(&sparse), entries);
        let dense = dense_qm(100, 4);
        assert_eq!(QuantStore::stored_cells(&dense), 400);
        for (tag, qm, rows_per_chunk) in [("cells_s", &sparse, 25), ("cells_d", &dense, 32)] {
            let path = tmp_path(tag);
            write_cache(qm, rows_per_chunk, &path).unwrap();
            let store = ChunkedStore::open(&path, u64::MAX).unwrap();
            assert!(store.n_chunks() > 1);
            assert_eq!(store.stored_cells(), QuantStore::stored_cells(qm));
            drop(store);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn tiny_budget_evicts_and_counts() {
        let qm = dense_qm(256, 4);
        let path = tmp_path("evict");
        write_cache(&qm, 32, &path).unwrap();
        let per_chunk = qm.chunk_storage_bytes(0..32) as u64;
        // Room for one chunk only: each new pin evicts the previous one.
        let store = ChunkedStore::open(&path, per_chunk).unwrap();
        for c in 0..store.n_chunks() {
            let _slab = store.pin(c);
        }
        let stats = store.io_stats();
        assert_eq!(stats.chunk_loads, 8);
        assert!(stats.chunk_evictions >= 7, "evictions: {}", stats.chunk_evictions);
        assert!(stats.resident_high_water <= per_chunk.max(stats.resident_bytes));
        // Re-pinning chunk 0 after eviction re-decodes it.
        let _slab = store.pin(0);
        assert!(store.io_stats().chunk_loads >= 9);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn roomy_budget_keeps_everything_resident() {
        let qm = dense_qm(256, 4);
        let path = tmp_path("roomy");
        write_cache(&qm, 32, &path).unwrap();
        let store = ChunkedStore::open(&path, u64::MAX).unwrap();
        for _ in 0..3 {
            for c in 0..store.n_chunks() {
                let _slab = store.pin(c);
            }
        }
        let stats = store.io_stats();
        assert_eq!(stats.chunk_loads, 8, "every chunk decoded exactly once");
        assert_eq!(stats.chunk_evictions, 0);
        assert_eq!(stats.resident_bytes as usize, qm.storage_bytes());
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pinned_chunks_survive_a_zero_budget() {
        let qm = dense_qm(64, 4);
        let path = tmp_path("pinned");
        write_cache(&qm, 16, &path).unwrap();
        let store = ChunkedStore::open(&path, 0).unwrap();
        let a = store.pin(0);
        let b = store.pin(1);
        // Both pins outstanding: neither may be evicted out from under us.
        assert_eq!(a.bin(0, 0), qm.bin(0, 0));
        assert_eq!(b.bin(0, 0), qm.bin(16, 0));
        assert_eq!(store.io_stats().chunk_evictions, 0);
        drop((a, b));
        let _c = store.pin(2);
        assert!(store.io_stats().chunk_evictions >= 1, "unpinned slabs now evictable");
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_chunk_fails_with_typed_error() {
        let qm = dense_qm(64, 4);
        let path = tmp_path("corrupt");
        write_cache(&qm, 16, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1; // inside the final chunk blob
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match ChunkedStore::open(&path, u64::MAX) {
            Err(CacheError::ChecksumMismatch { chunk: 3 }) => {}
            Err(other) => panic!("expected checksum mismatch on chunk 3, got {other:?}"),
            Ok(_) => panic!("corrupt cache opened cleanly"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// The file does not depend on how many ⟨chunk-range⟩ tasks wrote it:
    /// dense and sparse, more threads than chunks included.
    #[test]
    fn cache_bytes_are_identical_at_any_thread_count() {
        for (tag, qm, rows_per_chunk) in [("d", dense_qm(300, 4), 32), ("s", sparse_qm(90, 6), 7)] {
            let file_at = |threads: usize| {
                let path = tmp_path(&format!("threads_{tag}{threads}"));
                write_cache_file(&qm, rows_per_chunk, &path, threads).unwrap();
                let bytes = std::fs::read(&path).unwrap();
                std::fs::remove_file(&path).unwrap();
                bytes
            };
            let one = file_at(1);
            for threads in [2, 3, 64] {
                assert!(one == file_at(threads), "{tag}: {threads} threads wrote another file");
            }
        }
    }

    #[test]
    fn open_names_the_lowest_corrupt_chunk_at_any_thread_count() {
        let qm = dense_qm(320, 4);
        let path = tmp_path("corrupt2");
        write_cache(&qm, 16, &path).unwrap();
        let store = ChunkedStore::open(&path, 0).unwrap();
        let table = store.inner.table.clone();
        drop(store);
        assert_eq!(table.len(), 20);
        let mut bytes = std::fs::read(&path).unwrap();
        for c in [6, 17] {
            bytes[(table[c].offset + table[c].len / 2) as usize] ^= 1;
        }
        std::fs::write(&path, &bytes).unwrap();
        for threads in [1, 2, 3, 5, 64] {
            match ChunkedStore::open_on(&path, 0, threads) {
                Err(CacheError::ChecksumMismatch { chunk: 6 }) => {}
                Err(other) => panic!("{threads} threads: expected chunk 6, got {other:?}"),
                Ok(_) => panic!("corrupt cache opened cleanly"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Rewriting the cache a store has open replaces the file: the open
    /// store keeps reading the bytes it verified (an in-place rewrite would
    /// fault or hand it the new ones), and a fresh open sees the new file.
    #[test]
    fn rewriting_an_open_cache_replaces_the_file() {
        let (old, new) = (dense_qm(200, 4), sparse_qm(130, 5));
        let path = tmp_path("replace");
        write_cache(&old, 32, &path).unwrap();
        let store = ChunkedStore::open(&path, u64::MAX).unwrap();
        write_cache(&new, 25, &path).unwrap();
        assert_store_matches(&old, &store);
        assert_store_matches(&new, &ChunkedStore::open(&path, u64::MAX).unwrap());
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    /// A build that fails leaves the previous cache openable and no
    /// temporary file behind.
    #[test]
    fn a_failed_write_leaves_the_previous_cache_and_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("harp_cache_fail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (old, new) = (dense_qm(64, 3), dense_qm(96, 3));
        let path = dir.join("train.qsc");
        write_cache(&old, 16, &path).unwrap();
        // The target's parent is not a directory; the target is one.
        for target in [path.join("nested.qsc"), dir.clone()] {
            assert!(matches!(write_cache(&new, 16, &target), Err(CacheError::Io(_))));
        }
        assert_store_matches(&old, &ChunkedStore::open(&path, u64::MAX).unwrap());
        let temps_beside = |of: &Path| -> Vec<String> {
            let prefix = format!("{}.tmp.", of.file_name().unwrap().to_str().unwrap());
            let entries = std::fs::read_dir(of.parent().unwrap()).unwrap();
            entries
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|name| name.starts_with(&prefix))
                .collect()
        };
        assert_eq!(temps_beside(&path), Vec::<String>::new());
        assert_eq!(temps_beside(&dir), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A zero chunk height or a matrix with no rows is the caller's input,
    /// not a bug: an `InvalidInput` error, with no file and no temporary
    /// file left behind.
    #[test]
    fn invalid_input_is_a_typed_error_and_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("harp_cache_invalid_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.qsc");
        for (qm, rows_per_chunk) in [(dense_qm(10, 3), 0), (dense_qm(0, 3), 16)] {
            match write_cache(&qm, rows_per_chunk, &path) {
                Err(CacheError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
                other => panic!("expected an InvalidInput error, got {other:?}"),
            }
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "the build wrote a file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_version_and_truncation_are_typed() {
        let qm = dense_qm(32, 3);
        let path = tmp_path("magic");
        write_cache(&qm, 16, &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(ChunkedStore::open(&path, 0), Err(CacheError::BadMagic)));

        let mut bad = good.clone();
        bad[8] = 99;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(ChunkedStore::open(&path, 0), Err(CacheError::BadVersion(99))));

        std::fs::write(&path, &good[..good.len() - 10]).unwrap();
        assert!(matches!(
            ChunkedStore::open(&path, 0),
            Err(CacheError::Truncated | CacheError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn gather_route_bins_matches_in_memory() {
        for (tag, qm) in [("d", dense_qm(120, 4)), ("s", sparse_qm(120, 5))] {
            // Four 32-row chunks, then the whole matrix as one chunk.
            for rows_per_chunk in [32, 120] {
                let path = tmp_path(&format!("gather_{tag}{rows_per_chunk}"));
                write_cache(&qm, rows_per_chunk, &path).unwrap();
                let store = ChunkedStore::open(&path, u64::MAX).unwrap();
                assert_eq!(store.n_chunks(), 120usize.div_ceil(rows_per_chunk));
                let rows: Vec<u32> = (0..qm.n_rows() as u32).step_by(3).collect();
                for f in 0..qm.n_features() {
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    QuantStore::gather_route_bins(&qm, f, &rows, &mut a);
                    store.gather_route_bins(f, &rows, &mut b);
                    assert_eq!(a, b, "feature {f}, {rows_per_chunk}-row chunks");
                }
                drop(store);
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    /// The route in-core sparse splits took before routing walked the CSC
    /// column: a binary search of each listed row's CSR entries. The oracle
    /// of [`QuantizedMatrix::route_bins_for`]'s column walk.
    fn route_by_row_search(qm: &QuantizedMatrix, f: usize, rows: &[u32]) -> Vec<u8> {
        rows.iter()
            .map(|&r| {
                let (cols, bins) = qm.sparse_row(r as usize).expect("sparse storage");
                cols.binary_search(&(f as u32)).map_or(crate::MISSING_BIN, |i| bins[i])
            })
            .collect()
    }

    /// Column-walk routing equals the per-row search, in core and through a
    /// ten-chunk store, over columns that hold every row, every seventh
    /// row, only the rows below 200, one row and none, and over node row
    /// lists that are empty, one row, rows past a column's last entry,
    /// strides longer than a gallop's linear steps and random subsets.
    #[test]
    fn column_walk_routing_equals_the_per_row_search() {
        use crate::quantized::GALLOP_AFTER;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 600usize;
        let rows: Vec<Vec<(u32, f32)>> = (0..n)
            .map(|r| {
                let mut row = vec![(0, (r % 13) as f32)];
                if r % 7 == 0 {
                    row.push((1, (r % 5) as f32));
                }
                if r < 200 {
                    row.push((2, (r % 3) as f32));
                }
                if r == 311 {
                    row.push((3, 1.0));
                }
                row
            })
            .collect();
        let qm = QuantizedMatrix::from_matrix(
            &FeatureMatrix::Sparse(CsrMatrix::from_rows(5, &rows)),
            BinningConfig::default(),
        );
        assert!(qm.sparse_col(4).is_some_and(|(rows, _)| rows.is_empty()));
        let stride = 3 * GALLOP_AFTER;
        let mut lists: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![311],
            vec![n as u32 - 1],
            (0..n as u32).collect(),
            (250..n as u32).collect(),
            (0..n as u32).step_by(stride).collect(),
            (5..n as u32).step_by(stride + 1).collect(),
        ];
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..48 {
            let density = rng.gen::<f64>().powi(3);
            lists.push((0..n as u32).filter(|_| rng.gen_bool(density)).collect());
        }
        let path = tmp_path("column_walk");
        write_cache(&qm, 64, &path).unwrap();
        let store = ChunkedStore::open(&path, u64::MAX).unwrap();
        assert_eq!(store.n_chunks(), 10);
        for list in &lists {
            for f in 0..qm.n_features() {
                let want = route_by_row_search(&qm, f, list);
                let (mut walked, mut in_core, mut chunked) = (Vec::new(), Vec::new(), Vec::new());
                qm.route_bins_for(f, list, &mut walked);
                QuantStore::gather_route_bins(&qm, f, list, &mut in_core);
                store.gather_route_bins(f, list, &mut chunked);
                let what = format!("feature {f}, {} rows", list.len());
                assert_eq!(walked, want, "{what}");
                assert_eq!(in_core, want, "{what}, in core");
                assert_eq!(chunked, want, "{what}, chunked");
            }
        }
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    /// Rewrites chunk `c`'s blob of the `n_chunks`-chunk cache at `path`
    /// with `craft`, and its table checksum to match: a cache whose every
    /// checksum holds while its counts lie.
    fn recraft(path: &Path, n_chunks: usize, c: usize, craft: impl FnOnce(&mut [u8])) {
        let mut bytes = std::fs::read(path).unwrap();
        let word = |bytes: &[u8], at: usize| {
            u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
        };
        let table_end = DATA_PRELUDE as usize + word(&bytes, 12);
        let entry = table_end - (n_chunks - c) * TABLE_ENTRY;
        let blob = word(&bytes, entry)..word(&bytes, entry) + word(&bytes, entry + 8);
        craft(&mut bytes[blob.clone()]);
        let sum = fnv1a(&bytes[blob]);
        bytes[entry + 16..entry + 24].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(path, bytes).unwrap();
    }

    /// A blob whose row count is not its table entry's fails `open` with a
    /// typed error — dense and sparse, whether the count would overflow the
    /// sizes it implies, ask for terabytes, or be one too many — where it
    /// used to pass the checksum and abort or panic in the chunk's first
    /// decode, mid-training.
    #[test]
    fn a_cache_whose_row_counts_lie_fails_to_open() {
        let sparse = sparse_qm(64, 5);
        assert!(sparse.sparse_col(0).is_some());
        for (tag, qm) in [("d", dense_qm(64, 4)), ("s", sparse)] {
            for lie in [u64::MAX, 1 << 62, 1 << 40, 17] {
                let path = tmp_path(&format!("lie_{tag}"));
                write_cache(&qm, 16, &path).unwrap();
                // The kind byte, then the row count.
                recraft(&path, 4, 1, |blob| blob[1..9].copy_from_slice(&lie.to_le_bytes()));
                match ChunkedStore::open(&path, u64::MAX).err() {
                    Some(CacheError::Malformed(m)) => assert!(m.contains("chunk 1"), "{m}"),
                    other => panic!("{tag}, {lie} rows: {other:?}"),
                }
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    /// A checksum-valid blob that stores a bin its feature does not have
    /// fails `open` with a typed error naming the chunk: in a dense row
    /// major, in a dense column major and in a sparse entry — each one bin
    /// past the feature's last, which the kernels would have written past
    /// the feature's histogram cells.
    #[test]
    fn a_cache_holding_a_bin_its_feature_lacks_fails_to_open() {
        let (dense, sparse) = (dense_qm(64, 4), sparse_qm(64, 5));
        // Blob offsets: the kind byte and the row count, then the payload.
        let (head, n, m) = (1 + 8, 16, 4);
        let past = |qm: &QuantizedMatrix, f: usize| qm.mapper().n_bins(f) as u8;
        let row_major = head + 3 * m + 2;
        let col_major = head + n * m + 2 * n + 3;
        let first_bin = |blob: &[u8]| {
            let nnz = u64::from_le_bytes(blob[head..head + 8].try_into().unwrap()) as usize;
            let cols = head + 8 + (n + 1) * 8;
            let col = u32::from_le_bytes(blob[cols..cols + 4].try_into().unwrap());
            (cols + 4 * nnz, col as usize)
        };
        type Craft<'a> = Box<dyn Fn(&mut [u8]) + 'a>;
        let cases: [(&str, &QuantizedMatrix, Craft<'_>); 3] = [
            ("row major", &dense, Box::new(|blob| blob[row_major] = past(&dense, 2))),
            ("column major", &dense, Box::new(|blob| blob[col_major] = past(&dense, 2))),
            (
                "sparse",
                &sparse,
                Box::new(|blob| {
                    let (at, col) = first_bin(blob);
                    blob[at] = past(&sparse, col);
                }),
            ),
        ];
        for (what, qm, craft) in cases {
            let path = tmp_path(&format!("bin_{}", what.replace(' ', "_")));
            write_cache(qm, 16, &path).unwrap();
            recraft(&path, 4, 1, craft);
            match ChunkedStore::open(&path, u64::MAX).err() {
                Some(CacheError::Malformed(m)) => assert!(m.contains("chunk 1"), "{what}: {m}"),
                other => panic!("{what}: {other:?}"),
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// A checksum-valid sparse blob whose row offsets step back fails `open`
    /// as `Malformed`, not in the transpose of the chunk's first pin.
    #[test]
    fn a_cache_whose_sparse_offsets_step_back_fails_to_open() {
        let path = tmp_path("offsets");
        write_cache(&sparse_qm(64, 5), 16, &path).unwrap();
        // The kind byte, the row count and the entry count, then offsets.
        let offset = |k: usize| 17 + 8 * k..17 + 8 * (k + 1);
        recraft(&path, 4, 1, |blob| {
            let (one, two) = (blob[offset(1)].to_vec(), blob[offset(2)].to_vec());
            assert_ne!(one, two, "rows 0 and 1 of the chunk hold entries");
            blob[offset(1)].copy_from_slice(&two);
            blob[offset(2)].copy_from_slice(&one);
        });
        match ChunkedStore::open(&path, u64::MAX).err() {
            Some(CacheError::Malformed(m)) => assert!(m.contains("chunk 1"), "{m}"),
            other => panic!("{other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Bytes of `map` the kernel holds resident: the `Rss:` of its
    /// `/proc/self/smaps` entry, found by its start address.
    #[cfg(target_os = "linux")]
    fn resident_bytes(map: &map::Mmap) -> u64 {
        let head = format!("{:08x}-", map.as_slice().as_ptr() as usize);
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let mut entry = smaps.lines().skip_while(|l| !l.starts_with(&head)).skip(1);
        let kb = entry.find_map(|l| l.strip_prefix("Rss:")).expect("the mapping is in smaps");
        kb.trim().trim_end_matches("kB").trim().parse::<u64>().unwrap() * 1024
    }

    #[cfg(target_os = "linux")]
    fn mapping(store: &ChunkedStore) -> &map::Mmap {
        match &store.inner.source {
            Source::Mapped(map) => map,
            _ => panic!("the cache is not mapped"),
        }
    }

    /// Every byte of a dense slab, read the way a scan reads it.
    #[cfg(target_os = "linux")]
    fn dense_bytes(slab: &QuantizedMatrix) -> Vec<u8> {
        let mut bytes = slab.dense_row_major().unwrap().to_vec();
        (0..slab.n_features()).for_each(|f| bytes.extend_from_slice(slab.dense_col(f).unwrap()));
        bytes
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn release_drops_only_the_whole_pages_inside_the_range() {
        let page = map::page_size().unwrap();
        let path = tmp_path("release");
        std::fs::write(&path, vec![7u8; 8 * page]).unwrap();
        let map = map::Mmap::new(&File::open(&path).unwrap(), 8 * page).unwrap();
        assert!(map.as_slice().iter().all(|&b| b == 7));
        assert_eq!(resident_bytes(&map), 8 * page as u64);
        // Pages 1 to 4: the start rounds up, the end down.
        map.release(page / 2..5 * page + 1);
        assert_eq!(resident_bytes(&map), 4 * page as u64);
        assert!(map.as_slice().iter().all(|&b| b == 7), "released pages refault the file");
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    /// The budget bounds what the process holds of the cache file, as the
    /// kernel counts it: `open` keeps no verified blob resident, and two
    /// ascending sweeps at a quarter budget keep the mapping within the
    /// budget, the chunk being loaded, page rounding and one fault-around
    /// window. (A read fault also maps the page-cache folio around it —
    /// Linux 6.18 maps whole large folios — so pages of the blobs next in
    /// the sweep can be resident before their chunk is pinned; they leave
    /// with it. One page table's span bounds what one fault maps.)
    #[cfg(target_os = "linux")]
    #[test]
    fn the_budget_bounds_the_mappings_resident_pages() {
        let page = map::page_size().unwrap() as u64;
        let fault_around = page * (page / 8);
        // 24 chunks of 64 pages: 16 384 rows x 8 features, two layouts.
        let qm = dense_qm(24 * 16_384, 8);
        let path = tmp_path("smaps");
        let summary = write_cache(&qm, 16_384, &path).unwrap();
        drop(qm);
        let budget = summary.decoded_bytes / 4;
        let store = ChunkedStore::open(&path, budget).unwrap();
        let n_chunks = store.n_chunks();
        let after_open = resident_bytes(mapping(&store));
        assert!(
            after_open <= (n_chunks as u64 + 1) * page,
            "open left {after_open} B of a {} B file resident",
            summary.file_bytes
        );
        let largest = store.inner.table.iter().map(|m| m.len).max().unwrap();
        for c in (0..n_chunks).chain(0..n_chunks) {
            std::hint::black_box(dense_bytes(&store.pin(c)));
            let slots = store.inner.slots.lock().unwrap();
            let resident_chunks = slots.values().filter(|s| s.cell.get().is_some()).count() as u64;
            drop(slots);
            let bound = budget + largest + 2 * page * resident_chunks + fault_around;
            let rss = resident_bytes(mapping(&store));
            assert!(rss <= bound, "after chunk {c}: {rss} B resident, bound {bound} B");
        }
        assert!(store.io_stats().chunk_evictions >= n_chunks as u64);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    /// Whether chunk `c` has a decoded slab in the store's slot map.
    #[cfg(target_os = "linux")]
    fn is_resident(store: &ChunkedStore, c: usize) -> bool {
        let slots = store.inner.slots.lock().unwrap();
        slots.get(&c).is_some_and(|s| s.cell.get().is_some())
    }

    /// Two neighbouring blobs share a page: evicting one while the other is
    /// pinned leaves the pinned slab reading the same bytes.
    #[cfg(target_os = "linux")]
    #[test]
    fn evicting_a_neighbour_leaves_the_pinned_slab_intact() {
        let page = map::page_size().unwrap();
        let qm = dense_qm(3 * 4000, 3);
        let path = tmp_path("neighbour");
        write_cache(&qm, 4000, &path).unwrap();
        let per_chunk = qm.chunk_storage_bytes(0..4000) as u64;
        let store = ChunkedStore::open(&path, 2 * per_chunk).unwrap();
        assert_ne!(store.inner.table[1].offset as usize % page, 0, "chunks 0 and 1 share a page");
        drop(store.pin(0));
        let one = store.pin(1);
        let before = dense_bytes(&one);
        // Chunk 0 is the least recently used unpinned slab.
        drop(store.pin(2));
        assert_eq!(store.io_stats().chunk_evictions, 1);
        assert!(!is_resident(&store, 0) && is_resident(&store, 1));
        assert!(dense_bytes(&one) == before, "the pinned slab changed under an eviction");
        for (local, row) in (4000..8000).enumerate() {
            for f in 0..3 {
                assert_eq!(one.bin(local, f), qm.bin(row, f), "cell ({row},{f})");
            }
        }
        drop(one);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }
}
