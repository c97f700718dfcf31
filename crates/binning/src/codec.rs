//! Little-endian byte codec helpers shared by the chunk slab codec
//! ([`crate::quantized`]) and the cache-file reader/writer ([`crate::cache`]).

/// Appends a `u64` in little-endian order.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` in little-endian order.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// FNV-1a 64-bit hashes of `N` buffers, advanced together: one hash is a
/// serial chain — every byte waits for the previous byte's multiply — so a
/// core fills one chain's wait with the other chains' work.
fn fnv1a_lanes<const N: usize>(bufs: [&[u8]; N]) -> [u64; N] {
    let step = |h: u64, byte: u8| (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    let common = bufs.iter().map(|buf| buf.len()).min().unwrap_or(0);
    let mut h = [0xcbf2_9ce4_8422_2325u64; N];
    let heads = bufs.map(|buf| &buf[..common]);
    for i in 0..common {
        for (h, head) in h.iter_mut().zip(&heads) {
            *h = step(*h, head[i]);
        }
    }
    for (h, buf) in h.iter_mut().zip(&bufs) {
        *h = buf[common..].iter().fold(*h, |h, &byte| step(h, byte));
    }
    h
}

/// FNV-1a 64-bit hash — the per-chunk checksum. Not cryptographic; it
/// catches truncation, bit rot, and cross-file mixups, which is the threat
/// model for a local cache the process itself wrote.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_lanes([bytes])[0]
}

/// Buffers [`fnv1a_each`] hashes together — the group of adjacent chunk blobs
/// a cache task encodes (or maps) before checksumming.
pub(crate) const FNV_LANES: usize = 4;

/// [`fnv1a`] of each buffer, [`FNV_LANES`] at a time.
pub(crate) fn fnv1a_each(bufs: &[&[u8]]) -> Vec<u64> {
    let mut sums = Vec::with_capacity(bufs.len());
    for group in bufs.chunks(FNV_LANES) {
        match *group {
            [a, b, c, d] => sums.extend(fnv1a_lanes([a, b, c, d])),
            [a, b, c] => sums.extend(fnv1a_lanes([a, b, c])),
            [a, b] => sums.extend(fnv1a_lanes([a, b])),
            [a] => sums.push(fnv1a(a)),
            _ => unreachable!("chunks(FNV_LANES) yields one to four buffers"),
        }
    }
    sums
}

/// A bounds-checked little-endian reader over a byte slice. Every accessor
/// returns `None` past the end instead of panicking, so a truncated or
/// corrupt buffer surfaces as a typed decode error upstream.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Absolute offset of the next unread byte — lets a zero-copy decoder
    /// turn a `take` into a view range of the underlying shared buffer.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    pub(crate) fn get_u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    pub(crate) fn get_u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn get_u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX - 7);
        put_u32(&mut buf, 0xdead_beef);
        buf.push(42);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.get_u64(), Some(u64::MAX - 7));
        assert_eq!(c.get_u32(), Some(0xdead_beef));
        assert_eq!(c.get_u8(), Some(42));
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.get_u8(), None);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_each_is_fnv1a_of_each() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 37 % 251) as u8).collect();
        // Ragged lengths, an empty buffer, and a tail group of fewer than four.
        for lens in [&[5usize, 0, 1000, 17, 256, 3][..], &[64, 64, 64, 64], &[9], &[]] {
            let bufs: Vec<&[u8]> = lens.iter().map(|&n| &bytes[..n]).collect();
            let want: Vec<u64> = bufs.iter().map(|b| fnv1a(b)).collect();
            assert_eq!(fnv1a_each(&bufs), want);
        }
    }
}
