//! The one FNV-1a recipe behind every structural key in the workspace:
//! slab header checksums and content digests ([`crate::slab`]), the
//! structure digest a [`crate::LazyMatrix`] memoizes
//! ([`crate::Structure::digest`]), and the oracle's cache fingerprints,
//! which must agree with both bit for bit.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// A 64-bit FNV-1a hasher over little-endian bytes.
#[derive(Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    /// Absorbs the 8 little-endian bytes of `v`.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let mut h = self.0;
        for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
            h = (h ^ ((v >> shift) & 0xff)).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorbs `bytes` in order.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_write_is_its_little_endian_bytes() {
        let v = 0x0123_4567_89ab_cdefu64;
        let mut words = Fnv::new();
        words.write_u64(v);
        let mut bytes = Fnv::new();
        bytes.write_bytes(&v.to_le_bytes());
        assert_eq!(words.finish(), bytes.finish());
    }
}
