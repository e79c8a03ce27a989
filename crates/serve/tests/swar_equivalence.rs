//! Every word-at-a-time (SWAR) fast path on the wire equals its scalar
//! twin. The scalar versions live here, in tests only:
//!
//! * the hex feature codec ([`read_hex_f64s`] / [`write_hex_f64s`])
//!   against a per-digit decoder and a per-byte encoder, over random and
//!   adversarial strings — every byte value at every offset mod 16, and
//!   lengths that are not multiples of 16;
//! * [`FrameBuf`] fed in arbitrary chunk splits against one push and
//!   against the blocking [`read_line`], oversized lines and invalid
//!   UTF-8 included;
//! * [`write_line`] hands its writer each line in exactly one `write`.
//!
//! The JSON string scan (`plain_run`) is private to the vendored serde
//! and is held to its per-byte twin in that crate's unit tests.

use misam_serve::protocol::{
    read_hex_f64s, read_line, write_hex_f64s, write_line, BatchRequest, FrameBuf, Line,
    PredictRequest, RequestEnvelope,
};
use misam_serve::{Request, PROTOCOL_VERSION};
use proptest::prelude::*;
use std::io::{BufReader, BufWriter, Cursor, Write};

/// SplitMix64: one seed drives a whole case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

// --- Scalar twins ---------------------------------------------------------

fn scalar_write_hex(values: &[f64]) -> Vec<u8> {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::new();
    for v in values {
        for b in v.to_le_bytes() {
            out.push(HEX[usize::from(b >> 4)]);
            out.push(HEX[usize::from(b & 15)]);
        }
    }
    out
}

fn scalar_read_hex(text: &str) -> Option<Vec<u64>> {
    fn nibble(c: u8) -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            _ => None,
        }
    }
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(16) {
        return None;
    }
    let mut out = Vec::new();
    for digits in bytes.chunks_exact(16) {
        let mut le = [0u8; 8];
        for (b, pair) in le.iter_mut().zip(digits.chunks_exact(2)) {
            *b = nibble(pair[0])? << 4 | nibble(pair[1])?;
        }
        out.push(u64::from_le_bytes(le));
    }
    Some(out)
}

/// The fast decoder's answer as bit patterns, comparable with the twin.
fn fast_read_hex(text: &str) -> Option<Vec<u64>> {
    read_hex_f64s(text).map(|v| v.into_iter().map(f64::to_bits).collect())
}

// --- Hex codec --------------------------------------------------------------

/// A valid UTF-8 sequence holding byte `b`, and `b`'s index in it; `None`
/// for the bytes UTF-8 never contains (0xc0, 0xc1, 0xf5..=0xff).
fn utf8_holding(b: u8) -> Option<(Vec<u8>, usize)> {
    match b {
        0x00..=0x7f => Some((vec![b], 0)),
        0x80..=0xbf => Some((vec![0xc2, b], 1)),
        0xc2..=0xdf => Some((vec![b, 0x80], 0)),
        0xe0 => Some((vec![b, 0xa0, 0x80], 0)),
        0xe1..=0xef => Some((vec![b, 0x80, 0x80], 0)),
        0xf0 => Some((vec![b, 0x90, 0x80, 0x80], 0)),
        0xf1..=0xf4 => Some((vec![b, 0x80, 0x80, 0x80], 0)),
        _ => None,
    }
}

#[test]
fn hex_decode_matches_scalar_for_every_byte_at_every_offset() {
    let mut rng = Rng(7);
    let digits = b"0123456789abcdef";
    for total in [16usize, 32, 48, 15, 17, 31, 33, 47] {
        for at in 0..total {
            for b in 0..=255u8 {
                let Some((seq, idx)) = utf8_holding(b) else { continue };
                // Put `b` at offset `at`, padding with random valid digits.
                let Some(start) = at.checked_sub(idx) else { continue };
                let mut text: Vec<u8> = (0..total).map(|_| digits[rng.below(16)]).collect();
                if start + seq.len() > total {
                    continue;
                }
                text[start..start + seq.len()].copy_from_slice(&seq);
                let text = String::from_utf8(text).expect("built from valid UTF-8");
                assert_eq!(
                    fast_read_hex(&text),
                    scalar_read_hex(&text),
                    "{b:#04x} at offset {at} of {total}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hex_encode_and_decode_match_scalar_on_random_values(seed in 0u64..u64::MAX, n in 0usize..40) {
        let mut rng = Rng(seed);
        let values: Vec<f64> = (0..n).map(|_| f64::from_bits(rng.next())).collect();
        let mut fast = Vec::new();
        write_hex_f64s(&mut fast, &values);
        prop_assert_eq!(&fast, &scalar_write_hex(&values));
        let text = String::from_utf8(fast).unwrap();
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(fast_read_hex(&text), Some(bits));
    }

    #[test]
    fn hex_decode_matches_scalar_on_random_strings(seed in 0u64..u64::MAX, len in 0usize..80) {
        // Mostly hex digits, with a few arbitrary characters mixed in:
        // near misses (`A`-`F`, `g`, `/`, `:`, `` ` ``) and multibyte.
        let mut rng = Rng(seed);
        let pool = ['0', '9', 'a', 'f', 'A', 'F', 'g', '/', ':', '`', '@', 'é', '\u{7f}', '😀'];
        let text: String = (0..len)
            .map(|_| {
                if rng.below(8) == 0 {
                    pool[rng.below(pool.len())]
                } else {
                    char::from(b"0123456789abcdef"[rng.below(16)])
                }
            })
            .collect();
        let (fast, scalar) = (fast_read_hex(&text), scalar_read_hex(&text));
        prop_assert!(fast == scalar, "{text:?}: {fast:?} vs {scalar:?}");
    }
}

// --- Framing ----------------------------------------------------------------

/// A line outcome in comparable form: the text, or an oversize marker.
fn tag(line: Line) -> Option<String> {
    match line {
        Line::Complete(text) => Some(text),
        Line::Oversized => None,
        Line::Eof => unreachable!("callers stop at end of stream"),
    }
}

/// A random stream of `\n`-terminated lines over `max`-byte frames:
/// short and oversized lines, empty lines, invalid UTF-8, and sometimes
/// an unterminated final line.
fn stream(rng: &mut Rng, max: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..rng.below(12) {
        let len = match rng.below(4) {
            0 => 0,
            1 => max + 1 + rng.below(3 * max),
            _ => rng.below(max + 1),
        };
        for _ in 0..len {
            out.push(match rng.below(16) {
                0 => 0xff,
                1 => 0xc3,
                2 => 0xa9,
                _ => b'a' + rng.below(26) as u8,
            });
        }
        out.push(b'\n');
    }
    if rng.below(2) == 0 {
        let tail = rng.below(2 * max);
        out.extend((0..tail).map(|_| b'z'));
    }
    out
}

/// `FrameBuf`'s lines for `bytes` pushed in the given chunk sizes.
fn framed(bytes: &[u8], max: usize, chunks: &mut dyn FnMut() -> usize) -> Vec<Option<String>> {
    let mut fb = FrameBuf::new(max);
    let mut out = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let n = chunks().clamp(1, rest.len());
        fb.push(&rest[..n]);
        rest = &rest[n..];
        while let Some(line) = fb.next_line() {
            out.push(tag(line));
        }
    }
    while let Some(line) = fb.finish() {
        out.push(tag(line));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn framebuf_lines_do_not_depend_on_chunk_splits(seed in 0u64..u64::MAX, max in 1usize..40) {
        let mut rng = Rng(seed);
        let bytes = stream(&mut rng, max);
        let whole = framed(&bytes, max, &mut || usize::MAX);
        let split = framed(&bytes, max, &mut || 1 + rng.below(2 * max + 9));
        prop_assert_eq!(&split, &whole);

        // The blocking framer, fed through a small read buffer, agrees.
        let mut reader = BufReader::with_capacity(1 + rng.below(max + 9), Cursor::new(&bytes));
        let mut acc = Vec::new();
        let mut blocking = Vec::new();
        loop {
            match read_line(&mut reader, &mut acc, max).unwrap() {
                Line::Eof => break,
                line => blocking.push(tag(line)),
            }
        }
        prop_assert_eq!(&blocking, &whole);
    }
}

// --- One write per line -----------------------------------------------------

/// A writer that counts `write` calls.
#[derive(Default)]
struct Counting {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for Counting {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn write_line_makes_one_write_per_line(seed in 0u64..u64::MAX, items in 0usize..200) {
        // Up to 200 x 41 features: lines from tens of bytes to well past
        // a `BufWriter`'s 8 KiB buffer.
        let mut rng = Rng(seed);
        let batch = BatchRequest {
            items: (0..items)
                .map(|_| PredictRequest {
                    features: (0..41).map(|_| f64::from_bits(rng.next())).collect(),
                })
                .collect(),
        };
        let env = RequestEnvelope { v: PROTOCOL_VERSION, id: 3, req: Request::Batch(batch) };

        let mut direct = Counting::default();
        write_line(&mut direct, &env).unwrap();
        prop_assert_eq!(direct.writes, 1);
        prop_assert_eq!(direct.bytes.iter().filter(|&&b| b == b'\n').count(), 1);
        prop_assert_eq!(direct.bytes.last(), Some(&b'\n'));

        let mut buffered = BufWriter::new(Counting::default());
        write_line(&mut buffered, &env).unwrap();
        let inner = buffered.into_inner().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(inner.writes == 1, "a buffered line took {} writes", inner.writes);
        prop_assert_eq!(inner.bytes, direct.bytes);
    }
}
