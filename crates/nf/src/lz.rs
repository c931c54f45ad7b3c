//! A from-scratch LZSS-style byte compressor backing the Compression NF
//! (Table 2's "Compression — Cisco IOS — R/W payload" row).
//!
//! Format: a stream of tokens. A control byte carries 8 flags (LSB first);
//! flag 0 = literal byte follows, flag 1 = a 3-byte back-reference
//! `(offset_hi, offset_lo, len)` with `offset ∈ [1, 65535]` into the
//! already-decoded output and `len ∈ [MIN_MATCH, MIN_MATCH+255]`.

/// Minimum match length worth encoding (a reference costs 3 bytes + flag).
const MIN_MATCH: usize = 4;
/// Maximum match length encodable.
const MAX_MATCH: usize = MIN_MATCH + 255;
/// Search window.
const WINDOW: usize = 65_535;

/// Compress `input`. The output is never catastrophically larger than the
/// input (worst case: `input.len() + input.len()/8 + 2`).
pub(crate) fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut i = 0usize;
    let mut flag_pos: Option<usize> = None;
    let mut flag_count = 0u8;
    let set_flag =
        |out: &mut Vec<u8>, flag_pos: &mut Option<usize>, flag_count: &mut u8, is_ref: bool| {
            if flag_pos.is_none() || *flag_count == 8 {
                *flag_pos = Some(out.len());
                out.push(0);
                *flag_count = 0;
            }
            if is_ref {
                let p = flag_pos.unwrap();
                out[p] |= 1 << *flag_count;
            }
            *flag_count += 1;
        };
    while i < input.len() {
        let (off, len) = best_match(input, i);
        if len >= MIN_MATCH {
            set_flag(&mut out, &mut flag_pos, &mut flag_count, true);
            out.push((off >> 8) as u8);
            out.push((off & 0xff) as u8);
            out.push((len - MIN_MATCH) as u8);
            i += len;
        } else {
            set_flag(&mut out, &mut flag_pos, &mut flag_count, false);
            out.push(input[i]);
            i += 1;
        }
    }
    out
}

/// Greedy longest-match search (O(n·w) worst case; windows in packet
/// payloads are ≤ 1460 B, so this stays fast).
fn best_match(input: &[u8], pos: usize) -> (usize, usize) {
    let window_start = pos.saturating_sub(WINDOW);
    let max_len = (input.len() - pos).min(MAX_MATCH);
    if max_len < MIN_MATCH {
        return (0, 0);
    }
    let mut best = (0usize, 0usize);
    let mut j = window_start;
    while j < pos {
        let mut l = 0usize;
        while l < max_len && input[j + l] == input[pos + l] {
            l += 1;
        }
        if l > best.1 {
            best = (pos - j, l);
            if l == max_len {
                break;
            }
        }
        j += 1;
    }
    best
}

/// Decompression errors.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LzError {
    /// A back-reference points before the start of the output.
    BadReference,
    /// The stream ended mid-token.
    Truncated,
}

/// Decompress a [`compress`]-produced stream.
#[cfg(test)]
pub(crate) fn decompress(input: &[u8]) -> Result<Vec<u8>, LzError> {
    let mut out = Vec::with_capacity(input.len() * 2);
    let mut i = 0usize;
    while i < input.len() {
        let flags = input[i];
        i += 1;
        for bit in 0..8 {
            if i >= input.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                if i + 3 > input.len() {
                    return Err(LzError::Truncated);
                }
                let off = ((input[i] as usize) << 8) | input[i + 1] as usize;
                let len = input[i + 2] as usize + MIN_MATCH;
                i += 3;
                if off == 0 || off > out.len() {
                    return Err(LzError::BadReference);
                }
                let start = out.len() - off;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            } else {
                out.push(input[i]);
                i += 1;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_inputs() {
        for input in [
            &b""[..],
            b"a",
            b"abcabcabcabcabcabc",
            b"the quick brown fox jumps over the lazy dog. the quick brown fox!",
            &[0u8; 1000],
            &(0..=255u8).collect::<Vec<u8>>(),
        ] {
            let c = compress(input);
            assert_eq!(decompress(&c).unwrap(), input, "input {input:?}");
        }
    }

    #[test]
    fn repetitive_data_compresses() {
        let input = b"HTTP/1.1 200 OK\r\n".repeat(40);
        let c = compress(&input);
        assert!(c.len() < input.len() / 3, "{} vs {}", c.len(), input.len());
    }

    #[test]
    fn random_data_does_not_explode() {
        let input: Vec<u8> = (0..1400u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let c = compress(&input);
        assert!(c.len() <= input.len() + input.len() / 8 + 2);
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn overlapping_references_decode() {
        // "aaaa..." forces self-overlapping references.
        let input = vec![b'a'; 500];
        let c = compress(&input);
        assert!(c.len() < 20);
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn corrupt_stream_is_rejected_not_panicking() {
        let c = compress(b"hello hello hello hello");
        // A reference with an impossible offset.
        let bad = vec![0x01, 0xff, 0xff, 0x00];
        assert_eq!(decompress(&bad).unwrap_err(), LzError::BadReference);
        // Truncations.
        for cut in 1..c.len() {
            let _ = decompress(&c[..cut]); // must not panic
        }
    }
}
