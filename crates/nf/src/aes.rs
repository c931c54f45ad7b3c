//! AES-128, implemented from scratch per FIPS-197, plus CTR-mode payload
//! encryption for the VPN NF ("encrypts a packet based on the AES
//! algorithm", §6.1).
//!
//! This is the classic 32-bit T-table implementation (16 table loads per
//! round over big-endian column words; S-box in the last round). It is
//! **not** constant-time: its table indices depend on key and data, so
//! the loads leak through cache timing, as the byte-wise S-box lookups it
//! replaced did. It is for workload realism, not for real traffic.

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// `TE[i][x]` is the MixColumns image of a column holding `SBOX[x]` in row
/// `i` and zeros elsewhere: SubBytes, ShiftRows and MixColumns for one
/// byte in one load. Row 0 is a word's most significant byte.
static TE: [[u32; 256]; 4] = te_tables();

const fn te_tables() -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = (s << 1) ^ ((s >> 7) * 0x1b);
        let w = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        te[0][x] = w;
        te[1][x] = w.rotate_right(8);
        te[2][x] = w.rotate_right(16);
        te[3][x] = w.rotate_right(24);
        x += 1;
    }
    te
}

/// The four big-endian column words of a 16-byte block.
fn columns(block: &[u8; 16]) -> [u32; 4] {
    let x = u128::from_be_bytes(*block);
    [
        (x >> 96) as u32,
        (x >> 64) as u32,
        (x >> 32) as u32,
        x as u32,
    ]
}

/// Column `c` of a full round: row `r` is read from column `c + r`
/// (ShiftRows), and one `TE` load per row does the rest.
#[inline(always)]
fn round_column(s: &[u32; 4], c: usize) -> u32 {
    TE[0][(s[c] >> 24) as u8 as usize]
        ^ TE[1][(s[(c + 1) % 4] >> 16) as u8 as usize]
        ^ TE[2][(s[(c + 2) % 4] >> 8) as u8 as usize]
        ^ TE[3][s[(c + 3) % 4] as u8 as usize]
}

/// Column `c` of the last round (SubBytes and ShiftRows, no MixColumns);
/// on four copies of one word it is the key schedule's SubWord.
#[inline(always)]
fn sub_column(s: &[u32; 4], c: usize) -> u32 {
    u32::from_be_bytes([
        SBOX[(s[c] >> 24) as u8 as usize],
        SBOX[(s[(c + 1) % 4] >> 16) as u8 as usize],
        SBOX[(s[(c + 2) % 4] >> 8) as u8 as usize],
        SBOX[s[(c + 3) % 4] as u8 as usize],
    ])
}

/// An expanded AES-128 key schedule: FIPS-197's words `w[0..44]`.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [u32; 44],
}

impl Aes128 {
    /// Expand a 128-bit key.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        w[..4].copy_from_slice(&columns(key));
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t = sub_column(&[t.rotate_left(8); 4], 0) ^ (u32::from(RCON[i / 4 - 1]) << 24);
            }
            w[i] = w[i - 4] ^ t;
        }
        Self { round_keys: w }
    }

    /// Encrypt one 16-byte block in place.
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        let rk = &self.round_keys;
        let mut s = columns(block);
        s = core::array::from_fn(|c| s[c] ^ rk[c]);
        for k in rk[4..40].chunks_exact(4) {
            s = core::array::from_fn(|c| round_column(&s, c) ^ k[c]);
        }
        s = core::array::from_fn(|c| sub_column(&s, c) ^ rk[40 + c]);
        *block = s
            .iter()
            .fold(0u128, |x, &w| x << 32 | u128::from(w))
            .to_be_bytes();
    }

    /// Encrypt (or decrypt — CTR is symmetric) `data` in place with a
    /// counter stream derived from `nonce`.
    pub fn ctr_apply(&self, nonce: u64, data: &mut [u8]) {
        let mut counter = 0u64;
        for chunk in data.chunks_mut(16) {
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&nonce.to_be_bytes());
            block[8..].copy_from_slice(&counter.to_be_bytes());
            self.encrypt_block(&mut block);
            for (b, k) in chunk.iter_mut().zip(block.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    /// A 96-bit keyed integrity tag over `data` (CBC-MAC-style). Stands in
    /// for AH's HMAC; truncated to the AH ICV length.
    pub fn mac96(&self, data: &[u8]) -> [u8; 12] {
        let mut acc = [0u8; 16];
        // Length block defends against trivial extension of zero-padding.
        acc[..8].copy_from_slice(&(data.len() as u64).to_be_bytes());
        self.encrypt_block(&mut acc);
        for chunk in data.chunks(16) {
            for (a, b) in acc.iter_mut().zip(chunk.iter()) {
                *a ^= b;
            }
            self.encrypt_block(&mut acc);
        }
        let mut out = [0u8; 12];
        out.copy_from_slice(&acc[..12]);
        out
    }
}

impl core::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("Aes128 { round_keys: [redacted] }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B: key 2b7e…, plaintext 3243…, ciphertext 3925….
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(block, expected);
    }

    #[test]
    fn fips197_appendix_a_first_round_key() {
        let aes = Aes128::new(&FIPS_KEY);
        // w[4..8] from FIPS-197 Appendix A.1.
        assert_eq!(
            aes.round_keys[4..8],
            [0xa0fa_fe17, 0x8854_2cb1, 0x23a3_3939, 0x2a6c_7605]
        );
    }

    #[test]
    fn ctr_roundtrips_any_length() {
        let aes = Aes128::new(&[7u8; 16]);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 100, 724] {
            let original: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            let mut data = original.clone();
            aes.ctr_apply(0xdead_beef, &mut data);
            if len > 0 {
                assert_ne!(data, original, "len {len} should change");
            }
            aes.ctr_apply(0xdead_beef, &mut data);
            assert_eq!(data, original, "len {len} roundtrip");
        }
    }

    #[test]
    fn ctr_nonce_separates_streams() {
        let aes = Aes128::new(&[1u8; 16]);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        aes.ctr_apply(1, &mut a);
        aes.ctr_apply(2, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn mac_distinguishes_data_and_length() {
        let aes = Aes128::new(&[9u8; 16]);
        let m1 = aes.mac96(b"hello world!");
        let m2 = aes.mac96(b"hello world?");
        let m3 = aes.mac96(b"hello world!\0");
        assert_ne!(m1, m2);
        assert_ne!(m1, m3);
        assert_eq!(m1, aes.mac96(b"hello world!"));
        // Different keys → different tags.
        let other = Aes128::new(&[10u8; 16]);
        assert_ne!(m1, other.mac96(b"hello world!"));
    }

    /// FNV-1a 64 over `bytes`, folded into `h`.
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// One digest over `ctr_apply` and one over `mac96`, for every length
    /// 0..=1500 of a fixed message under `key`.
    fn digests(key: &[u8; 16]) -> (u64, u64) {
        let aes = Aes128::new(key);
        let msg: Vec<u8> = (0..1500u32).map(|i| (i * 31 + 7) as u8).collect();
        let (mut ctr, mut mac) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
        for len in 0..=msg.len() {
            let mut data = msg[..len].to_vec();
            aes.ctr_apply(0x0123_4567_89ab_cdef ^ len as u64, &mut data);
            ctr = fnv(ctr, &data);
            mac = fnv(mac, &aes.mac96(&msg[..len]));
        }
        (ctr, mac)
    }

    const FIPS_KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (i, b) in out.iter_mut().enumerate() {
            *b = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn sp800_38a_f11_ecb_aes128_vectors() {
        // NIST SP 800-38A F.1.1, ECB-AES128.Encrypt, blocks 1-4.
        let aes = Aes128::new(&FIPS_KEY);
        for (plain, cipher) in [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "3ad77bb40d7a3660a89ecaf32466ef97",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "f5d3d58503b9699de785895a96fdbaaf",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "43b1cd7f598ece23881b00e3ed030688",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "7b0c785e27e8ad3f8223207104725dd4",
            ),
        ] {
            let mut block = hex16(plain);
            aes.encrypt_block(&mut block);
            assert_eq!(block, hex16(cipher), "plaintext {plain}");
        }
    }

    #[test]
    fn ctr_and_mac_bytes_match_the_byte_wise_cipher() {
        // Digests captured from the byte-wise FIPS-197 implementation this
        // T-table cipher replaced: the VPN's bytes must not move.
        assert_eq!(
            digests(&[7u8; 16]),
            (0xb41a_d1ec_d56f_52b4, 0x0e9a_99a1_79de_8319)
        );
        assert_eq!(
            digests(&FIPS_KEY),
            (0x35f4_6e05_a836_cdc7, 0xb394_059e_3265_91a1)
        );
    }
}
