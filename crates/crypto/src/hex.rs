//! Hexadecimal text: the one encoder and decoder every crate uses.
//!
//! Fingerprints in `scans.csv`, DER in serve journal records and request
//! frames, serials, key identifiers and checkpoint digests are all hex.
//! [`encode_to`] appends lowercase digits to the caller's buffer with one
//! table load per byte, so a writer that renders millions of rows never
//! formats a byte or allocates a string per field. [`decode`] and its
//! fixed-size form [`decode_array`] accept either case.

use std::fmt;

/// The two lowercase digits of every byte value.
static PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut table = [[0u8; 2]; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = [DIGITS[i >> 4], DIGITS[i & 0xf]];
        i += 1;
    }
    table
};

/// The value of every byte as a hex digit of either case; `0xff` for a
/// byte that is not one.
static VALUES: [u8; 256] = {
    let mut table = [0xffu8; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    table
};

/// Why text is not hex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HexError {
    /// An odd number of digits.
    OddLength,
    /// A byte outside `0-9`, `a-f` and `A-F`.
    BadDigit,
}

impl fmt::Display for HexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HexError::OddLength => "odd-length hex",
            HexError::BadDigit => "bad hex digit",
        })
    }
}

/// Append the lowercase hex of `bytes` to `out`.
pub fn encode_to(out: &mut Vec<u8>, bytes: &[u8]) {
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.extend_from_slice(&PAIRS[usize::from(b)]);
    }
}

/// The lowercase hex of `bytes`.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = Vec::with_capacity(bytes.len() * 2);
    encode_to(&mut out, bytes);
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Decode hex digits of either case. An empty input decodes to an empty
/// vector.
pub fn decode(hex: impl AsRef<[u8]>) -> Result<Vec<u8>, HexError> {
    let hex = hex.as_ref();
    if !hex.len().is_multiple_of(2) {
        return Err(HexError::OddLength);
    }
    // Checked before allocating: callers that try hex first and fall
    // back to another encoding reject most foreign text at its first byte.
    if hex.iter().any(|&b| VALUES[usize::from(b)] > 0xf) {
        return Err(HexError::BadDigit);
    }
    Ok(hex
        .chunks_exact(2)
        .map(|pair| (VALUES[usize::from(pair[0])] << 4) | VALUES[usize::from(pair[1])])
        .collect())
}

/// Decode exactly `2 * N` hex digits of either case into an array, as
/// for a SHA-256 fingerprint; `None` for any other length or a non-hex
/// byte.
pub fn decode_array<const N: usize>(hex: impl AsRef<[u8]>) -> Option<[u8; N]> {
    let hex = hex.as_ref();
    if hex.len() != 2 * N {
        return None;
    }
    let mut out = [0u8; N];
    for (slot, pair) in out.iter_mut().zip(hex.chunks_exact(2)) {
        let (hi, lo) = (VALUES[usize::from(pair[0])], VALUES[usize::from(pair[1])]);
        if (hi | lo) > 0xf {
            return None;
        }
        *slot = (hi << 4) | lo;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-byte `format!` rendering the codec replaced.
    fn reference(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn every_byte_value_encodes_like_the_reference() {
        let all: Vec<u8> = (0..=255).collect();
        assert_eq!(encode(&all), reference(&all));
        assert_eq!(decode(encode(&all)).unwrap(), all);
    }

    #[test]
    fn encode_to_appends_to_what_is_there() {
        let mut out = b"fp=".to_vec();
        encode_to(&mut out, &[0x00, 0x0f, 0xa0, 0xff]);
        assert_eq!(out, b"fp=000fa0ff");
    }

    #[test]
    fn both_cases_decode() {
        assert_eq!(decode("00aBcD"), Ok(vec![0x00, 0xab, 0xcd]));
        assert_eq!(decode("ABCDEF"), decode("abcdef"));
        assert_eq!(decode_array::<2>("Ff0a"), Some([0xff, 0x0a]));
        assert_eq!(decode(""), Ok(Vec::new()));
    }

    #[test]
    fn odd_length_and_non_hex_are_rejected() {
        assert_eq!(decode("abc"), Err(HexError::OddLength));
        assert_eq!(decode("0"), Err(HexError::OddLength));
        for bad in ["zz", "0g", "g0", " 0", "0x", "+1", "-1", "é"] {
            assert_eq!(decode(bad), Err(HexError::BadDigit), "{bad:?}");
        }
        assert_eq!(decode_array::<2>("abc"), None);
        assert_eq!(decode_array::<2>("abcdef"), None, "too long");
        assert_eq!(decode_array::<2>("ab"), None, "too short");
        assert_eq!(decode_array::<2>("ab0g"), None);
        assert_eq!(HexError::OddLength.to_string(), "odd-length hex");
        assert_eq!(HexError::BadDigit.to_string(), "bad hex digit");
    }

    proptest! {
        #[test]
        fn round_trips_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            let text = encode(&bytes);
            prop_assert_eq!(&text, &reference(&bytes));
            prop_assert_eq!(decode(&text).unwrap(), bytes.clone());
            prop_assert_eq!(decode(text.to_uppercase()).unwrap(), bytes);
        }

        #[test]
        fn fixed_size_form_matches_decode(bytes in any::<[u8; 32]>()) {
            let text = encode(&bytes);
            prop_assert_eq!(decode_array::<32>(&text), Some(bytes));
            prop_assert_eq!(decode_array::<32>(text.to_uppercase()), Some(bytes));
        }

        #[test]
        fn decode_accepts_exactly_even_length_hex_digits(text in "[0-9a-fA-Fg-z]{0,12}") {
            let ok = text.len().is_multiple_of(2) && text.bytes().all(|b| b.is_ascii_hexdigit());
            prop_assert_eq!(decode(&text).is_ok(), ok);
        }
    }
}
