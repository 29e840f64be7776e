//! Property suite of the hand-written JSON codec: no input can panic the
//! parser (arbitrary bytes, arbitrary bracket/brace nestings on either side
//! of the depth cap), and every generated value survives `to_string` →
//! `parse` unchanged.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sne_serve::json::MAX_DEPTH;
use sne_serve::Json;

/// A random JSON value at most `depth` containers deep: every scalar kind,
/// finite numbers drawn from the whole bit space, strings over the whole
/// Unicode range (control characters and quotes included).
fn arbitrary_json(rng: &mut StdRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.gen_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => Json::Num(loop {
            let v = f64::from_bits(rng.gen());
            if v.is_finite() {
                break v;
            }
        }),
        3 => Json::Num(f64::from(rng.gen_range(-1000i32..1000))),
        4 => Json::Str(arbitrary_string(rng)),
        5 => Json::Arr(
            (0..rng.gen_range(0..5))
                .map(|_| arbitrary_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..5))
                .map(|_| (arbitrary_string(rng), arbitrary_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn arbitrary_string(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..12))
        .filter_map(|_| match rng.gen_range(0..4) {
            0 => char::from_u32(rng.gen_range(0u32..0x20)),
            1 => Some(['"', '\\', '/', '['][rng.gen_range(0usize..4)]),
            2 => char::from_u32(rng.gen_range(0x20u32..0x7f)),
            _ => char::from_u32(rng.gen_range(0x80u32..0x11_0000)),
        })
        .collect()
}

proptest! {
    /// Arbitrary bytes, biased towards JSON punctuation so that the
    /// structural paths (containers, strings, escapes, numbers) get deep
    /// coverage: the parser returns, it never panics.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(
            prop_oneof![
                0u8..=255,
                Just(b'['), Just(b']'), Just(b'{'), Just(b'}'),
                Just(b'"'), Just(b'\\'), Just(b','), Just(b':'),
                b'0'..=b'9', Just(b'-'), Just(b'e'), Just(b'u'),
            ],
            0..400,
        ),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
    }

    /// Any nesting of arrays and objects: a complete document parses iff it
    /// is within the depth cap (and then round-trips); any truncation of it
    /// is an error, not a panic.
    #[test]
    fn bracket_and_brace_nestings_respect_the_depth_cap(
        opens in prop::collection::vec(0u8..2, 0..(2 * MAX_DEPTH)),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut text = String::new();
        for &open in &opens {
            text.push_str(if open == 0 { "[" } else { "{\"k\":" });
        }
        text.push_str("null");
        for &open in opens.iter().rev() {
            text.push(if open == 0 { ']' } else { '}' });
        }
        match Json::parse(&text) {
            Ok(value) => {
                prop_assert!(opens.len() <= MAX_DEPTH);
                prop_assert_eq!(Json::parse(&value.to_string()).unwrap(), value);
            }
            Err(_) => prop_assert!(opens.len() > MAX_DEPTH),
        }
        let cut = (text.len() as f64 * cut_fraction) as usize;
        prop_assert!(Json::parse(&text[..cut]).is_err());
    }

    /// Generated values round-trip bit-exactly through the codec.
    #[test]
    fn generated_values_round_trip(seed in 0u64..u64::MAX, depth in 0u32..6) {
        let value = arbitrary_json(&mut StdRng::seed_from_u64(seed), depth);
        let text = value.to_string();
        prop_assert_eq!(Json::parse(&text).unwrap(), value);
    }
}
