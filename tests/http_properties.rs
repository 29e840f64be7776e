//! Property suite of the incremental HTTP request parser: no byte stream can
//! panic it, and the outcome never depends on how the bytes were split
//! across reads — including heads and bodies past their bounds, which must
//! be rejected however they arrive.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sne_serve::http::{Request, RequestParser, MAX_BODY_BYTES, MAX_HEADERS, MAX_HEADER_BYTES};

/// What a reader sees: every request taken, up to the first error (which
/// ends the connection). Without an error, also the bytes left buffered and
/// whether a request is still in progress once every byte is fed.
#[derive(Debug, PartialEq)]
struct Outcome {
    taken: Vec<Result<Request, &'static str>>,
    rest: Option<(usize, bool)>,
}

/// Feeds `bytes` in the pieces `cuts` marks (sorted offsets), taking every
/// complete request after each piece the way the reactor does.
fn drive(bytes: &[u8], cuts: &[usize]) -> Outcome {
    let mut parser = RequestParser::new();
    let mut taken = Vec::new();
    let mut start = 0;
    for &end in cuts.iter().chain(std::iter::once(&bytes.len())) {
        parser.feed(&bytes[start..end]);
        start = end;
        loop {
            match parser.try_take() {
                Ok(Some(request)) => taken.push(Ok(request)),
                Ok(None) => break,
                Err(message) => {
                    taken.push(Err(message));
                    return Outcome { taken, rest: None };
                }
            }
        }
    }
    Outcome {
        taken,
        rest: Some((parser.buffered(), parser.mid_request())),
    }
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

/// Appends one generated request: mostly well formed, sometimes with too
/// many headers, a head near or far past `MAX_HEADER_BYTES`, a
/// `Content-Length` past `MAX_BODY_BYTES` or off from the body, a non-UTF-8
/// body, bare `\n` line ends or an unsupported version.
fn push_request(rng: &mut StdRng, out: &mut Vec<u8>) {
    let eol = if rng.gen_bool(0.9) { "\r\n" } else { "\n" };
    let mut head = format!(
        "{} {} {}{eol}",
        pick(rng, &["GET", "POST", "POST", "PUT"]),
        pick(rng, &["/healthz", "/v1/infer", "/v1/stream/s-1/push", "/"]),
        pick(
            rng,
            &["HTTP/1.1", "HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "HTTP/2"]
        ),
    );
    let headers = if rng.gen_bool(0.05) {
        MAX_HEADERS - 2 + rng.gen_range(0..5usize)
    } else {
        rng.gen_range(0..5usize)
    };
    for i in 0..headers {
        let value = match rng.gen_range(0..4u32) {
            0 => pick(rng, &["close", "keep-alive", ""]).to_owned(),
            _ => format!("v{}", rng.gen_range(0..1_000_000u32)),
        };
        let name = pick(rng, &["Host", "X-Request-Id", "Connection", "Accept"]);
        head.push_str(&format!("{name}{i}: {value}{eol}"));
        if i % 7 == 0 {
            head.push_str(&format!("{name}: {value}{eol}"));
        }
    }
    let mut body: Vec<u8> = (0..rng.gen_range(0..40usize))
        .map(|_| rng.gen_range(b' '..=b'~'))
        .collect();
    if rng.gen_bool(0.05) {
        body.push(0xff);
    }
    let content_length = match rng.gen_range(0..20u32) {
        0 => (MAX_BODY_BYTES + rng.gen_range(1..1000u64)).to_string(),
        1 => "zz".to_owned(),
        2 => (body.len() + rng.gen_range(1..8usize)).to_string(),
        3 => body
            .len()
            .saturating_sub(rng.gen_range(1..8usize))
            .to_string(),
        _ => body.len().to_string(),
    };
    head.push_str(&format!("Content-Length: {content_length}{eol}"));
    // Pad the head to just under, at or over its bound, or far past it.
    if rng.gen_bool(0.15) {
        let target = if rng.gen_bool(0.2) {
            4 * MAX_HEADER_BYTES as usize
        } else {
            (MAX_HEADER_BYTES as i64 + rng.gen_range(-3i64..=3)) as usize
        };
        let fixed = head.len() + "X-Pad: ".len() + 2 * eol.len();
        head.push_str(&format!(
            "X-Pad: {}{eol}",
            "p".repeat(target.saturating_sub(fixed))
        ));
    }
    head.push_str(eol);
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(&body);
}

/// Sorted cut offsets into `len` bytes: none, a few random ones, or fixed
/// size pieces (kept to a bounded count on large inputs).
fn cuts(rng: &mut StdRng, len: usize) -> Vec<usize> {
    match rng.gen_range(0..3u32) {
        0 => Vec::new(),
        1 => {
            let mut cuts: Vec<usize> = (0..rng.gen_range(1..8usize))
                .map(|_| rng.gen_range(0..=len))
                .collect();
            cuts.sort_unstable();
            cuts
        }
        _ => {
            let piece = rng.gen_range(1..=64usize).max(len / 256);
            (piece..len).step_by(piece).collect()
        }
    }
}

proptest! {
    /// Arbitrary bytes, biased towards HTTP framing, fed in arbitrary
    /// pieces: the parser returns, it never panics.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(
            prop_oneof![
                0u8..=255,
                Just(b'\r'), Just(b'\n'), Just(b':'), Just(b' '),
                b'0'..=b'9', b'A'..=b'Z', Just(b'/'),
            ],
            0..600,
        ),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cuts = cuts(&mut rng, bytes.len());
        let _ = drive(&bytes, &cuts);
        let mut framed = b"POST / HTTP/1.1\r\nContent-Length: 5\r\n".to_vec();
        framed.extend_from_slice(&bytes);
        let _ = drive(&framed, &cuts);
    }

    /// One to three pipelined generated requests, optionally followed by
    /// stray bytes: every split gives exactly the one-shot outcome.
    #[test]
    fn every_split_parses_like_one_shot(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = Vec::new();
        for _ in 0..rng.gen_range(1..=3usize) {
            push_request(&mut rng, &mut bytes);
        }
        if rng.gen_bool(0.2) {
            bytes.extend((0..rng.gen_range(1..20usize)).map(|_| rng.gen::<u8>()));
        }
        let one_shot = drive(&bytes, &[]);
        for _ in 0..4 {
            let cuts = cuts(&mut rng, bytes.len());
            prop_assert_eq!(&drive(&bytes, &cuts), &one_shot);
        }
    }
}

/// Heads right at the bound: `MAX_HEADER_BYTES` bytes (blank line included)
/// parse, one byte more is rejected, whether fed at once or byte by byte.
#[test]
fn the_header_bound_is_the_same_for_every_split() {
    for extra in [0usize, 1] {
        let line = "GET /healthz HTTP/1.1\r\nX-Pad: ";
        let pad = MAX_HEADER_BYTES as usize - line.len() - 4 + extra;
        let raw = format!("{line}{}\r\n\r\n", "p".repeat(pad));
        let every_byte: Vec<usize> = (1..raw.len()).collect();
        let one_shot = drive(raw.as_bytes(), &[]);
        assert_eq!(drive(raw.as_bytes(), &every_byte), one_shot);
        assert_eq!(one_shot.taken.len(), 1);
        assert_eq!(one_shot.taken[0].is_ok(), extra == 0, "extra = {extra}");
    }
}
