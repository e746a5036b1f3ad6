//! The wire decoders never panic. Bytes from a peer reach
//! [`read_frame`], [`Request::decode`] and [`Response::decode`] before
//! anything else looks at them, so each must answer `Ok` or `Err` on
//! arbitrary bytes, and on valid encodings that were byte-mutated or
//! truncated.

use std::io::Cursor;

use mera_server::protocol::{read_frame, write_frame, Request, Response, Row};
use proptest::prelude::*;

/// Valid messages to start mutations from: every request kind and every
/// response tag, with text from a multi-byte alphabet.
fn samples(text: &str) -> (Vec<Request>, Vec<Response>) {
    let requests = vec![
        Request::Sql(format!("SELECT * FROM {text}")),
        Request::Xra(format!("?project[%1]({text});")),
        Request::Ping,
    ];
    let rows = vec![
        Row {
            multiplicity: 2,
            values: vec![text.to_owned(), "5.0".to_owned()],
        },
        Row {
            multiplicity: u64::MAX,
            values: vec![],
        },
    ];
    let responses = vec![
        Response::RowBatch { last: true, rows },
        Response::Done {
            committed: 3,
            aborted: 1,
        },
        Response::Error(text.to_owned()),
        Response::Pong,
        Response::Notice(text.to_owned()),
    ];
    (requests, responses)
}

fn text_of(picks: &[u8]) -> String {
    const ALPHABET: &[char] = &['a', '\'', ' ', 'é', '—', 'β', '%', '\n'];
    picks
        .iter()
        .map(|&i| ALPHABET[i as usize % ALPHABET.len()])
        .collect()
}

/// Overwrites `edits` bytes of the non-empty `bytes`, then cuts up to
/// all of them off its end.
fn mutate(mut bytes: Vec<u8>, edits: &[(usize, u8)], cut: usize) -> Vec<u8> {
    for &(at, byte) in edits {
        let i = at % bytes.len();
        bytes[i] = byte;
    }
    bytes.truncate(bytes.len() - cut % (bytes.len() + 1));
    bytes
}

/// Decodes `payload` with both decoders and reads it as a byte stream
/// of frames until the reader reports EOF or an error.
fn decode_all(payload: &[u8]) {
    let _ = Request::decode(payload);
    let _ = Response::decode(payload);
    let mut stream = Cursor::new(payload);
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        let _ = Request::decode(&frame);
        let _ = Response::decode(&frame);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        decode_all(&bytes);
    }

    #[test]
    fn decoders_never_panic_on_mutated_encodings(
        which in 0usize..8,
        picks in proptest::collection::vec(0u8..8, 0..12),
        edits in proptest::collection::vec((0usize..=usize::MAX, 0u8..=255), 0..6),
        cut in 0usize..64,
    ) {
        let (requests, responses) = samples(&text_of(&picks));
        let payload = match which {
            0..=2 => requests[which].encode(),
            _ => responses[which - 3].encode(),
        };
        // a frame around the valid payload, mutated as a whole, tests the
        // length prefix; the bare payload tests the decoders
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("in-memory write");
        decode_all(&mutate(framed, &edits, cut));
        decode_all(&mutate(payload, &edits, cut));
    }
}
