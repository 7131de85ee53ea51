//! Robustness of the binary wire form of the pixel messages (`FrameKey`,
//! `FrameDelta`): whatever bytes arrive, the decoder answers with a
//! `Message` or an error, never a panic. (What the assembler does
//! with a damaged `Message` that still decodes is tested next to it, in
//! `frame_delta.rs`, where the committed buffer is visible.)

#![allow(clippy::disallowed_methods, reason = "the codec is driven directly over in-memory streams")]

use hyperwall::frame_delta::{fnv1a, FrameAssembler, FrameStreamer};
use hyperwall::protocol::{
    encode_frame, read_message, Message, DELTA_HEADER_BYTES, KEY_HEADER_BYTES,
    MAX_MESSAGE_BYTES, TILE_HEADER_BYTES,
};
use hyperwall::WallError;

const W: usize = 70; // not tile-aligned on purpose
const H: usize = 50;

/// Background plus a moving blob, like a real render.
fn frame(w: usize, h: usize, seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(w * h * 4);
    for y in 0..h as u64 {
        for x in 0..w as u64 {
            let lit = (x + seed * 3) % 17 < 4 && (y + seed) % 13 < 5;
            out.extend_from_slice(&if lit { [200, seed as u8, 40, 255] } else { [10, 10, 30, 255] });
        }
    }
    out
}

/// One real message of a stream.
struct Case {
    name: &'static str,
    msg: Message,
}

/// A key, a delta of several tiles and a delta of no tiles, each taken from
/// one running stream.
fn cases() -> Vec<Case> {
    let mut streamer = FrameStreamer::new(W, H, 0);
    let mut out = Vec::new();
    for (name, seed) in [("key", 0), ("delta", 1), ("empty delta", 1)] {
        let (msg, _) = streamer.encode(3, out.len() as u64, &frame(W, H, seed)).unwrap();
        out.push(Case { name, msg });
    }
    match (&out[1].msg, &out[2].msg) {
        (Message::FrameDelta { tiles: some, .. }, Message::FrameDelta { tiles: none, .. }) => {
            assert!(some.len() >= 2 && none.is_empty());
        }
        other => panic!("{other:?}"),
    }
    out
}

fn decode(framed: &[u8]) -> hyperwall::Result<Message> {
    read_message(&mut &framed[..])
}

/// Replaces the length prefix of `framed` by the length of what follows it.
fn refit_prefix(framed: &mut [u8]) {
    let len = (framed.len() - 4) as u32;
    framed[..4].copy_from_slice(&len.to_le_bytes());
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Wire revision 5's fold, written out from the `frame_delta` module docs
/// alone: `step(h, w) = ((h ^ w)·K).rotate_left(29)` from `SEED` over the
/// words, then MurmurHash3's `fmix64` of the state xored with the byte
/// count.
fn fold_by_the_book(words: impl IntoIterator<Item = u64>, byte_len: usize) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    const SEED: u64 = 0x243f_6a88_85a3_08d3;
    let mut h = SEED;
    for w in words {
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    h ^= byte_len as u64;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// `frame_hash` as a peer would compute it from the protocol docs alone:
/// the fold over the hashes of the frame's 32×32 tiles (clipped at the
/// right and bottom edges) in grid order, a tile's words being its rows',
/// top to bottom, eight little-endian bytes each, the last pixel of an
/// odd-width row zero-extended to a word of its own.
fn frame_hash_by_the_book(rgba: &[u8], w: usize, h: usize) -> u64 {
    let grid = rvtk::render::TileGrid::with_default_tile(w, h);
    let mut tile_hashes = Vec::new();
    for idx in 0..grid.len() {
        let rect = grid.rect(idx);
        let mut words = Vec::new();
        for y in rect.y0..rect.y0 + rect.h {
            let start = (y * w + rect.x0) * 4;
            for chunk in rgba[start..start + rect.w * 4].chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                words.push(u64::from_le_bytes(word));
            }
        }
        tile_hashes.push(fold_by_the_book(words, rect.w * rect.h * 4));
    }
    fold_by_the_book(tile_hashes.iter().copied(), tile_hashes.len() * 8)
}

/// Revision 4's `frame_hash`: FNV-1a over the little-endian FNV-1a hashes
/// of the tiles.
fn revision_4_frame_hash(rgba: &[u8], w: usize, h: usize) -> u64 {
    let grid = rvtk::render::TileGrid::with_default_tile(w, h);
    let mut words = Vec::new();
    for idx in 0..grid.len() {
        let rect = grid.rect(idx);
        let mut tile = Vec::new();
        for y in rect.y0..rect.y0 + rect.h {
            let start = (y * w + rect.x0) * 4;
            tile.extend_from_slice(&rgba[start..start + rect.w * 4]);
        }
        words.extend_from_slice(&fnv1a(&tile).to_le_bytes());
    }
    fnv1a(&words)
}

/// The eight `frame_hash` bytes of a key and of a delta, as they come off
/// the wire, are revision 5's hash of tile hashes of the frame that message
/// leaves — not revision 3's hash of the frame bytes, nor revision 4's
/// FNV-1a of FNV-1a tile hashes.
#[test]
fn frame_hash_on_the_wire_is_the_hash_of_the_tile_hashes() {
    // and at 79 × 41, where the right-edge tiles are 15 pixels wide: every
    // row of them ends in a zero-extended pixel
    for (w, h) in [(W, H), (79, 41)] {
        let mut streamer = FrameStreamer::new(w, h, 0);
        for seed in 0..3 {
            let rgba = frame(w, h, seed);
            let (msg, _) = streamer.encode(0, seed, &rgba).unwrap();
            let claimed = match decode(&encode_frame(&msg).unwrap()).unwrap() {
                Message::FrameKey { frame_hash, .. } if seed == 0 => frame_hash,
                Message::FrameDelta { frame_hash, .. } if seed > 0 => frame_hash,
                other => panic!("{other:?}"),
            };
            assert_eq!(claimed, frame_hash_by_the_book(&rgba, w, h), "{w}×{h} frame {seed}");
            assert_ne!(claimed, fnv1a(&rgba), "{w}×{h} frame {seed}");
            assert_ne!(claimed, revision_4_frame_hash(&rgba, w, h), "{w}×{h} frame {seed}");
        }
    }
}

/// The size on the wire is the prefix, the fixed header and the RLE bytes
/// themselves. A return to a text encoding of the payload (3.3 bytes per
/// byte under the old JSON form) cannot pass this.
#[test]
fn wire_size_is_prefix_plus_header_plus_payload_bytes() {
    for case in cases() {
        let framed = encode_frame(&case.msg).unwrap();
        let expect = match &case.msg {
            Message::FrameKey { payload, .. } => KEY_HEADER_BYTES + payload.len(),
            Message::FrameDelta { tiles, .. } => {
                DELTA_HEADER_BYTES
                    + tiles.iter().map(|t| TILE_HEADER_BYTES + t.data.len()).sum::<usize>()
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(framed.len(), 4 + expect, "{}", case.name);
        assert_eq!(decode(&framed).unwrap(), case.msg, "{}", case.name);
    }
}

#[test]
fn every_truncation_is_an_error() {
    for case in cases() {
        let framed = encode_frame(&case.msg).unwrap();
        for cut in 0..framed.len() {
            // the stream ends early: the prefix promises more than arrives
            assert!(decode(&framed[..cut]).is_err(), "{} cut at {cut}", case.name);
            // the body itself is short: prefix and bytes agree, fields do not
            if cut >= 4 {
                let mut short = framed[..cut].to_vec();
                refit_prefix(&mut short);
                let err = decode(&short).unwrap_err();
                assert!(matches!(err, WallError::Protocol(_)), "{} cut at {cut}: {err}", case.name);
            }
        }
    }
}

/// Every declared size is checked against the bytes present before it
/// sizes anything: were the tile count trusted, `u32::MAX` tiles would ask
/// for 200 GB of `WireTile`s and the test process would die, not fail.
#[test]
fn declared_sizes_beyond_the_body_are_protocol_errors() {
    let all = cases();
    let key = encode_frame(&all[0].msg).unwrap();
    let delta = encode_frame(&all[1].msg).unwrap();
    let payload_len_of_key = 4 + KEY_HEADER_BYTES - 4;
    let tile_count = 4 + DELTA_HEADER_BYTES - 4;
    let first_tile_len = 4 + DELTA_HEADER_BYTES + TILE_HEADER_BYTES - 4;
    for (framed, at) in [(&key, payload_len_of_key), (&delta, tile_count), (&delta, first_tile_len)]
    {
        let declared = u32::from_le_bytes(framed[at..at + 4].try_into().unwrap());
        for lie in [declared + 1, u32::MAX] {
            let mut bad = framed.clone();
            bad[at..at + 4].copy_from_slice(&lie.to_le_bytes());
            let err = decode(&bad).unwrap_err();
            assert!(matches!(err, WallError::Protocol(_)), "field at {at} = {lie}: {err}");
        }
    }
}

#[test]
fn trailing_bytes_empty_body_and_json_pixel_bodies_are_protocol_errors() {
    for case in cases() {
        let mut framed = encode_frame(&case.msg).unwrap();
        framed.push(0);
        refit_prefix(&mut framed);
        let err = decode(&framed).unwrap_err();
        assert!(matches!(err, WallError::Protocol(_)), "{} + 1 byte: {err}", case.name);

        // the variant's JSON text is well-formed, and is refused for what
        // it is, not for failing to parse
        let mut json = vec![0u8; 4];
        json.extend_from_slice(&serde_json::to_vec(&case.msg).unwrap());
        refit_prefix(&mut json);
        match decode(&json).unwrap_err() {
            WallError::Protocol(why) => assert!(why.contains("JSON body"), "{}: {why}", case.name),
            other => panic!("{}: {other}", case.name),
        }
    }
    let err = decode(&0u32.to_le_bytes()).unwrap_err();
    assert!(matches!(err, WallError::Protocol(_)), "empty body: {err}");
}

/// Revision 6 has two pixel tags. A body that opens with revision 5's
/// preview tag, `0x03`, is read as the JSON text it cannot be and refused
/// as a protocol error — a whole revision-5 preview, and the tag followed
/// by anything at all — never a panic and never a pixel message.
#[test]
fn the_retired_preview_tag_is_a_protocol_error() {
    // as revision 5 laid it out: tag, client_id, frame, epoch, width,
    // height, hash, then the payload as a byte string
    let mut preview = vec![0x03];
    for field in [3u64, 8, 1, 4, 2, 0xcafe] {
        preview.extend(field.to_le_bytes());
    }
    preview.extend(5u32.to_le_bytes());
    preview.extend([8, 0, 0, 0, 255]);
    let mut bodies = vec![preview, vec![0x03]];
    let mut rng = XorShift(3);
    for len in [2usize, 9, 61, 400] {
        for _ in 0..20 {
            bodies.push([0x03].into_iter().chain((1..len).map(|_| rng.next() as u8)).collect());
        }
    }
    for body in bodies {
        let mut framed = (body.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&body);
        match decode(&framed) {
            Err(WallError::Protocol(_)) => {}
            other => panic!("0x03 body of {} bytes: {other:?}", body.len()),
        }
    }
}

/// `MAX_MESSAGE_BYTES` holds the worst keyframe of the benchmark's panel —
/// no two neighbouring pixels equal, so RLE expands it to 5 bytes a pixel —
/// and a message over the cap is refused by the sender, not put on the wire.
#[test]
fn incompressible_keyframe_fits_the_cap_and_an_oversize_one_is_refused() {
    let (w, h) = (480, 360);
    let mut rng = XorShift(7);
    let mut noise = Vec::with_capacity(w * h * 4);
    for i in 0..w * h {
        // the low bit alternates, so no run is longer than one pixel
        noise.extend_from_slice(&[rng.next() as u8, rng.next() as u8, (i & 1) as u8, 255]);
    }
    let (key, _) = FrameStreamer::new(w, h, 0).encode(0, 0, &noise).unwrap();
    let framed = encode_frame(&key).unwrap();
    assert_eq!(framed.len(), 4 + KEY_HEADER_BYTES + w * h * 5);
    assert!(framed.len() - 4 <= MAX_MESSAGE_BYTES);
    let mut asm = FrameAssembler::new(w, h);
    asm.apply(&decode(&framed).unwrap()).unwrap();
    assert_eq!(asm.frame().unwrap(), noise.as_slice());

    let with_payload = |n: usize| Message::FrameKey {
        client_id: 0,
        frame: 0,
        epoch: 1,
        seq: 0,
        width: w,
        height: h,
        payload: vec![0u8; n],
        frame_hash: 0,
    };
    let at_cap = encode_frame(&with_payload(MAX_MESSAGE_BYTES - KEY_HEADER_BYTES)).unwrap();
    assert_eq!(at_cap.len(), 4 + MAX_MESSAGE_BYTES);
    let err = encode_frame(&with_payload(MAX_MESSAGE_BYTES - KEY_HEADER_BYTES + 1)).unwrap_err();
    assert!(matches!(err, WallError::Protocol(_)), "{err}");
}
