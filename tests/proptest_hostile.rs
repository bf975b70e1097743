//! Hostile inputs end in a named error, never a panic or a hang: the
//! `diq serve` frame reader under truncated frames, random length prefixes
//! and garbage payloads, and the result store under one corrupt line at
//! any position.
//!
//! Each case draws its input from its own stream,
//! `derive_seed(seed, "adversarial")`, so a failing seed reproduces the
//! exact input.

use diq::exp::{fnv1a64, PointRecord, PointResult, ResultStore};
use diq::serve::protocol::{read_frame, write_frame, ToServer, MAX_FRAME_BYTES};
use proptest::prelude::*;
use proptest::rng::TestRng;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

/// The seed of one input profile's stream: FNV-1a over the case seed and
/// the profile name.
fn derive_seed(seed: u64, profile: &str) -> u64 {
    let mut bytes = seed.to_le_bytes().to_vec();
    bytes.extend_from_slice(profile.as_bytes());
    fnv1a64(&bytes)
}

fn bytes(rng: &mut TestRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A valid frame of a message with arbitrary text in it.
fn valid_frame(rng: &mut TestRng) -> Vec<u8> {
    let text: String = (0..rng.below(64))
        .filter_map(|_| char::from_u32(rng.below(0x11_0000) as u32))
        .collect();
    let msg = match rng.below(3) {
        0 => ToServer::Submit {
            spec_json: text,
            run_name: Some("run".into()),
        },
        1 => ToServer::Register {
            name: text,
            protocol: rng.next_u64() as u32,
        },
        _ => ToServer::Status {
            job: rng.next_u64(),
        },
    };
    let mut frame = Vec::new();
    write_frame(&mut frame, &msg).unwrap();
    frame
}

/// A JSON-ish payload: a valid message's JSON with a few bytes replaced,
/// dropped or inserted.
fn garbage_json(rng: &mut TestRng) -> Vec<u8> {
    let mut payload = valid_frame(rng).split_off(4);
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(payload.len() as u64 + 1) as usize;
        const JUNK: &[u8] = b"{}[]\",:\\ 0-eE.tnx\xff\x00";
        let junk = JUNK[rng.below(JUNK.len() as u64) as usize];
        match rng.below(3) {
            0 if at < payload.len() => payload[at] = junk,
            1 if at < payload.len() => {
                payload.remove(at);
            }
            _ => payload.insert(at, junk),
        }
    }
    payload
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

/// Decodes `input` and checks the outcome is a message or a named error.
fn assert_decodes_or_names_the_failure(input: &[u8]) {
    match read_frame::<ToServer, _>(&mut &input[..]) {
        Ok(_) => {}
        Err(e) => {
            let msg = e.to_string();
            match e.kind() {
                io::ErrorKind::UnexpectedEof => {}
                io::ErrorKind::InvalidData => assert!(
                    ["exceeds the", "frame UTF-8:", "decode frame:"]
                        .iter()
                        .any(|name| msg.contains(name)),
                    "unnamed decode failure: {msg}"
                ),
                kind => panic!("unexpected error kind {kind:?}: {msg}"),
            }
        }
    }
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmp_store() -> ResultStore {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "diq-prop-hostile-store-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ResultStore::open(dir).unwrap()
}

fn record(i: usize) -> PointRecord {
    PointRecord {
        key: format!("{i:016x}"),
        result: PointResult {
            scheme: "MB_distr".into(),
            benchmark: "gzip".into(),
            instructions: 1000 + i as u64,
            machine: format!("café-{i}"),
            seed: i as u64,
            ipc: 1.5,
            cycles: 700,
            committed: 1000,
            issued: 1010,
            dispatch_stall_cycles: 3,
            mispredict_redirects: 1,
            branch_accuracy: 0.97,
            dl1_miss_rate: 0.02,
            l2_miss_rate: 0.3,
            energy_pj: 123.5,
            energy_breakdown: vec![("fifo".into(), 100.0), ("select".into(), 23.5)],
            lsq_forwards: 7,
            checker_violations: 0,
            wrong_path_issued: 0,
            wrong_path_squashed: 0,
            replayed: 0,
            replay_cycles_lost: 0,
            resize_events: 0,
            gated_bank_cycles: 0,
        },
    }
}

/// A corrupt stand-in for one store line (no newline in it): a torn
/// prefix of the line (which can split the label's multi-byte `é`),
/// random bytes, or the line with one byte that is never UTF-8.
fn corrupt_line(rng: &mut TestRng, line: &[u8]) -> Vec<u8> {
    let mut bad = match rng.below(3) {
        0 => line[..1 + rng.below(line.len() as u64 - 1) as usize].to_vec(),
        1 => {
            let len = 1 + rng.below(80) as usize;
            bytes(rng, len)
        }
        _ => {
            let mut bad = line.to_vec();
            let at = rng.below(bad.len() as u64) as usize;
            bad[at] = 0xff; // never valid UTF-8
            bad
        }
    };
    bad.retain(|&b| b != b'\n');
    // Whitespace-only lines are skipped by design, not corrupt.
    if bad.iter().all(u8::is_ascii_whitespace) {
        bad.push(b'#');
    }
    bad
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// A valid frame cut at any byte is an `UnexpectedEof`.
    #[test]
    fn truncated_frames_are_unexpected_eof(seed in any::<u64>()) {
        let mut rng = TestRng::new(derive_seed(seed, "adversarial"));
        let frame = valid_frame(&mut rng);
        prop_assert!(read_frame::<ToServer, _>(&mut frame.as_slice()).is_ok());
        let cut = rng.below(frame.len() as u64) as usize;
        let err = read_frame::<ToServer, _>(&mut &frame[..cut]).unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Any length prefix over any bytes: over the cap is refused before a
    /// byte is allocated, anything else decodes or names its failure.
    #[test]
    fn random_length_prefixes_never_panic(seed in any::<u64>()) {
        let mut rng = TestRng::new(derive_seed(seed, "adversarial"));
        let len = match rng.below(3) {
            0 => rng.next_u64() as u32,
            1 => MAX_FRAME_BYTES as u32 + 1 + rng.below(1 << 20) as u32,
            _ => rng.below(256) as u32,
        };
        let body_len = rng.below(300) as usize;
        let mut input = len.to_be_bytes().to_vec();
        input.extend(bytes(&mut rng, body_len));
        let result = read_frame::<ToServer, _>(&mut input.as_slice());
        if len as usize > MAX_FRAME_BYTES {
            let err = result.unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            prop_assert!(err.to_string().contains("exceeds the"), "{}", err);
        } else if len as usize > body_len {
            prop_assert_eq!(result.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        }
        assert_decodes_or_names_the_failure(&input);
    }

    /// Random bytes and broken JSON under the cap decode or name their
    /// failure.
    #[test]
    fn garbage_payloads_decode_or_name_the_failure(seed in any::<u64>()) {
        let mut rng = TestRng::new(derive_seed(seed, "adversarial"));
        let payload = if rng.below(2) == 0 {
            let len = rng.below(200) as usize;
            bytes(&mut rng, len)
        } else {
            garbage_json(&mut rng)
        };
        assert_decodes_or_names_the_failure(&framed(&payload));
    }

    /// One corrupt line anywhere: a non-final line is an `InvalidData`
    /// naming `store.jsonl:<line>`; an unterminated final line is a torn
    /// write, skipped, and every other record loads.
    #[test]
    fn one_corrupt_store_line_is_named_or_skipped(seed in any::<u64>()) {
        let mut rng = TestRng::new(derive_seed(seed, "adversarial"));
        let store = tmp_store();
        let n = 1 + rng.below(8) as usize;
        let records: Vec<PointRecord> = (0..n).map(record).collect();
        store.append(&records).unwrap();
        let path = store.root().join("store.jsonl");
        let text = std::fs::read(&path).unwrap();
        let mut lines: Vec<Vec<u8>> = text.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        lines.pop(); // the empty piece after the final newline
        let bad = rng.below(n as u64) as usize;
        lines[bad] = corrupt_line(&mut rng, &lines[bad]);
        let mut corrupted = lines.join(&b'\n');
        let torn_tail = bad + 1 == n && rng.below(2) == 0;
        if !torn_tail {
            corrupted.push(b'\n');
        }
        std::fs::write(&path, &corrupted).unwrap();

        let loaded = store.load();
        if torn_tail {
            let index = loaded.unwrap();
            prop_assert_eq!(index.len(), n - 1);
            for rec in &records[..n - 1] {
                prop_assert_eq!(&index[&rec.key], rec);
            }
        } else {
            let err = loaded.unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let named = format!("store.jsonl:{}:", bad + 1);
            prop_assert!(err.to_string().contains(&named), "{} should name {}", err, named);
        }
        let _ = std::fs::remove_dir_all(store.root());
    }
}
