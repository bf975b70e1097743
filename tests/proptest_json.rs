//! The direct JSON paths agree with the tree paths on every input, and the
//! reader agrees with a byte-at-a-time reference.
//!
//! `serde_json::from_str_direct::<T>` decodes a derived type straight off
//! the text; the reference is `from_value(from_str::<Value>(s))`, which
//! builds the whole tree first. For the stored and wire types (store
//! records, run manifests, trace footers, scheduler, workload and machine
//! configs, serve frames), over their own renderings and hostile variants
//! of them, both must give the same value or both must fail, and
//! `from_str` must give the tree's exact result, error message included.
//!
//! The variants exercise what the direct decoder must keep of the tree's
//! meaning: keys reordered, a key duplicated with a different value (the
//! first one wins), unknown keys (skipped), fields dropped (defaulted or
//! an error), integers and integral floats swapped, enum tags renamed,
//! nodes replaced by scalars, and random byte edits of the text.
//!
//! On the write side, `serde_json::to_string` writes a derived type
//! straight from its fields; it must give the text of the type's `Value`
//! tree, compact and pretty, byte for byte.
//!
//! The reader itself scans eight bytes at a time. `reference` below is a
//! plain byte-at-a-time RFC 8259 parser with the same error messages; on
//! random texts, byte edits of them, strings that put escapes, control
//! bytes and multi-byte characters at every offset of an 8-byte word, every
//! number form, and nesting at the limit, both must give the same `Value`
//! or the same error.

use diq::exp::{ManifestEntry, Point, PointRecord, PointResult, RunManifest, SweepSummary};
use diq::isa::ProcessorConfig;
use diq::sched::SchedulerConfig;
use diq::serve::protocol::{FromServer, JobView, ToServer};
use diq::workload::trace::TraceMeta;
use diq::workload::{suite, WorkloadSource, WorkloadSpec};
use proptest::prelude::*;
use proptest::rng::TestRng;
use serde_json::Value;
use std::fmt::Debug;

fn pick<T: Clone>(rng: &mut TestRng, pool: &[T]) -> T {
    pool[rng.below(pool.len() as u64) as usize].clone()
}

/// A short string over the characters a JSON string codec can get wrong.
fn arb_string(rng: &mut TestRng) -> String {
    const CHARS: [char; 12] = [
        'a', 'z', '0', '_', ' ', '"', '\\', '\n', '\u{1}', 'é', '😀', '/',
    ];
    (0..rng.below(8)).map(|_| pick(rng, &CHARS)).collect()
}

/// A float as results hold them: integral, fractional, tiny or negative.
fn arb_f64(rng: &mut TestRng) -> f64 {
    match rng.below(4) {
        0 => rng.below(1000) as f64,
        1 => rng.unit() * 1e4,
        2 => rng.unit() * 1e-7,
        _ => -rng.unit(),
    }
}

fn arb_u64(rng: &mut TestRng) -> u64 {
    match rng.below(3) {
        0 => rng.below(10),
        1 => rng.below(1 << 20),
        _ => rng.next_u64(),
    }
}

fn point_result(rng: &mut TestRng) -> PointResult {
    PointResult {
        scheme: arb_string(rng),
        benchmark: arb_string(rng),
        instructions: arb_u64(rng),
        machine: arb_string(rng),
        seed: arb_u64(rng),
        ipc: arb_f64(rng),
        cycles: arb_u64(rng),
        committed: arb_u64(rng),
        issued: arb_u64(rng),
        dispatch_stall_cycles: arb_u64(rng),
        mispredict_redirects: arb_u64(rng),
        branch_accuracy: arb_f64(rng),
        dl1_miss_rate: arb_f64(rng),
        l2_miss_rate: arb_f64(rng),
        energy_pj: arb_f64(rng),
        energy_breakdown: (0..rng.below(4))
            .map(|_| (arb_string(rng), arb_f64(rng)))
            .collect(),
        lsq_forwards: arb_u64(rng),
        checker_violations: arb_u64(rng),
        wrong_path_issued: arb_u64(rng),
        wrong_path_squashed: arb_u64(rng),
        replayed: arb_u64(rng),
        replay_cycles_lost: arb_u64(rng),
        resize_events: arb_u64(rng),
        gated_bank_cycles: arb_u64(rng),
    }
}

fn point_record(rng: &mut TestRng) -> PointRecord {
    PointRecord {
        key: format!("{:016x}", rng.next_u64()),
        result: point_result(rng),
    }
}

fn run_manifest(rng: &mut TestRng) -> RunManifest {
    RunManifest {
        name: arb_string(rng),
        description: (rng.below(2) == 0).then(|| arb_string(rng)),
        points: (0..rng.below(4))
            .map(|_| ManifestEntry {
                key: format!("{:016x}", rng.next_u64()),
                scheme: arb_string(rng),
                benchmark: arb_string(rng),
                instructions: arb_u64(rng),
                machine: arb_string(rng),
            })
            .collect(),
    }
}

fn trace_meta(rng: &mut TestRng) -> TraceMeta {
    TraceMeta {
        name: arb_string(rng),
        seed: arb_u64(rng),
        source: arb_string(rng),
        instructions: arb_u64(rng),
        blocks: arb_u64(rng),
        block_instrs: rng.next_u64() as u32,
        content: rng.next_u64(),
        max_raw_block: rng.next_u64() as u32,
        max_comp_block: rng.next_u64() as u32,
    }
}

fn scheduler(rng: &mut TestRng) -> SchedulerConfig {
    if rng.below(4) == 0 {
        SchedulerConfig::Cam {
            int_entries: rng.below(128) as usize,
            fp_entries: rng.below(128) as usize,
            banks: rng.below(8) as usize,
        }
    } else {
        pick(rng, &SchedulerConfig::known())
    }
}

fn workload_spec(rng: &mut TestRng) -> WorkloadSpec {
    let name = pick(rng, &suite::all()).name;
    let variant = pick(rng, &["expected", "stress", "adversarial"]);
    let uri = format!("profile:{name}/{variant}@{}", rng.below(100));
    match WorkloadSource::resolve_one(&uri).unwrap() {
        WorkloadSource::Spec(spec) => spec,
        WorkloadSource::Trace(_) => unreachable!("a profile URI generates"),
    }
}

fn processor(rng: &mut TestRng) -> ProcessorConfig {
    let mut m = ProcessorConfig::hpca2004();
    m.rob_entries = 1 + rng.below(512) as usize;
    m.fetch_width = 1 + rng.below(16) as usize;
    m.wrong_path = rng.below(2) == 0;
    m.load_hit_speculation = rng.below(2) == 0;
    m
}

fn job_view(rng: &mut TestRng) -> JobView {
    JobView {
        job: arb_u64(rng),
        run: arb_string(rng),
        done: rng.below(2) == 0,
        total: rng.below(100) as usize,
        computed: rng.below(100) as usize,
        cached: rng.below(100) as usize,
        remaining: rng.below(100) as usize,
        summary: (rng.below(2) == 0).then(|| {
            SweepSummary::new(
                arb_string(rng),
                rng.below(50) as usize,
                rng.below(50) as usize,
                std::path::Path::new("results"),
            )
        }),
    }
}

fn to_server(rng: &mut TestRng) -> ToServer {
    match rng.below(7) {
        0 => ToServer::Submit {
            spec_json: arb_string(rng),
            run_name: (rng.below(2) == 0).then(|| arb_string(rng)),
        },
        1 => ToServer::Status { job: arb_u64(rng) },
        2 => ToServer::Shutdown,
        3 => ToServer::Register {
            name: arb_string(rng),
            protocol: rng.next_u64() as u32,
        },
        4 => ToServer::Idle,
        5 => ToServer::Heartbeat,
        _ => ToServer::Result {
            lease: arb_u64(rng),
            record: point_record(rng),
        },
    }
}

fn from_server(rng: &mut TestRng) -> FromServer {
    match rng.below(7) {
        0 => FromServer::Accepted {
            job: arb_u64(rng),
            view: job_view(rng),
        },
        1 => FromServer::JobStatus(job_view(rng)),
        2 => FromServer::Registered {
            worker: arb_u64(rng),
        },
        3 => {
            let mut point = Point::from_source(
                processor(rng),
                scheduler(rng),
                WorkloadSource::Spec(workload_spec(rng)),
                arb_u64(rng),
            );
            point.machine_label = arb_string(rng);
            FromServer::Assign {
                lease: arb_u64(rng),
                point,
            }
        }
        4 => FromServer::Close,
        5 => FromServer::ShuttingDown,
        _ => FromServer::Error {
            message: arb_string(rng),
        },
    }
}

/// A value of the same kind as `v` that differs from it (for maps and
/// arrays, in one element).
fn tweak(rng: &mut TestRng, v: &Value) -> Value {
    match v {
        Value::Null => Value::Bool(false),
        Value::Bool(b) => Value::Bool(!b),
        Value::UInt(n) => Value::UInt(n ^ 1),
        Value::Int(n) => Value::Int(n.wrapping_sub(1)),
        Value::Float(x) => Value::Float(x + 1.0),
        Value::Str(s) => Value::Str(format!("{s}x")),
        Value::Seq(xs) if xs.is_empty() => Value::Seq(vec![Value::UInt(0)]),
        Value::Seq(xs) => Value::Seq(xs[1..].to_vec()),
        Value::Map(m) if m.is_empty() => Value::Map(vec![("x".into(), Value::Null)]),
        Value::Map(m) => {
            let mut m = m.clone();
            let i = rng.below(m.len() as u64) as usize;
            m[i].1 = tweak(rng, &m[i].1);
            Value::Map(m)
        }
    }
}

fn arb_scalar(rng: &mut TestRng) -> Value {
    match rng.below(6) {
        0 => Value::Null,
        1 => Value::Bool(true),
        2 => Value::Int(-1),
        3 => Value::Str("Cam".into()),
        4 => Value::Seq(Vec::new()),
        _ => Value::Map(Vec::new()),
    }
}

/// One structural edit at a random node of `v`.
fn mutate(rng: &mut TestRng, v: &mut Value) {
    match v {
        Value::Map(m) if !m.is_empty() && rng.below(3) != 0 => {
            let i = rng.below(m.len() as u64) as usize;
            return mutate(rng, &mut m[i].1);
        }
        Value::Seq(xs) if !xs.is_empty() && rng.below(3) != 0 => {
            let i = rng.below(xs.len() as u64) as usize;
            return mutate(rng, &mut xs[i]);
        }
        _ => {}
    }
    match v {
        Value::Map(m) if !m.is_empty() => {
            let i = rng.below(m.len() as u64) as usize;
            let at = rng.below(m.len() as u64 + 1) as usize;
            match rng.below(6) {
                // Reorder: rotate the entries.
                0 => m.rotate_left(i),
                // Duplicate a key with a different value, before or after
                // the original: whichever comes first must win.
                1 => {
                    let (k, val) = m[i].clone();
                    let other = tweak(rng, &val);
                    m.insert(at, (k, other));
                }
                // Duplicate a key with a value of the wrong kind.
                2 => {
                    let k = m[i].0.clone();
                    m.insert(at, (k, arb_scalar(rng)));
                }
                // An unknown key.
                3 => m.insert(at, (format!("unknown_{}", rng.below(3)), arb_scalar(rng))),
                // Drop a field.
                4 => {
                    m.remove(i);
                }
                // Rename a key: an enum tag, or another field's name.
                _ => {
                    let j = rng.below(m.len() as u64) as usize;
                    m[i].0 = if i == j {
                        format!("{}x", m[i].0)
                    } else {
                        m[j].0.clone()
                    };
                }
            }
        }
        Value::UInt(n) if rng.below(2) == 0 => *v = Value::Float(*n as f64),
        Value::Float(x) if x.fract() == 0.0 && *x >= 0.0 && *x < 1e15 && rng.below(2) == 0 => {
            *v = Value::UInt(*x as u64);
        }
        Value::Str(s) if rng.below(2) == 0 => *v = Value::Str(format!("{s}_")),
        _ if rng.below(2) == 0 => *v = tweak(rng, v),
        _ => *v = arb_scalar(rng),
    }
}

/// A few bytes of `text` replaced, dropped, or inserted (whitespace among
/// them).
fn edit_bytes(rng: &mut TestRng, text: &str) -> String {
    const JUNK: &[u8] = b"{}[]\",:\\ \n0-eE.tnx+\t\x01";
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        let junk = JUNK[rng.below(JUNK.len() as u64) as usize];
        match rng.below(3) {
            0 if at < bytes.len() => bytes[at] = junk,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, junk),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Decodes `text` as `$t` both ways and checks they agree; returns whether
/// it decoded.
macro_rules! agree {
    ($t:ty, $text:expr) => {{
        let text: &str = $text;
        let direct = serde_json::from_str_direct::<$t>(text);
        let tree = serde_json::from_str::<Value>(text).and_then(serde_json::from_value::<$t>);
        match (&direct, &tree) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "decoders disagree on {text}"),
            (Err(_), Err(_)) => {}
            _ => panic!("direct {direct:?} but tree {tree:?} on {text}"),
        }
        let full = serde_json::from_str::<$t>(text);
        match (&full, &tree) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{text}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{text}"),
            _ => panic!("from_str {full:?} but tree {tree:?} on {text}"),
        }
        tree.is_ok()
    }};
}

/// Renders `$value`, checks it round-trips, then checks the decoders agree
/// on structural variants and byte edits of it. Returns how many of the
/// variants decoded.
macro_rules! differential {
    ($t:ty, $rng:expr, $value:expr) => {{
        let value: $t = $value;
        let rng: &mut TestRng = $rng;
        let compact = serde_json::to_string(&value).unwrap();
        let pretty = serde_json::to_string_pretty(&value).unwrap();
        for text in [&compact, &pretty] {
            assert_eq!(serde_json::from_str_direct::<$t>(text).unwrap(), value);
            assert!(agree!($t, text));
        }
        let tree: Value = serde_json::from_str(&compact).unwrap();
        let mut decoded = 0;
        for _ in 0..24 {
            let mut variant = tree.clone();
            for _ in 0..1 + rng.below(3) {
                mutate(rng, &mut variant);
            }
            let text = if rng.below(2) == 0 {
                serde_json::to_string(&variant).unwrap()
            } else {
                serde_json::to_string_pretty(&variant).unwrap()
            };
            decoded += usize::from(agree!($t, &text));
            let _ = agree!($t, &edit_bytes(rng, &text));
        }
        decoded
    }};
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn direct_decoding_agrees_with_the_tree(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let rng = &mut rng;
        let decoded = [
            differential!(PointRecord, rng, point_record(rng)),
            differential!(RunManifest, rng, run_manifest(rng)),
            differential!(TraceMeta, rng, trace_meta(rng)),
            differential!(SchedulerConfig, rng, scheduler(rng)),
            differential!(WorkloadSpec, rng, workload_spec(rng)),
            differential!(ProcessorConfig, rng, processor(rng)),
            differential!(ToServer, rng, to_server(rng)),
            differential!(FromServer, rng, from_server(rng)),
        ];
        // Enough variants stay decodable for the agreement to mean
        // something beyond "both fail".
        prop_assert!(decoded.iter().sum::<usize>() >= 16, "{decoded:?}");
    }
}

/// `to_string` and `to_string_pretty` write `value` straight from its
/// fields, exactly as they render its `Value` tree.
fn writes_like_its_tree<T: serde::Serialize + Debug>(value: &T) {
    let tree = serde_json::to_value(value).unwrap();
    assert_eq!(
        serde_json::to_string(value).unwrap(),
        serde_json::to_string(&tree).unwrap(),
        "{value:?}"
    );
    assert_eq!(
        serde_json::to_string_pretty(value).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap(),
        "{value:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn direct_writing_matches_the_tree(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let rng = &mut rng;
        for _ in 0..4 {
            writes_like_its_tree(&point_record(rng));
            writes_like_its_tree(&run_manifest(rng));
            writes_like_its_tree(&job_view(rng).summary);
            writes_like_its_tree(&trace_meta(rng));
            writes_like_its_tree(&scheduler(rng));
            writes_like_its_tree(&workload_spec(rng));
            writes_like_its_tree(&processor(rng));
            writes_like_its_tree(&to_server(rng));
            writes_like_its_tree(&from_server(rng));
        }
    }
}

/// The manifest text, pinned: field order, `null`, escapes, indentation.
#[test]
fn a_small_manifest_renders_to_its_golden_text() {
    let manifest = RunManifest {
        name: "tab\there \"q\"".into(),
        description: None,
        points: vec![ManifestEntry {
            key: "00000000000000ff".into(),
            scheme: "MB_distr".into(),
            benchmark: "gzip/é\\".into(),
            instructions: 2000,
            machine: "wp+replay\u{1}".into(),
        }],
    };
    let pretty = r#"{
  "name": "tab\there \"q\"",
  "description": null,
  "points": [
    {
      "key": "00000000000000ff",
      "scheme": "MB_distr",
      "benchmark": "gzip/é\\",
      "instructions": 2000,
      "machine": "wp+replay\u0001"
    }
  ]
}"#;
    assert_eq!(serde_json::to_string_pretty(&manifest).unwrap(), pretty);
    let compact = r#"{"name":"tab\there \"q\"","description":null,"points":[{"key":"00000000000000ff","scheme":"MB_distr","benchmark":"gzip/é\\","instructions":2000,"machine":"wp+replay\u0001"}]}"#;
    assert_eq!(serde_json::to_string(&manifest).unwrap(), compact);
    let empty = RunManifest {
        name: String::new(),
        description: Some("d".into()),
        points: Vec::new(),
    };
    assert_eq!(
        serde_json::to_string_pretty(&empty).unwrap(),
        "{\n  \"name\": \"\",\n  \"description\": \"d\",\n  \"points\": []\n}"
    );
    assert_eq!(
        serde_json::from_str::<RunManifest>(pretty).unwrap(),
        manifest
    );
}

/// A byte-at-a-time RFC 8259 parser with the reader's error messages: the
/// reference the eight-bytes-at-a-time reader is held to.
mod reference {
    use serde_json::Value;

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.pos == p.b.len() {
            Ok(v)
        } else {
            Err(format!("trailing input at byte {}", p.pos))
        }
    }

    struct Parser<'a> {
        b: &'a [u8],
        pos: usize,
        depth: usize,
    }

    impl Parser<'_> {
        fn at(&self) -> Option<u8> {
            self.b.get(self.pos).copied()
        }

        fn ws(&mut self) {
            while matches!(self.at(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn keyword(&mut self, kw: &str) -> bool {
            let hit = self.b[self.pos..].starts_with(kw.as_bytes());
            if hit {
                self.pos += kw.len();
            }
            hit
        }

        fn value(&mut self) -> Result<Value, String> {
            self.ws();
            match self.at() {
                Some(b'n') if self.keyword("null") => Ok(Value::Null),
                Some(b't') if self.keyword("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.keyword("false") => Ok(Value::Bool(false)),
                Some(b'"') => self.string().map(Value::Str),
                Some(b'[') => {
                    self.open()?;
                    let mut xs = Vec::new();
                    loop {
                        self.ws();
                        match self.at() {
                            Some(b']') => break,
                            _ if xs.is_empty() => {}
                            Some(b',') => self.pos += 1,
                            _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                        }
                        xs.push(self.value()?);
                    }
                    self.depth -= 1;
                    self.pos += 1;
                    Ok(Value::Seq(xs))
                }
                Some(b'{') => {
                    self.open()?;
                    let mut m = Vec::new();
                    loop {
                        self.ws();
                        match self.at() {
                            Some(b'}') => break,
                            _ if m.is_empty() => {}
                            Some(b',') => self.pos += 1,
                            _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                        }
                        self.ws();
                        let k = self.string()?;
                        self.ws();
                        if self.at() != Some(b':') {
                            return Err(format!("expected `:` at byte {}", self.pos));
                        }
                        self.pos += 1;
                        m.push((k, self.value()?));
                    }
                    self.depth -= 1;
                    self.pos += 1;
                    Ok(Value::Map(m))
                }
                Some(b'-' | b'0'..=b'9') => self.number(),
                other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
            }
        }

        fn open(&mut self) -> Result<(), String> {
            if self.depth == serde::json::RECURSION_LIMIT {
                return Err(format!("recursion limit exceeded at byte {}", self.pos));
            }
            self.depth += 1;
            self.pos += 1;
            Ok(())
        }

        fn digits(&mut self) -> usize {
            let start = self.pos;
            while self.at().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            self.pos - start
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            let negative = self.at() == Some(b'-');
            if negative {
                self.pos += 1;
            }
            let int_start = self.pos;
            let int_len = self.digits();
            if int_len == 0 {
                return Err(format!("expected a digit at byte {}", self.pos));
            }
            if int_len > 1 && self.b[int_start] == b'0' {
                return Err(format!("leading zero in number at byte {int_start}"));
            }
            let mut integer = true;
            if self.at() == Some(b'.') {
                self.pos += 1;
                if self.digits() == 0 {
                    return Err(format!("expected a digit after `.` at byte {}", self.pos));
                }
                integer = false;
            }
            if matches!(self.at(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.at(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                if self.digits() == 0 {
                    return Err(format!("expected a digit in exponent at byte {}", self.pos));
                }
                integer = false;
            }
            let text = std::str::from_utf8(&self.b[start..self.pos]).unwrap();
            if integer && !negative {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::UInt(n));
                }
            }
            if integer && negative {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Value::Int(n));
                }
            }
            Ok(Value::Float(text.parse::<f64>().unwrap()))
        }

        fn string(&mut self) -> Result<String, String> {
            if self.at() != Some(b'"') {
                return Err(format!("expected `\"` at byte {}", self.pos));
            }
            self.pos += 1;
            let mut out = Vec::new();
            loop {
                match self.at() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(String::from_utf8(out).unwrap());
                    }
                    Some(b) if b < 0x20 => {
                        return Err(format!("control character in string at byte {}", self.pos))
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.at().ok_or("unterminated escape")?;
                        self.pos += 1;
                        let c = match esc {
                            b'"' => '"',
                            b'\\' => '\\',
                            b'/' => '/',
                            b'n' => '\n',
                            b'r' => '\r',
                            b't' => '\t',
                            b'b' => '\u{8}',
                            b'f' => '\u{c}',
                            b'u' => self.unicode()?,
                            other => return Err(format!("bad escape `\\{}`", other as char)),
                        };
                        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                    }
                    Some(b) => {
                        out.push(b);
                        self.pos += 1;
                    }
                }
            }
        }

        fn hex4(&self, at: usize) -> Option<u32> {
            let digits = self.b.get(at..at + 4)?;
            let mut code = 0;
            for &d in digits {
                code = code * 16 + char::from(d).to_digit(16)?;
            }
            Some(code)
        }

        fn unicode(&mut self) -> Result<char, String> {
            let code = self
                .hex4(self.pos)
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            self.pos += 4;
            match code {
                0xd800..=0xdbff => {
                    let low = if self.b[self.pos..].starts_with(b"\\u") {
                        self.hex4(self.pos + 2)
                    } else {
                        None
                    };
                    match low {
                        Some(low @ 0xdc00..=0xdfff) => {
                            self.pos += 6;
                            let pair = 0x1_0000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            Ok(char::from_u32(pair).unwrap())
                        }
                        _ => Ok('\u{fffd}'),
                    }
                }
                0xdc00..=0xdfff => Ok('\u{fffd}'),
                _ => Ok(char::from_u32(code).unwrap()),
            }
        }
    }
}

/// The reader, its skipping twin and the typed number decoders against the
/// reference on one text.
fn scans_like_the_reference(text: &str) {
    let want = reference::parse(text);
    let got = serde_json::from_str::<Value>(text).map_err(|e| e.to_string());
    let same = match (&got, &want) {
        // Bit equality, so that a float's sign and every last digit count.
        (Ok(a), Ok(b)) => format!("{a:?}") == format!("{b:?}"),
        (a, b) => a == b,
    };
    assert!(same, "{text:?}: reader {got:?}, reference {want:?}");
    let mut r = serde::json::Reader::new(text);
    let skipped = r
        .skip_value()
        .and_then(|()| r.finish())
        .map_err(|e| e.to_string());
    assert_eq!(
        skipped.is_ok(),
        want.is_ok(),
        "{text:?}: skip_value {skipped:?}"
    );
    if let Err(e) = &want {
        assert_eq!(skipped.unwrap_err(), *e, "{text:?}");
    }
    macro_rules! typed {
        ($($t:ty),*) => {$(
            let direct = serde_json::from_str_direct::<$t>(text).ok();
            let tree = want.clone().ok().and_then(|v| serde_json::from_value::<$t>(v).ok());
            assert_eq!(
                direct.map(|x| format!("{x:?}")),
                tree.map(|x| format!("{x:?}")),
                "{text:?} as {}", stringify!($t)
            );
        )*};
    }
    typed!(u8, u32, u64, usize, i8, i64, f64, bool, String);
}

/// A random value of every JSON kind, nested up to `depth`.
fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
    match rng.below(if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::UInt(arb_u64(rng)),
        3 => Value::Int(-(rng.below(1 << 40) as i64)),
        4 => Value::Float(arb_f64(rng)),
        5 => Value::Str(arb_string(rng)),
        6 => Value::Seq(
            (0..rng.below(4))
                .map(|_| arb_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Map(
            (0..rng.below(4))
                .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// JSON string literals that put each tricky piece at every offset of an
/// 8-byte word: escapes, surrogate pairs, lone surrogates, raw control
/// bytes, multi-byte characters and the closing quote itself.
fn boundary_strings() -> Vec<String> {
    const PIECES: [&str; 14] = [
        "\\\"",
        "\\\\",
        "\\n",
        "\\u00e9",
        "\\ud83d\\ude00",
        "\\ud83d",
        "\\ude00x",
        "\u{1}",
        "\t",
        "\u{1f}",
        "é",
        "😀",
        "\u{7f}",
        "\\q",
    ];
    let mut out = Vec::new();
    for piece in PIECES {
        for lead in 0..17 {
            let filler = "a".repeat(lead);
            out.push(format!("\"{filler}{piece}tail\""));
            out.push(format!("\"{filler}{piece}\""));
            out.push(format!("\"{filler}{piece}"));
            out.push(format!("[\"{filler}\",\"{piece}\"]"));
        }
    }
    out
}

/// Every number form from its parts, valid and not, bare, in an array and
/// with junk after it.
fn number_forms() -> Vec<String> {
    const SIGNS: [&str; 3] = ["", "-", "+"];
    const INTS: [&str; 11] = [
        "",
        "0",
        "00",
        "01",
        "7",
        "12345678",
        "123456789",
        "9223372036854775808",
        "18446744073709551615",
        "18446744073709551616",
        "123456789012345678901234",
    ];
    const FRACS: [&str; 7] = [
        "",
        ".",
        ".0",
        ".5",
        ".1373532037634778",
        ".559213333203",
        ".00000000000000000000001",
    ];
    const EXPS: [&str; 11] = [
        "", "e", "E", "e+", "e-", "e5", "E+10", "e-22", "e23", "e-400", "e0000400",
    ];
    let mut out = Vec::new();
    for sign in SIGNS {
        for int in INTS {
            for frac in FRACS {
                for exp in EXPS {
                    let n = format!("{sign}{int}{frac}{exp}");
                    out.push(format!("[{n}]"));
                    out.push(format!("{n}x"));
                    out.push(n);
                }
            }
        }
    }
    out
}

#[test]
fn the_reader_scans_every_number_form_like_the_reference() {
    for text in number_forms() {
        scans_like_the_reference(&text);
    }
}

#[test]
fn the_reader_scans_strings_across_word_boundaries_like_the_reference() {
    for text in boundary_strings() {
        scans_like_the_reference(&text);
    }
}

#[test]
fn the_reader_nests_to_the_limit_like_the_reference() {
    let limit = serde::json::RECURSION_LIMIT;
    for depth in [limit - 1, limit, limit + 1] {
        scans_like_the_reference(&("[".repeat(depth) + &"]".repeat(depth)));
        scans_like_the_reference(&("{\"k\":".repeat(depth) + "1" + &"}".repeat(depth)));
        scans_like_the_reference(&("[{\"a\":".repeat(depth / 2) + "0"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn the_reader_scans_random_texts_like_the_reference(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let rng = &mut rng;
        for _ in 0..16 {
            let v = arb_value(rng, 4);
            let text = if rng.below(2) == 0 {
                serde_json::to_string(&v).unwrap()
            } else {
                serde_json::to_string_pretty(&v).unwrap()
            };
            scans_like_the_reference(&text);
            for _ in 0..4 {
                scans_like_the_reference(&edit_bytes(rng, &text));
            }
        }
    }
}

/// The first of two duplicate keys wins, at the top level and inside an
/// externally tagged enum.
#[test]
fn the_first_duplicate_key_wins() {
    let text = r#"{"key":"aa","result":null,"key":"bb"}"#;
    assert!(serde_json::from_str_direct::<PointRecord>(text).is_err());
    let meta = r#"{"name":"a","seed":1,"source":"s","instructions":2,"blocks":3,
        "block_instrs":4,"content":5,"max_raw_block":6,"max_comp_block":7,
        "seed":99,"name":7}"#;
    let m: TraceMeta = serde_json::from_str_direct(meta).unwrap();
    assert_eq!((m.name.as_str(), m.seed), ("a", 1));
    let cam = r#"{"Cam":{"int_entries":1,"fp_entries":2,"banks":3,"banks":"x"}}"#;
    let s: SchedulerConfig = serde_json::from_str_direct(cam).unwrap();
    assert_eq!(
        s,
        SchedulerConfig::Cam {
            int_entries: 1,
            fp_entries: 2,
            banks: 3
        }
    );
}
