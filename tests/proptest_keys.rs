//! Store keys stay byte-identical: the batch path `Point::keys` (each
//! distinct scheme, workload and machine rendered once, the identity
//! hashed piece by piece) agrees with the per-point `Point::key` on any
//! grid, and both agree with keys pinned from stores written before the
//! batch path existed — so every existing store stays warm.

use diq::exp::{fnv1a64, ExperimentSpec, Point};
use diq::isa::ProcessorConfig;
use diq::sched::SchedulerConfig;
use diq::workload::{suite, TraceRef, WorkloadSource};
use proptest::prelude::*;
use proptest::rng::TestRng;

/// The 24 keys of `experiments/ci_smoke.json`, in grid order, as its
/// stored run manifest records them.
const CI_SMOKE_KEYS: [&str; 24] = [
    "bdca28021725395c",
    "cad205dc3f793891",
    "d555f846201a8da9",
    "f75fce8f8b98d292",
    "c7042cd7fd91f69a",
    "ab0db094afc99093",
    "21008fbbac404b27",
    "e9eaadcc44c2c904",
    "ab62d1dacd2a535c",
    "80b036a640fcf5cd",
    "5720300bd50554f5",
    "6f4b85dcbb90eb66",
    "68c4bfc742f894cf",
    "9302bc2052036aa0",
    "813cc14495a46d78",
    "5ac6e1dab66771bd",
    "02a78d9efd2dc345",
    "573b5ba4e3622432",
    "a41e92322da89c8e",
    "c90ec50a56b4a097",
    "7681b884ab8e12cf",
    "a0c9a546f098d914",
    "08b0069c951e047c",
    "1cdb419d0987ee79",
];

fn hash_key(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

#[test]
fn ci_smoke_keys_are_pinned() {
    let spec = ExperimentSpec::from_json(include_str!("../experiments/ci_smoke.json")).unwrap();
    let points = spec.expand().unwrap();
    assert_eq!(Point::keys(&points), CI_SMOKE_KEYS);
    for (p, pinned) in points.iter().zip(CI_SMOKE_KEYS) {
        assert_eq!(p.key(), pinned);
        assert_eq!(hash_key(&p.identity_json()), pinned, "identity text moved");
    }
}

#[test]
fn trace_and_profile_keys_are_pinned() {
    let trace = WorkloadSource::Trace(TraceRef {
        path: "traces/x.diqt".into(),
        name: "gzip".into(),
        seed: 7,
        instructions: 50_000,
        content: 0x0123_4567_89ab_cdef,
    });
    let mut machine = ProcessorConfig::hpca2004();
    let p = Point::from_source(machine, SchedulerConfig::mb_distr(), trace, 20_000);
    assert_eq!(p.key(), "5f5952f22fbaecb1");

    machine.rob_entries = 96;
    machine.wrong_path = true;
    let profile = WorkloadSource::resolve_one("profile:swim/adversarial@3").unwrap();
    let p = Point::from_source(machine, SchedulerConfig::iq_64_64(), profile, 3_000);
    assert_eq!(p.key(), "b30876fb319f61d4");
    assert_eq!(p.identity_json().len(), 1427);
    assert_eq!(Point::keys(std::slice::from_ref(&p)), [p.key()]);
}

fn pick<T: Clone>(rng: &mut TestRng, pool: &[T]) -> T {
    pool[rng.below(pool.len() as u64) as usize].clone()
}

/// A scheme: a registered one, or an inline CAM geometry.
fn arb_scheme(rng: &mut TestRng) -> SchedulerConfig {
    if rng.below(4) == 0 {
        SchedulerConfig::Cam {
            int_entries: 1 + rng.below(128) as usize,
            fp_entries: 1 + rng.below(128) as usize,
            banks: 1 + rng.below(8) as usize,
        }
    } else {
        pick(rng, &SchedulerConfig::known())
    }
}

/// A workload source of any kind: a suite kernel at any seed, a profile
/// variant, or a trace reference (the file need not exist: a key never
/// opens it).
fn arb_workload(rng: &mut TestRng) -> WorkloadSource {
    let names: Vec<String> = suite::all().into_iter().map(|w| w.name).collect();
    let name = pick(rng, &names);
    match rng.below(3) {
        0 => {
            let mut spec = suite::by_name(&name).unwrap();
            spec.seed = rng.next_u64();
            WorkloadSource::Spec(spec)
        }
        1 => {
            let variant = pick(rng, &["expected", "stress", "adversarial"]);
            let uri = format!("profile:{name}/{variant}@{}", rng.below(100));
            WorkloadSource::resolve_one(&uri).unwrap()
        }
        _ => WorkloadSource::Trace(TraceRef {
            path: format!("traces/{}.diqt", rng.below(4)),
            name,
            seed: rng.next_u64(),
            instructions: rng.next_u64(),
            content: rng.next_u64(),
        }),
    }
}

/// The Table 1 machine with some knobs overridden.
fn arb_machine(rng: &mut TestRng) -> ProcessorConfig {
    let mut m = ProcessorConfig::hpca2004();
    if rng.below(2) == 0 {
        m.rob_entries = 1 + rng.below(512) as usize;
    }
    if rng.below(2) == 0 {
        m.fetch_width = 1 + rng.below(16) as usize;
    }
    m.wrong_path = rng.below(2) == 0;
    m.load_hit_speculation = rng.below(2) == 0;
    m
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// Any batch — repeated components, repeated whole points, counts from
    /// 1 to huge — gets exactly the per-point keys, in order.
    #[test]
    fn batch_keys_equal_per_point_keys(seed in any::<u64>(), len in 0usize..48) {
        let mut rng = TestRng::new(seed);
        // Small pools so components and whole points repeat.
        let schemes: Vec<_> = (0..3).map(|_| arb_scheme(&mut rng)).collect();
        let workloads: Vec<_> = (0..3).map(|_| arb_workload(&mut rng)).collect();
        let machines: Vec<_> = (0..2).map(|_| arb_machine(&mut rng)).collect();
        let counts = [1, 2_000, rng.next_u64()];
        let mut points: Vec<Point> = Vec::with_capacity(len);
        for _ in 0..len {
            if !points.is_empty() && rng.below(5) == 0 {
                let again = pick(&mut rng, &points);
                points.push(again);
                continue;
            }
            let mut p = Point::from_source(
                pick(&mut rng, &machines),
                pick(&mut rng, &schemes),
                pick(&mut rng, &workloads),
                pick(&mut rng, &counts),
            );
            p.machine_label = format!("m{}", rng.below(3));
            points.push(p);
        }
        let keys = Point::keys(&points);
        prop_assert_eq!(keys.len(), points.len());
        for (p, k) in points.iter().zip(&keys) {
            prop_assert_eq!(k, &p.key());
            prop_assert_eq!(k, &hash_key(&p.identity_json()));
        }
    }
}
