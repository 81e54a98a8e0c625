//! Acceptance suite of the declarative workload API:
//!
//! * **lossless round-trips** — proptest over randomized [`JobSpec`]s:
//!   `from_json(to_json(spec)) == spec`, `u64` seeds surviving exactly;
//! * **worker invariance** — the same spec at 1/2/8 workers produces a
//!   bit-identical artifact (payload JSON, CSV and console text);
//! * **legacy faithfulness** — `Artifact::render_text` is byte-identical
//!   to the stdout the retired bespoke report binaries assembled from
//!   the library calls, for the same seed/workers;
//! * **golden wire formats** — the default spec JSON of every kind, the
//!   Table 2 payload envelope and the JSON, CSV and text renderings of
//!   one small spec per kind are pinned to checked-in files
//!   (`UPDATE_GOLDENS=1 cargo test -q --test workload_api` refreshes).

use optpower_explore::Workers;
use optpower_mult::Architecture;
use optpower_report::PlaneTiling;
use optpower_sim::{Engine, MIN_RESET_WARMUP};
use optpower_workload::{
    AbInitioSpec, ActivitySpec, Artifact, CacheStatus, ErrorBody, GlitchSweepSpec, JobSpec, Json,
    LintSpec, Payload, PruneDeltaSpec, RowCacheStats, RunMeta, Runtime, StaSpec, WorkloadError,
    JOB_KINDS,
};
use proptest::prelude::*;

const ENGINES: [Engine; 5] = [
    Engine::ZeroDelay,
    Engine::Timed,
    Engine::BitParallel,
    Engine::BitParallel256,
    Engine::BitParallel512,
];

const BASELINES: [Engine; 4] = [
    Engine::ZeroDelay,
    Engine::BitParallel,
    Engine::BitParallel256,
    Engine::BitParallel512,
];

const PLANES: [PlaneTiling; 4] = [
    PlaneTiling::Fixed(64),
    PlaneTiling::Fixed(256),
    PlaneTiling::Fixed(512),
    PlaneTiling::Auto,
];

/// A glitch-free baseline `(engine, plane, items)` the parser accepts:
/// `zero_delay` takes the 64-lane tiling or `auto` and any positive
/// volume; a bit-parallel plane takes every tiling, with items a
/// multiple of 8 (so 256 and 512 lanes tile `items × native lanes`) and
/// at most 2^54 (so that product fits 64 bits).
fn baseline_from(c: usize, a: u64) -> (Engine, PlaneTiling, u64) {
    match BASELINES[c % BASELINES.len()] {
        Engine::ZeroDelay => {
            let plane = if (c / 4).is_multiple_of(2) {
                PlaneTiling::Fixed(64)
            } else {
                PlaneTiling::Auto
            };
            (Engine::ZeroDelay, plane, a.max(1))
        }
        engine => (engine, PLANES[(c / 4) % PLANES.len()], (1 + (a >> 13)) * 8),
    }
}

/// Deterministically builds a spec from random draws — every variant
/// reachable, every field exercised.
fn spec_from(kind: usize, a: u64, b: u64, c: usize, widths: &[usize], names_ix: &[u8]) -> JobSpec {
    let names: Option<Vec<String>> = if names_ix.is_empty() {
        None
    } else {
        Some(
            names_ix
                .iter()
                .map(|&i| {
                    Architecture::ALL[i as usize % Architecture::ALL.len()]
                        .paper_name()
                        .to_string()
                })
                .collect(),
        )
    };
    let freqs = vec![(a % 997) as f64 * 0.25 + 0.5, 31.25, (b % 211) as f64 + 1.0];
    match kind % 19 {
        0 => JobSpec::Table1Sweep { archs: None },
        1 => JobSpec::Table2,
        2 => JobSpec::Table3,
        3 => JobSpec::Table4,
        4 => JobSpec::ScalingStudy {
            frequencies_mhz: freqs,
        },
        5 => JobSpec::Sensitivity,
        6 => JobSpec::Ablation {
            items: a.max(1),
            seed: b,
        },
        7 => {
            let (engine, plane, items) = baseline_from(c, a);
            JobSpec::AbInitio(AbInitioSpec {
                archs: names,
                width: 2 + c % 31,
                lanes: 1 + (c as u32 % 16),
                engine,
                plane,
                items,
                seed: b,
                workers: if c.is_multiple_of(3) {
                    None
                } else {
                    Some(c % 17)
                },
            })
        }
        8 => {
            let (engine, plane, items) = baseline_from(c / 2, a);
            JobSpec::GlitchSweep(GlitchSweepSpec {
                archs: names,
                widths: widths.to_vec(),
                lanes: 1 + (c as u32 % 16),
                engine,
                plane,
                items,
                seed: b,
                freq_points: 2 + c % 20,
                workers: if c.is_multiple_of(2) {
                    None
                } else {
                    Some(c % 9)
                },
            })
        }
        9 => {
            // A design with a reset input needs its reset warm-up.
            let arch = Architecture::ALL[c % 13];
            let warmup = if arch.has_reset() {
                (b % 32).max(MIN_RESET_WARMUP)
            } else {
                b % 32
            };
            JobSpec::ActivityMeasure(ActivitySpec {
                arch: arch.paper_name().to_string(),
                width: 2 + c % 31,
                engine: ENGINES[c % ENGINES.len()],
                items: a.max(1),
                warmup,
                seed: b,
            })
        }
        10 => JobSpec::Figure1 { samples: 2 + c },
        11 => JobSpec::Figure2 { samples: 2 + c },
        12 => JobSpec::Figure34 {
            width: 2 + c % 31,
            items: a.max(1),
        },
        13 => JobSpec::Pareto {
            freq_points: 2 + c % 30,
        },
        14 => JobSpec::Export,
        15 => JobSpec::Lint(LintSpec {
            archs: names,
            widths: if c.is_multiple_of(4) {
                None
            } else {
                Some(widths.to_vec())
            },
        }),
        // The measured legs of sta and prune_delta run the 64-lane
        // plane, so `items × 64` must fit 64 bits.
        16 => JobSpec::Sta(StaSpec {
            archs: names,
            width: 2 + c % 31,
            lanes: 1 + (c as u32 % 16),
            items: a >> 6,
            seed: b,
            workers: if c.is_multiple_of(3) {
                None
            } else {
                Some(c % 17)
            },
        }),
        17 => JobSpec::PruneDelta(PruneDeltaSpec {
            archs: names,
            widths: widths.to_vec(),
            items: (a >> 6).max(1),
            seed: b,
            workers: if c.is_multiple_of(3) {
                None
            } else {
                Some(c % 17)
            },
        }),
        _ => JobSpec::Batch(vec![
            JobSpec::Table2,
            JobSpec::Ablation {
                items: a.max(1),
                seed: b,
            },
            JobSpec::Batch(vec![JobSpec::Figure2 { samples: 2 + c }]),
        ]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline wire-format contract: every JobSpec serializes to
    /// JSON and parses back to an equal value — u64 seeds (beyond
    /// 2^53) included.
    #[test]
    fn jobspec_round_trips_losslessly(
        kind in 0usize..19,
        a in any::<u64>(),
        b in any::<u64>(),
        c in 0usize..1000,
        widths in prop::collection::vec(2usize..33, 1..4),
        names_ix in prop::collection::vec(any::<u8>(), 0..5),
    ) {
        let spec = spec_from(kind, a, b, c, &widths, &names_ix);
        let json = spec.to_json();
        let back = JobSpec::from_json(&json).expect("serialized specs parse");
        prop_assert_eq!(&back, &spec, "wire form: {}", json);
        // Serialization is deterministic: same spec, same bytes.
        prop_assert_eq!(back.to_json(), json);
    }
}

/// Rotates the key order of every JSON object (first pair moves to
/// the end) — a semantically equal but differently spelled wire form.
fn rotate_json_keys(value: Json) -> Json {
    match value {
        Json::Obj(pairs) => {
            let mut rotated: Vec<(String, Json)> = pairs
                .into_iter()
                .map(|(k, v)| (k, rotate_json_keys(v)))
                .collect();
            if rotated.len() > 1 {
                let first = rotated.remove(0);
                rotated.push(first);
            }
            Json::Obj(rotated)
        }
        Json::Arr(items) => Json::Arr(items.into_iter().map(rotate_json_keys).collect()),
        other => other,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The content-address contract behind the serve cache: the
    /// canonical JSON is a serialization fixpoint, and semantically
    /// equal specs — however their wire form spells key order — hash
    /// to the same canonical key.
    #[test]
    fn canonical_key_is_a_wire_spelling_fixpoint(
        kind in 0usize..19,
        a in any::<u64>(),
        b in any::<u64>(),
        c in 0usize..1000,
        widths in prop::collection::vec(2usize..33, 1..4),
        names_ix in prop::collection::vec(any::<u8>(), 0..5),
    ) {
        let spec = spec_from(kind, a, b, c, &widths, &names_ix);
        let canonical = spec.canonical_json();
        prop_assert_eq!(&canonical, &spec.to_json());
        let back = JobSpec::from_json(&canonical).expect("canonical JSON parses");
        prop_assert_eq!(back.canonical_json(), canonical.clone());
        prop_assert_eq!(back.canonical_key(), spec.canonical_key());
        // Same job in a different spelling: every object's key order
        // rotated. The strict parser normalizes it back.
        let rotated = rotate_json_keys(Json::parse(&canonical).expect("canonical is JSON"))
            .to_string();
        let variant = JobSpec::from_json(&rotated).expect("rotated spelling parses");
        prop_assert_eq!(variant.canonical_key(), spec.canonical_key(), "wire form: {}", rotated);
    }
}

/// A cheap-but-covering spec set for execution-level properties.
fn representative_specs() -> Vec<JobSpec> {
    vec![
        JobSpec::Table1Sweep { archs: None },
        JobSpec::Table2,
        JobSpec::Table3,
        JobSpec::ScalingStudy {
            frequencies_mhz: vec![1.0, 250.0],
        },
        JobSpec::Sensitivity,
        JobSpec::AbInitio(AbInitioSpec {
            archs: Some(vec!["RCA".into(), "Wallace".into()]),
            items: 20,
            seed: 5,
            ..AbInitioSpec::default()
        }),
        JobSpec::GlitchSweep(GlitchSweepSpec {
            archs: Some(vec!["Wallace".into()]),
            widths: vec![8, 16],
            items: 15,
            seed: 7,
            freq_points: 3,
            ..GlitchSweepSpec::default()
        }),
        JobSpec::ActivityMeasure(ActivitySpec {
            arch: "RCA".into(),
            width: 8,
            engine: Engine::BitParallel,
            items: 20,
            warmup: 2,
            seed: 3,
        }),
        JobSpec::Figure1 { samples: 8 },
        JobSpec::Figure2 { samples: 8 },
        JobSpec::Pareto { freq_points: 3 },
        JobSpec::Lint(LintSpec {
            archs: Some(vec!["RCA".into(), "Wallace".into()]),
            widths: Some(vec![8, 16]),
        }),
        JobSpec::Sta(StaSpec {
            archs: Some(vec!["RCA".into(), "Sequential".into()]),
            width: 8,
            items: 12,
            seed: 11,
            ..StaSpec::default()
        }),
        JobSpec::PruneDelta(PruneDeltaSpec {
            archs: Some(vec!["Wallace".into()]),
            widths: vec![4],
            items: 8,
            seed: 13,
            ..PruneDeltaSpec::default()
        }),
    ]
}

/// A `prune_delta` over four cells (eight characterization legs), so
/// its cells run side by side on the pool. Kept out of
/// [`representative_specs`], which also drives the goldens.
fn multi_cell_prune_delta() -> JobSpec {
    JobSpec::PruneDelta(PruneDeltaSpec {
        archs: Some(vec!["RCA".into(), "Wallace".into()]),
        widths: vec![4, 8],
        items: 8,
        seed: 13,
        ..PruneDeltaSpec::default()
    })
}

/// The satellite acceptance test: a spec's artifact is bit-identical
/// at 1, 2 and 8 workers — payload JSON, CSV and console text. The
/// pool only schedules; it never changes bytes. The two pipeline
/// glitch studies map their four designs on the pool, so their
/// `meta.workers` is the budget they ran on.
#[test]
fn artifacts_are_bit_identical_across_worker_counts() {
    let glitch_studies = [
        JobSpec::Figure34 {
            width: 8,
            items: 10,
        },
        JobSpec::Ablation { items: 10, seed: 3 },
    ];
    for spec in representative_specs()
        .into_iter()
        .chain([multi_cell_prune_delta()])
        .chain(glitch_studies)
    {
        let pooled = matches!(spec, JobSpec::Figure34 { .. } | JobSpec::Ablation { .. });
        let reference = Runtime::new(Workers::Fixed(1))
            .run(&spec)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.kind()));
        if pooled {
            assert_eq!(reference.meta.workers, 1, "{}", spec.kind());
        }
        for workers in [2usize, 8] {
            let artifact = Runtime::new(Workers::Fixed(workers))
                .run(&spec)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.kind()));
            if pooled {
                assert_eq!(artifact.meta.workers, workers, "{}", spec.kind());
            }
            assert_eq!(
                artifact.payload_json(),
                reference.payload_json(),
                "{} at {workers} workers",
                spec.kind()
            );
            assert_eq!(
                artifact.to_csv(),
                reference.to_csv(),
                "{} at {workers} workers",
                spec.kind()
            );
            assert_eq!(
                artifact.render_text(),
                reference.render_text(),
                "{} at {workers} workers",
                spec.kind()
            );
        }
    }
}

/// Figures 3/4 at width 2 count no transition in a window of one or
/// two items. The shared characterization refuses that zero activity,
/// so the job fails as a 422 `ab_initio_failed`, the way an
/// `ab_initio` of a design with no counted transition does; a third
/// item is enough to measure.
#[test]
fn figure34_with_no_counted_transition_fails_as_ab_initio() {
    let runtime = Runtime::new(Workers::Fixed(2));
    for items in [1, 2] {
        let err = runtime
            .run(&JobSpec::Figure34 { width: 2, items })
            .expect_err("a zero activity is refused");
        let body = ErrorBody::of(&err);
        assert_eq!(
            (body.status, body.code),
            (422, "ab_initio_failed"),
            "items {items}: {}",
            body.message
        );
        assert!(body.message.contains("activity = 0"), "{}", body.message);
    }
    runtime
        .run(&JobSpec::Figure34 { width: 2, items: 3 })
        .expect("three items measure a non-zero activity");
}

/// A spec survives a full JSON round-trip *and then* produces the
/// bit-identical artifact — the wire format carries everything the
/// runtime needs.
#[test]
fn round_tripped_specs_produce_identical_artifacts() {
    let runtime = Runtime::new(Workers::Fixed(2));
    for spec in [
        JobSpec::Table3,
        JobSpec::ActivityMeasure(ActivitySpec {
            arch: "Seq4_16".into(),
            width: 8,
            engine: Engine::Timed,
            items: 10,
            warmup: 2,
            seed: 99,
        }),
        JobSpec::Batch(vec![JobSpec::Table2, JobSpec::Figure2 { samples: 4 }]),
    ] {
        let wire = JobSpec::from_json(&spec.to_json()).unwrap();
        let a = runtime.run(&spec).unwrap();
        let b = runtime.run(&wire).unwrap();
        assert_eq!(a.payload_json(), b.payload_json(), "{}", spec.kind());
    }
}

/// `render_text` reproduces, byte for byte, the stdout the retired
/// bespoke binaries assembled — same library calls, same seed, same
/// workers.
#[test]
fn render_text_matches_the_legacy_binary_output() {
    let runtime = Runtime::new(Workers::Auto);

    // table1 (crates/report/src/bin/table1.rs)
    let rows = optpower_report::table1(None, Workers::Auto).unwrap();
    let legacy = optpower_report::render_rows(
        "Table 1 - 16-bit multipliers at the optimal working point (ST LL, 31.25 MHz)\n\
         (p) = paper columns; bare = this reproduction",
        &rows,
    );
    assert_eq!(
        runtime
            .run(&JobSpec::Table1Sweep { archs: None })
            .unwrap()
            .render_text(),
        legacy
    );

    // table3 / table4
    let legacy = optpower_report::render_rows(
        "Table 3 - Wallace family optimal power, ULL flavour (31.25 MHz)",
        &optpower_report::table3().unwrap(),
    );
    assert_eq!(runtime.run(&JobSpec::Table3).unwrap().render_text(), legacy);
    let legacy = optpower_report::render_rows(
        "Table 4 - Wallace family optimal power, HS flavour (31.25 MHz)",
        &optpower_report::table4().unwrap(),
    );
    assert_eq!(runtime.run(&JobSpec::Table4).unwrap().render_text(), legacy);

    // scaling (two sections, four printlns)
    let freqs = [1.0, 31.25];
    let unscaled = optpower_report::extended::scaling_study(&freqs, false, Workers::Auto).unwrap();
    let scaled = optpower_report::extended::scaling_study(&freqs, true, Workers::Auto).unwrap();
    let legacy = format!(
        "== wire-dominated port (capacitance does not scale) ==\n{}\n\
         == full gate-capacitance scaling (x0.7 per node) ==\n{}",
        optpower_report::extended::render_scaling(&unscaled),
        optpower_report::extended::render_scaling(&scaled)
    );
    let artifact = runtime
        .run(&JobSpec::ScalingStudy {
            frequencies_mhz: freqs.to_vec(),
        })
        .unwrap();
    assert_eq!(artifact.render_text(), legacy);

    // sensitivity
    let legacy = optpower_report::extended::render_sensitivities(
        &optpower_report::extended::sensitivity_report(Workers::Auto).unwrap(),
    );
    assert_eq!(
        runtime.run(&JobSpec::Sensitivity).unwrap().render_text(),
        legacy
    );

    // figure2 (render + CSV lines through `{}` float Display)
    let fig = optpower_report::figure2(7).unwrap();
    let mut legacy = optpower_report::render_figure2(&fig);
    legacy.push_str("\nvdd_v,exact,approx");
    for &(v, e, a) in &fig.points {
        legacy.push_str(&format!("\n{v},{e},{a}"));
    }
    assert_eq!(
        runtime
            .run(&JobSpec::Figure2 { samples: 7 })
            .unwrap()
            .render_text(),
        legacy
    );

    // figure34
    let legacy =
        optpower_report::render_figure34(&optpower_report::figure34(8, 30, Workers::Auto).unwrap());
    assert_eq!(
        runtime
            .run(&JobSpec::Figure34 {
                width: 8,
                items: 30
            })
            .unwrap()
            .render_text(),
        legacy
    );

    // ab_initio (no sweep), on a cheap subset with an explicit seed
    let spec = AbInitioSpec {
        archs: Some(vec!["RCA".into(), "Sequential".into()]),
        items: 20,
        seed: 42,
        ..AbInitioSpec::default()
    };
    let rows = [Architecture::Rca, Architecture::Sequential]
        .into_iter()
        .map(|arch| {
            optpower_report::characterize_design_with(
                &arch.generate(16).unwrap(),
                &optpower_netlist::Library::cmos13(),
                optpower_tech::Technology::stm_cmos09(optpower_tech::Flavor::LowLeakage),
                optpower_units::Hertz::new(31.25e6),
                &optpower_report::CharacterizeConfig::new(20, 42),
            )
            .unwrap()
            .0
        })
        .collect::<Vec<_>>();
    let legacy = optpower_report::render_ab_initio(&rows);
    assert_eq!(
        runtime.run(&JobSpec::AbInitio(spec)).unwrap().render_text(),
        legacy
    );
}

/// `ab_initio --glitch-sweep`'s stdout: table, glitch-factor figure,
/// then the summary line, assembled exactly as the legacy binary did.
#[test]
fn glitch_sweep_render_matches_the_legacy_composition() {
    let runtime = Runtime::new(Workers::Auto);
    let spec = GlitchSweepSpec {
        archs: Some(vec!["RCA".into(), "Sequential".into()]),
        items: 20,
        seed: 42,
        freq_points: 3,
        ..GlitchSweepSpec::default()
    };
    let artifact = runtime.run(&JobSpec::GlitchSweep(spec)).unwrap();
    let optpower_workload::Payload::Glitch(sweep) = &artifact.payload else {
        panic!("glitch_sweep produces Payload::Glitch");
    };
    let (ga, gf) = (sweep.glitch_aware.summary(), sweep.glitch_free.summary());
    let legacy = format!(
        "{}\n{}\nGlitch-aware sweep: {} points ({} closed); glitch-free: {} closed; \
         design-space glitch cost {:.2} uW over jointly closed points",
        optpower_report::render_ab_initio(&sweep.rows),
        optpower_report::render_glitch_factors(&sweep.rows),
        ga.points,
        ga.closed,
        gf.closed,
        sweep.total_glitch_cost_w() * 1e6,
    );
    assert_eq!(artifact.render_text(), legacy);
    // The width axis is strictly more expressive than the legacy
    // flag: the 16-bit-only sweep is the defaults' special case.
    assert!(sweep.rows.iter().all(|r| r.width == 16));
}

/// Every workload previously reachable via a bespoke report binary is
/// reachable as a JobSpec through the runtime (the export job runs in
/// a temp dir to avoid clobbering real artifacts).
#[test]
fn every_legacy_binary_workload_is_reachable_as_a_jobspec() {
    // Cheap stand-ins: the *kind* coverage is the point here; output
    // equality is locked by the tests above.
    let cheap: Vec<JobSpec> = vec![
        JobSpec::Table1Sweep { archs: None }, // table1
        JobSpec::Table2,                      // table2
        JobSpec::Table3,                      // table3
        JobSpec::Table4,                      // table4
        JobSpec::ScalingStudy {
            frequencies_mhz: vec![31.25],
        }, // scaling
        JobSpec::Sensitivity,                 // sensitivity
        JobSpec::Ablation { items: 20, seed: 3 }, // ablation
        JobSpec::AbInitio(AbInitioSpec {
            archs: Some(vec!["RCA".into()]),
            items: 10,
            ..AbInitioSpec::default()
        }), // ab_initio
        JobSpec::GlitchSweep(GlitchSweepSpec {
            archs: Some(vec!["RCA".into()]),
            items: 10,
            freq_points: 2,
            ..GlitchSweepSpec::default()
        }), // ab_initio --glitch-sweep
        JobSpec::Figure1 { samples: 4 },      // figure1
        JobSpec::Figure2 { samples: 4 },      // figure2
        JobSpec::Figure34 {
            width: 8,
            items: 10,
        }, // figure34
        JobSpec::Export,                      // export
        JobSpec::Pareto { freq_points: 2 },   // pareto (new)
        JobSpec::ActivityMeasure(ActivitySpec {
            items: 5,
            warmup: 2,
            ..ActivitySpec::default()
        }), // activity (new)
    ];
    let dir = std::env::temp_dir().join(format!("optpower-workload-test-{}", std::process::id()));
    let runtime = Runtime::new(Workers::Auto).with_artifact_dir(&dir);
    // And the whole thing as one batch — the CI smoke shape.
    let batch = JobSpec::Batch(cheap);
    let artifact = runtime.run(&batch).unwrap();
    let Payload::Batch(members) = &artifact.payload else {
        panic!("batch produces Payload::Batch");
    };
    assert_eq!(members.len(), 15);
    // Every member renders, exports JSON and CSV without error.
    for member in members {
        assert!(!member.render_text().is_empty(), "{}", member.kind());
        assert!(
            member
                .payload_json()
                .starts_with("{\"schema\":\"optpower-workload/v1\""),
            "{}",
            member.kind()
        );
        assert!(!member.to_csv().is_empty(), "{}", member.kind());
    }
    // The export member wrote its files.
    assert!(dir.join("rca.vcd").is_file());
    std::fs::remove_dir_all(&dir).ok();
}

/// Misdeclared specs fail with the unified error, not a panic.
#[test]
fn invalid_specs_surface_one_workload_error() {
    let runtime = Runtime::new(Workers::Fixed(1));
    for (spec, needle) in [
        (
            JobSpec::ActivityMeasure(ActivitySpec {
                arch: "No Such Multiplier".into(),
                ..ActivitySpec::default()
            }),
            "unknown architecture",
        ),
        (
            JobSpec::ActivityMeasure(ActivitySpec {
                arch: "Sequential".into(),
                width: 24,
                ..ActivitySpec::default()
            }),
            "width",
        ),
        (
            JobSpec::GlitchSweep(GlitchSweepSpec {
                archs: Some(vec!["Sequential".into()]),
                widths: vec![24],
                ..GlitchSweepSpec::default()
            }),
            "width",
        ),
        (
            JobSpec::GlitchSweep(GlitchSweepSpec {
                widths: vec![],
                ..GlitchSweepSpec::default()
            }),
            "widths",
        ),
        (
            JobSpec::GlitchSweep(GlitchSweepSpec {
                widths: vec![16, 8, 16],
                ..GlitchSweepSpec::default()
            }),
            "more than once",
        ),
        (
            JobSpec::AbInitio(AbInitioSpec {
                archs: Some(vec!["RCA".into(), "RCA".into()]),
                ..AbInitioSpec::default()
            }),
            "more than once",
        ),
    ] {
        let err = runtime.run(&spec).unwrap_err();
        assert!(matches!(err, WorkloadError::Spec(_)), "{spec:?}: {err:?}");
        assert!(err.to_string().contains(needle), "{err}");
    }
}

/// Golden wire formats: the default spec JSON of every kind, pinned.
/// `UPDATE_GOLDENS=1` refreshes the files.
#[test]
fn golden_default_specs() {
    let mut lines = String::new();
    for &(kind, _) in JOB_KINDS {
        lines.push_str(&JobSpec::default_for(kind).unwrap().to_json());
        lines.push('\n');
    }
    golden_compare("tests/golden/default_specs.jsonl", &lines);
}

/// Golden artifact envelope: the Table 2 payload document (pure
/// published constants — deterministic everywhere).
#[test]
fn golden_table2_payload() {
    let artifact = Runtime::new(Workers::Fixed(1))
        .run(&JobSpec::Table2)
        .unwrap();
    golden_compare(
        "tests/golden/table2_payload.json",
        &format!("{}\n", artifact.payload_json()),
    );
}

/// Golden full envelope including the `meta` object — pins the
/// `schema` tag and the `cache` field the serve layer relies on
/// (meta is stamped with fixed values to stay deterministic).
#[test]
fn golden_artifact_envelope_with_meta() {
    let mut artifact = Runtime::new(Workers::Fixed(1))
        .run(&JobSpec::Table2)
        .unwrap();
    artifact.meta = RunMeta {
        seed: None,
        workers: 1,
        engine: None,
        wall_ms: 0.25,
        cache: Some(CacheStatus::Hit),
        row_cache: None,
        dist: None,
    };
    golden_compare(
        "tests/golden/artifact_envelope.json",
        &format!("{}\n", artifact.to_json()),
    );
}

/// Golden renderings of every kind: `payload_json`, `to_csv` and
/// `render_text` of one small spec per kind, pinned under
/// `tests/golden/artifacts/<kind>.{json,csv,txt}`.
#[test]
fn golden_artifact_renderings_of_every_kind() {
    let runtime =
        Runtime::new(Workers::Fixed(2)).with_artifact_dir("target/golden-artifacts-export");
    let mut specs = representative_specs();
    specs.extend([
        JobSpec::Table4,
        JobSpec::Ablation { items: 10, seed: 3 },
        JobSpec::Figure34 {
            width: 8,
            items: 10,
        },
        JobSpec::Export,
        JobSpec::Batch(vec![JobSpec::Table2, JobSpec::Figure2 { samples: 4 }]),
    ]);
    for spec in specs {
        let artifact = runtime
            .run(&spec)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.kind()));
        let stem = format!("tests/golden/artifacts/{}", spec.kind());
        golden_compare(
            &format!("{stem}.json"),
            &format!("{}\n", artifact.payload_json()),
        );
        golden_compare(&format!("{stem}.csv"), &artifact.to_csv());
        golden_compare(
            &format!("{stem}.txt"),
            &format!("{}\n", artifact.render_text()),
        );
    }
}

/// The shard re-parser inverts the payload document: an `ab_initio`
/// artifact with a row lacking an Eq. 13 closed form (NaN, spelled
/// `null`) and a `table1_sweep` artifact re-render byte for byte after
/// `from_payload_json`.
#[test]
fn payload_json_round_trips_through_the_shard_reparser() {
    let runtime = Runtime::new(Workers::Fixed(2));
    let mut ab_initio = runtime
        .run(&JobSpec::AbInitio(AbInitioSpec {
            archs: Some(vec!["RCA".into(), "Wallace".into()]),
            items: 20,
            seed: 5,
            ..AbInitioSpec::default()
        }))
        .unwrap();
    let Payload::AbInitio(rows) = &mut ab_initio.payload else {
        panic!("ab_initio produces Payload::AbInitio");
    };
    rows[1].eq13_uw = f64::NAN;
    assert!(ab_initio.payload_json().contains(r#""eq13_uw":null"#));
    let table1 = runtime.run(&JobSpec::Table1Sweep { archs: None }).unwrap();
    for artifact in [ab_initio, table1] {
        let reparsed = Artifact::from_payload_json(&artifact.payload_json())
            .unwrap_or_else(|e| panic!("{}: {e}", artifact.kind()));
        assert_eq!(reparsed.payload_json(), artifact.payload_json());
        assert_eq!(reparsed.to_csv(), artifact.to_csv());
        assert_eq!(reparsed.render_text(), artifact.render_text());
    }
}

/// The runtime-level cache contract the serve layer builds on:
/// misses populate, hits are stamped and byte-identical, clones
/// share one cache, and cacheless runtimes keep `meta.cache` unset.
#[test]
fn runtime_cache_round_trip() {
    let runtime = Runtime::new(Workers::Fixed(2)).with_cache(8);
    let spec = JobSpec::Figure2 { samples: 4 };
    let first = runtime.run(&spec).unwrap();
    assert_eq!(first.meta.cache, Some(CacheStatus::Miss));
    let second = runtime.run(&spec).unwrap();
    assert_eq!(second.meta.cache, Some(CacheStatus::Hit));
    assert_eq!(first.payload_json(), second.payload_json());
    assert_eq!(
        runtime.clone().run(&spec).unwrap().meta.cache,
        Some(CacheStatus::Hit),
        "clones share the cache"
    );
    assert_eq!(
        Runtime::new(Workers::Fixed(1))
            .run(&spec)
            .unwrap()
            .meta
            .cache,
        None,
        "cacheless runtimes keep the legacy envelope"
    );
}

/// The incremental row-cache contract: per-architecture
/// characterization rows computed by one spec are reused —
/// bit-identically — by *different* specs that overlap on the
/// measurement shape, and the hit/miss counters land in `meta`.
#[test]
fn row_cache_serves_overlapping_characterizations_bit_identically() {
    let cold = Runtime::new(Workers::Fixed(2));
    let cached = Runtime::new(Workers::Fixed(2)).with_cache(8);
    let ab = JobSpec::AbInitio(AbInitioSpec {
        archs: Some(vec!["RCA".into(), "Sequential".into()]),
        items: 12,
        seed: 9,
        ..AbInitioSpec::default()
    });

    // Cold sweep through the cached runtime: both rows computed.
    let first = cached.run(&ab).unwrap();
    assert_eq!(
        first.meta.row_cache,
        Some(RowCacheStats { hits: 0, misses: 2 })
    );
    assert!(first
        .to_json()
        .contains(r#""row_cache":{"hits":0,"misses":2}"#));

    // A *different* spec (worker override changes the canonical key,
    // never the measurement) re-runs the sweep: the artifact cache
    // misses, every row is served, and the payload is bit-identical
    // to the cacheless runtime's.
    let repeat = JobSpec::AbInitio(AbInitioSpec {
        archs: Some(vec!["RCA".into(), "Sequential".into()]),
        items: 12,
        seed: 9,
        workers: Some(1),
        ..AbInitioSpec::default()
    });
    let served = cached.run(&repeat).unwrap();
    assert_eq!(served.meta.cache, Some(CacheStatus::Miss));
    assert_eq!(
        served.meta.row_cache,
        Some(RowCacheStats { hits: 2, misses: 0 })
    );
    assert_eq!(
        served.payload_json(),
        cold.run(&repeat).unwrap().payload_json()
    );

    // An STA job with a measured leg over one shared and one new
    // architecture: the shared row is a hit, the new one a miss, and
    // the rows are bit-identical to a cold STA run.
    let sta = JobSpec::Sta(StaSpec {
        archs: Some(vec!["RCA".into(), "Wallace".into()]),
        items: 12,
        seed: 9,
        ..StaSpec::default()
    });
    let warm_sta = cached.run(&sta).unwrap();
    assert_eq!(
        warm_sta.meta.row_cache,
        Some(RowCacheStats { hits: 1, misses: 1 })
    );
    assert_eq!(
        warm_sta.payload_json(),
        cold.run(&sta).unwrap().payload_json()
    );

    // Cacheless runtimes never stamp counters.
    assert_eq!(cold.run(&ab).unwrap().meta.row_cache, None);
}

/// `prune_delta` runs both legs through the row store: its raw and
/// pruned rows never alias, its pruned rows are the ones an
/// `ab_initio` of the same shape reads, and every payload equals the
/// cacheless runtime's.
#[test]
fn prune_delta_legs_go_through_the_row_store() {
    let cold = Runtime::new(Workers::Fixed(2));
    let cached = Runtime::new(Workers::Fixed(2)).with_cache(8);
    let archs = Some(vec!["RCA".to_string(), "Wallace".to_string()]);
    let prune = |workers| {
        JobSpec::PruneDelta(PruneDeltaSpec {
            archs: archs.clone(),
            widths: vec![8],
            items: 8,
            seed: 3,
            workers,
        })
    };

    // Cold: both legs of both cells are computed.
    let first = cached.run(&prune(None)).unwrap();
    assert_eq!(
        first.meta.row_cache,
        Some(RowCacheStats { hits: 0, misses: 4 })
    );
    assert_eq!(
        first.payload_json(),
        cold.run(&prune(None)).unwrap().payload_json()
    );
    // Wallace's prune removes cells at width 8, so its legs measure two
    // different netlists; aliased rows would report one activity twice.
    let Payload::PruneDelta(rows) = &first.payload else {
        panic!("{:?}", first.payload)
    };
    let wallace = rows.iter().find(|r| r.arch == "Wallace").unwrap();
    assert_eq!(wallace.cells_before - wallace.cells_after, 27);
    assert_ne!(wallace.activity_before, wallace.activity_after);

    // An ab_initio of the same shape reads the pruned legs.
    let ab = JobSpec::AbInitio(AbInitioSpec {
        archs: archs.clone(),
        width: 8,
        items: 8,
        seed: 3,
        ..AbInitioSpec::default()
    });
    let served = cached.run(&ab).unwrap();
    assert_eq!(
        served.meta.row_cache,
        Some(RowCacheStats { hits: 2, misses: 0 })
    );
    assert_eq!(served.payload_json(), cold.run(&ab).unwrap().payload_json());

    // A different spec (a worker pin) of the same measurement misses
    // the artifact store and is served entirely from rows.
    let repeat = cached.run(&prune(Some(1))).unwrap();
    assert_eq!(repeat.meta.cache, Some(CacheStatus::Miss));
    assert_eq!(
        repeat.meta.row_cache,
        Some(RowCacheStats { hits: 4, misses: 0 })
    );
    assert_eq!(
        repeat.payload_json(),
        cold.run(&prune(Some(1))).unwrap().payload_json()
    );
}

fn golden_compare(path: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "golden drift at {} (UPDATE_GOLDENS=1 refreshes after intentional changes)",
        path.display()
    );
}
