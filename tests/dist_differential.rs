//! Differential acceptance of the coordinator/worker cluster: for
//! every shardable job kind, the merged distributed artifact must be
//! **byte-identical** — `payload_json()` and `to_csv()` — to the
//! single-host [`Runtime::run`] result at shard counts 1, 2, 4 and 8,
//! with distribution visible only in `meta.dist`. Plus a pure
//! property of the sharding algebra itself: the arch axis partitions
//! exactly for any shard count and subset.

use optpower_dist::{spawn, Cluster, WorkerHandle};
use optpower_explore::Workers;
use optpower_mult::Architecture;
use optpower_sim::Engine;
use optpower_workload::{AbInitioSpec, ActivitySpec, GlitchSweepSpec, JobSpec, Json, Runtime};
use proptest::prelude::*;

/// In-process workers on ephemeral loopback ports, each with a small
/// artifact cache (the production shape: retried shards hit it).
fn spawn_workers(n: usize) -> Vec<WorkerHandle> {
    (0..n)
        .map(|_| {
            spawn(
                "127.0.0.1:0",
                Runtime::new(Workers::Fixed(1)).with_cache(16),
            )
            .expect("bind loopback worker")
        })
        .collect()
}

fn cluster_of(workers: &[WorkerHandle]) -> Cluster {
    Cluster::new(workers.iter().map(|w| w.addr().to_string()).collect())
        .with_workers(Workers::Fixed(1))
}

/// Runs `spec` locally and through the cluster at shard counts 1, 2,
/// 4 and 8, asserting byte-identity of the deterministic renderings,
/// the same `meta.seed` and `meta.engine` in the JSON envelope, and
/// that `meta.dist` records the topology truthfully.
fn assert_dist_matches_local(workers: &[WorkerHandle], spec: &JobSpec) {
    let local = Runtime::new(Workers::Fixed(1))
        .run(spec)
        .expect("local run");
    let (payload, csv, text) = (local.payload_json(), local.to_csv(), local.render_text());
    let meta_of = |json: &str, key: &str| {
        let doc = Json::parse(json).expect("envelope parses");
        doc.get("meta").and_then(|m| m.get(key)).cloned()
    };
    for shards in [1usize, 2, 4, 8] {
        let run = cluster_of(workers)
            .with_shards(shards)
            .run(spec)
            .unwrap_or_else(|e| panic!("{} at {shards} shards: {e}", spec.kind()));
        assert_eq!(run.payload_json, payload, "payload at {shards} shards");
        assert_eq!(run.csv, csv, "csv at {shards} shards");
        assert_eq!(run.text, text, "text at {shards} shards");
        for key in ["seed", "engine"] {
            assert_eq!(
                meta_of(&run.json, key),
                meta_of(&local.to_json(), key),
                "meta.{key} at {shards} shards"
            );
        }
        assert_eq!(run.stats.retries, 0, "no deaths injected");
        if let Some(artifact) = &run.artifact {
            let dist = artifact.meta.dist.expect("dist meta stamped");
            assert_eq!(dist.hosts, workers.len());
            assert_eq!(dist.shards, run.stats.shards);
            assert_eq!(dist.retries, 0);
            assert_eq!(artifact.payload_json(), payload);
            assert_eq!(artifact.to_csv(), csv);
        }
    }
}

/// The full 13-architecture characterization suite, distributed: the
/// paper's whole Table 1 arch axis at reduced stimulus volume.
#[test]
fn thirteen_arch_ab_initio_suite_is_bit_identical_across_shard_counts() {
    let workers = spawn_workers(2);
    let spec = JobSpec::AbInitio(AbInitioSpec {
        items: 16,
        ..AbInitioSpec::default()
    });
    assert_dist_matches_local(&workers, &spec);
}

/// A glitch sweep shards as single-width characterization cells and
/// is rebuilt from merged rows — still byte-identical.
#[test]
fn glitch_sweep_is_bit_identical_across_shard_counts() {
    let workers = spawn_workers(2);
    let spec = JobSpec::GlitchSweep(GlitchSweepSpec {
        archs: Some(vec!["RCA".to_string(), "Wallace".to_string()]),
        widths: vec![4, 8],
        items: 20,
        freq_points: 3,
        ..GlitchSweepSpec::default()
    });
    assert_dist_matches_local(&workers, &spec);
}

/// A batch with repeated members: the members dedup into one shard
/// each, execute once, and clone back into every position — so the
/// batch envelope (member order included) still matches byte for
/// byte, and the repeated member composes with the worker-side row
/// cache rather than re-simulating.
#[test]
fn batch_with_repeated_members_is_bit_identical_across_shard_counts() {
    let workers = spawn_workers(2);
    let activity = JobSpec::ActivityMeasure(ActivitySpec {
        items: 32,
        ..ActivitySpec::default()
    });
    let spec = JobSpec::Batch(vec![
        JobSpec::Table2,
        activity.clone(),
        JobSpec::Table2,
        JobSpec::Table3,
        activity,
    ]);
    assert_dist_matches_local(&workers, &spec);
}

/// An indivisible job passes through one shard; its envelope keeps
/// the spec's seed and engine.
#[test]
fn activity_measure_passes_through_with_its_meta() {
    let workers = spawn_workers(2);
    let spec = JobSpec::ActivityMeasure(ActivitySpec {
        arch: "RCA".to_string(),
        width: 8,
        engine: Engine::Timed,
        items: 20,
        warmup: 2,
        seed: 5,
    });
    assert_dist_matches_local(&workers, &spec);
}

/// A subset Table 1 sweep distributes row-by-row and reassembles in
/// published-table order.
#[test]
fn table1_subset_sweep_is_bit_identical_across_shard_counts() {
    let workers = spawn_workers(2);
    let spec = JobSpec::Table1Sweep {
        archs: Some(vec![
            "Wallace".to_string(),
            "RCA".to_string(),
            "Sequential".to_string(),
        ]),
    };
    assert_dist_matches_local(&workers, &spec);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharding the arch axis is an exact partition for every shard
    /// count and every rotation-derived subset: concatenating the
    /// shard arch lists reproduces the subset in resolution order,
    /// and every other spec field survives unchanged.
    #[test]
    fn ab_initio_shard_counts_partition_any_arch_subset(
        n in 1usize..20,
        k in 1usize..14,
        rot in 0usize..13,
        seed in any::<u64>(),
    ) {
        let all: Vec<String> = Architecture::ALL
            .iter()
            .map(|a| a.paper_name().to_string())
            .collect();
        let subset: Vec<String> = (0..k.min(all.len()))
            .map(|i| all[(i + rot) % all.len()].clone())
            .collect();
        let spec = JobSpec::AbInitio(AbInitioSpec {
            archs: Some(subset.clone()),
            seed,
            ..AbInitioSpec::default()
        });
        let shards = spec.shard(n).expect("valid subsets shard cleanly");
        prop_assert!(shards.len() <= n);
        prop_assert!(shards.len() <= subset.len());
        let mut joined = Vec::new();
        for shard in &shards {
            match shard {
                JobSpec::AbInitio(s) => {
                    prop_assert_eq!(s.seed, seed);
                    match (&s.archs, shards.len()) {
                        (Some(archs), _) => joined.extend(archs.clone()),
                        // n == 1 passes the spec through untouched.
                        (None, 1) => joined = subset.clone(),
                        (None, _) => prop_assert!(false, "multi-shard spec lost its archs"),
                    }
                }
                other => prop_assert!(false, "unexpected shard {:?}", other),
            }
        }
        prop_assert_eq!(joined, subset);
    }
}
