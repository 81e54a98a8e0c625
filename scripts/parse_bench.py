#!/usr/bin/env python3
"""Parse `cargo bench` output (the workspace's criterion shim) into the
committed BENCH_*.json summary format.

The shim prints one line per benchmark:

    bench <id>    mean <value> <unit> min <value> <unit>

and, after the two rows of a pair sampled in one interleaved window
(`Criterion::bench_pair`), one line with the median over rounds of the
ratio of the first row's time to the second's in the same round:

    pair <id_a> <id_b> ratio_median <value>

This script normalises every timing to nanoseconds, derives the
serial-vs-parallel speedups the CI bench job tracks, and writes a JSON
document:

    {
      "schema": "optpower-bench/v1",
      "bench": "<bench target name>",
      "commit": "<sha or null>",
      "entries": [{"id": ..., "mean_ns": ..., "min_ns": ...}, ...],
      "speedups": {"<label>": {"serial_mean_ns": ..., "parallel_mean_ns": ...,
                               "speedup": ..., "speedup_min": ...,
                               "ratio_median": ...}, ...},
      "notes": {...}   # free-form, carried over via --notes-from
    }

Each speedup pair carries two ratios: "speedup" from the mean timings
and "speedup_min" from the per-run minima. On a busy shared runner the
means absorb scheduler interference (the same row can swing tens of
percent between runs); the min is the noise-robust statistic, so
guards with tight margins should read "speedup_min". A pair sampled
with `bench_pair` also carries "ratio_median", the median of its
per-round ratios: the two times of a round share the host's state, so
it does not compare two minima taken at different moments.

Usage: parse_bench.py <bench-output.txt> <out.json> [--bench NAME]
                      [--notes-from <existing-summary.json>]

--notes-from copies the "notes" object of an existing summary (for the
CI job: the committed BENCH_sweep.json) into the new document, so
durable annotations — e.g. how to confirm the timed multi-core >=5x
target from the CI artifact — travel with every generated summary.
The source is read before the output is written, so reading from and
writing to the same path is safe.

Not every speedup row is a parallelism ratio: the serial_core/parallel
id pairing is just "reference vs candidate". The prune_build_wallace16
row pairs the raw (unpruned) Wallace netlist build against the
production pruned one; its ratio is raw/pruned build time and the
acceptance is "speedup_min" >= 0.95 (pruning must not slow netlist
build by more than 5%; the margin is far below run-to-run mean noise
on a 1-core container, so this guard reads the min-based ratio).

Rows listed in ACCEPTANCE are hard gates: when such a row is present
in the parsed output, its listed statistic ("speedup_min" or
"ratio_median") must meet the listed floor or the script exits
non-zero (rows absent from the output are skipped, so partial bench
runs still parse). The wide-plane rows gate the 256/512 lane engines
against the 64-lane engine at equal stimulus volume.
"""

import json
import os
import re
import sys

LINE = re.compile(
    r"^bench\s+(?P<id>\S+)\s+mean\s+(?P<mean>[0-9.]+)\s*(?P<mean_unit>ns|µs|us|ms|s)"
    r"\s+min\s+(?P<min>[0-9.]+)\s*(?P<min_unit>ns|µs|us|ms|s)\s*$"
)

PAIR = re.compile(
    r"^pair\s+(?P<a>\S+)\s+(?P<b>\S+)\s+ratio_median\s+(?P<ratio>\S+)\s*$"
)

NS_PER = {"ns": 1.0, "us": 1e3, "µs": 1e3, "ms": 1e6, "s": 1e9}

# Hard floors, (statistic, floor), enforced whenever the row is present.
# dist_overhead_wallace16 is another reference-vs-candidate row: the
# same single-shard Wallace16 characterization run locally vs through
# a loopback coordinator/worker cluster. Its ratio is local/dist time,
# and the 0.9 floor caps the wire protocol's overhead (connect, frame
# codec, payload re-parse, merge) at ~10% of the job it ships. It reads
# ratio_median: the row's two minima came from different moments of a
# drifting host and read 0.88-1.27 over 14 runs of unchanged code.
#
# timed_warmstart_wallace16 pairs the timed leg stepped per lane from
# cycle 0 (one TimedSim::new per lane, warm-up on the event wheel)
# against measure_timed_activity_pooled, which compiles once, warms up
# on the zero-delay plane and simulates only the counted items; both
# run one worker at the cold_suite glitch-sweep shape.
#
# timed_engine_wallace16_64v pairs the frozen heap engine
# (ScalarTimedSim::measure, 66 items on one stream) with Engine::Timed
# (2 warm-up items on the zero-delay plane, 64 on the event wheel),
# sampled interleaved; the heap engine is frozen, so the ratio moves
# only with the wheel. Ten runs of the wheel with 4-byte events and
# due-tick preemption read ratio_median 4.90-5.19 on a 2-vCPU host,
# where the kernel before it read 3.62-3.86; the 4.3 floor sits
# between the two (BENCH_sweep.json's timed_engine note lists the runs).
ACCEPTANCE = {
    "bitparallel_256_wallace16": ("speedup_min", 2.0),
    "bitparallel_512_wallace16": ("speedup_min", 2.0),
    "dist_overhead_wallace16": ("ratio_median", 0.9),
    "timed_engine_wallace16_64v": ("ratio_median", 4.3),
    "timed_warmstart_wallace16": ("speedup_min", 1.5),
}


def to_ns(value: str, unit: str) -> float:
    return float(value) * NS_PER[unit]


def parse(text: str):
    """The bench rows, and the ratio_median of each (id_a, id_b) pair."""
    entries = []
    pairs = {}
    for line in text.splitlines():
        m = LINE.match(line.strip())
        if m:
            entries.append(
                {
                    "id": m.group("id"),
                    "mean_ns": to_ns(m.group("mean"), m.group("mean_unit")),
                    "min_ns": to_ns(m.group("min"), m.group("min_unit")),
                }
            )
        m = PAIR.match(line.strip())
        if m:
            pairs[(m.group("a"), m.group("b"))] = float(m.group("ratio"))
    return entries, pairs


def derive_speedups(entries, pairs):
    """Pairs sweep/serial_core/<label> with sweep/parallel/<label>."""
    by_id = {e["id"]: e for e in entries}
    speedups = {}
    for eid, entry in by_id.items():
        m = re.match(r"^(?P<prefix>.+)/serial_core/(?P<label>.+)$", eid)
        if not m:
            continue
        partner = f"{m.group('prefix')}/parallel/{m.group('label')}"
        if partner not in by_id:
            continue
        serial, parallel = entry["mean_ns"], by_id[partner]["mean_ns"]
        serial_min, parallel_min = entry["min_ns"], by_id[partner]["min_ns"]
        speedups[m.group("label")] = {
            "serial_mean_ns": serial,
            "parallel_mean_ns": parallel,
            "speedup": serial / parallel if parallel > 0 else None,
            "speedup_min": serial_min / parallel_min if parallel_min > 0 else None,
        }
        if (eid, partner) in pairs:
            speedups[m.group("label")]["ratio_median"] = pairs[(eid, partner)]
    return speedups


def check_acceptance(speedups):
    """Failed hard gates: [(label, statistic, floor, value), ...]."""
    failures = []
    for label, (stat, floor) in ACCEPTANCE.items():
        row = speedups.get(label)
        if row is None:
            continue
        ratio = row.get(stat)
        if ratio is None or not ratio >= floor:
            failures.append((label, stat, floor, ratio))
    return failures


def read_notes(path):
    """The "notes" object of an existing summary, or None."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f).get("notes")
    except (OSError, ValueError) as e:
        print(f"warning: no notes carried from {path}: {e}", file=sys.stderr)
        return None


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    src, dst = argv[1], argv[2]
    bench_name = "sweep"
    notes = None
    rest = argv[3:]
    while rest:
        flag = rest.pop(0)
        if flag == "--bench" and rest:
            bench_name = rest.pop(0)
        elif flag == "--notes-from" and rest:
            # Read now, before the output path (possibly the same
            # file) is overwritten.
            notes = read_notes(rest.pop(0))
        else:
            print(f"error: unknown argument {flag!r}", file=sys.stderr)
            return 2
    with open(src, encoding="utf-8") as f:
        entries, pairs = parse(f.read())
    if not entries:
        print(f"error: no bench lines found in {src}", file=sys.stderr)
        return 1
    doc = {
        "schema": "optpower-bench/v1",
        "bench": bench_name,
        "commit": os.environ.get("GITHUB_SHA"),
        "entries": entries,
        "speedups": derive_speedups(entries, pairs),
    }
    if notes is not None:
        doc["notes"] = notes
    with open(dst, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"wrote {dst}: {len(entries)} entries, {len(doc['speedups'])} speedup pairs")
    failures = check_acceptance(doc["speedups"])
    for label, stat, floor, ratio in failures:
        shown = "missing" if ratio is None else f"{ratio:.2f}"
        print(
            f"error: acceptance gate {label}: {stat} {shown} < {floor}",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
