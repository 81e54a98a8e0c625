//! Every integer field of every job kind at every boundary value: the
//! parser either refuses the value as a typed spec error or accepts a
//! spec that round-trips through its canonical JSON.
//!
//! The test edits the wire form of each kind's default spec, one field
//! at a time, so a field added to the spec is covered without an edit
//! here.

use optpower_workload::{JobSpec, Json, WorkloadError, JOB_KINDS};

/// Small counts, the edges of the caps, and the widths of the integer
/// types a field may be stored in.
const VALUES: [u64; 13] = [
    0,
    1,
    2,
    3,
    5,
    63,
    65,
    100,
    1000,
    4096,
    1 << 32,
    1 << 63,
    u64::MAX,
];

/// `doc` with the value of member `key` replaced.
fn with_member(doc: &[(String, Json)], key: &str, value: &Json) -> String {
    let pairs = doc
        .iter()
        .map(|(k, v)| (k.clone(), if k == key { value.clone() } else { v.clone() }))
        .collect();
    Json::Obj(pairs).to_string()
}

#[test]
fn every_integer_field_is_refused_or_round_trips_at_every_boundary() {
    let (mut accepted, mut refused) = (0, 0);
    for &(kind, _) in JOB_KINDS {
        let Json::Obj(doc) = JobSpec::default_for(kind).expect(kind).to_json_value() else {
            panic!("{kind}: a spec's wire form is an object");
        };
        for (key, value) in &doc {
            // An integer field, or an array of integers.
            let spell: fn(u64) -> Json = match value {
                Json::UInt(_) => Json::UInt,
                Json::Arr(items) if matches!(items.first(), Some(Json::UInt(_))) => {
                    |n| Json::Arr(vec![Json::UInt(n)])
                }
                _ => continue,
            };
            for n in VALUES {
                let wire = with_member(&doc, key, &spell(n));
                match JobSpec::from_json(&wire) {
                    Ok(spec) => {
                        let back = JobSpec::from_json(&spec.canonical_json());
                        assert_eq!(back.ok(), Some(spec), "{wire}");
                        accepted += 1;
                    }
                    Err(WorkloadError::Spec(_)) => refused += 1,
                    Err(other) => panic!("{wire}: not a spec error: {other:?}"),
                }
            }
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
}
