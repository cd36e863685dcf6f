//! Trace preparation: generate a seeded VDI trace, write it out as a
//! SYSTOR '17 CSV file (in memory), and load it back through
//! `parse_systor` — the path `sim_cli --trace` takes — checking that the
//! round trip reproduces every generated record.

use std::fmt::Write as _;

use aftl_trace::parser::parse_systor;
use aftl_trace::{IoOp, LunPreset, Trace, VdiWorkload};

use crate::prof::{self, Name};

/// What to generate: a Table 2 preset, a request count, an optional
/// footprint override and the spec seed.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpec {
    /// The LUN preset (write ratio, size mix, across-page ratio).
    pub preset: LunPreset,
    /// Requests to generate.
    pub requests: u64,
    /// Logical footprint override in bytes (`None`: the preset's 4 GiB).
    pub lun_bytes: Option<u64>,
}

/// The LUN id written into the CSV (and filtered on when parsing).
fn lun_id(preset: LunPreset) -> u32 {
    LunPreset::ALL
        .iter()
        .position(|&p| p == preset)
        .unwrap_or(0) as u32
        + 1
}

/// SYSTOR '17 CSV of `trace`. Timestamps carry a trailing half
/// nanosecond so the parser's float seconds-to-ns truncation lands on the
/// exact generated nanosecond.
pub fn to_systor_csv(trace: &Trace, lun: u32) -> String {
    let mut out = String::with_capacity(trace.records.len() * 48 + 48);
    out.push_str("Timestamp,Response,IOType,LUN,Offset,Size\n");
    for r in &trace.records {
        let op = match r.op {
            IoOp::Read => 'R',
            IoOp::Write => 'W',
        };
        let _ = writeln!(
            out,
            "{}.{:09}5,0.0,{op},{lun},{},{}",
            r.at_ns / 1_000_000_000,
            r.at_ns % 1_000_000_000,
            r.sector * 512,
            u64::from(r.sectors) * 512
        );
    }
    out
}

/// Records of `a` and `b` that differ, plus their length difference.
pub fn mismatches(a: &Trace, b: &Trace) -> u64 {
    let differ = a
        .records
        .iter()
        .zip(&b.records)
        .filter(|(x, y)| x != y)
        .count();
    (differ + a.records.len().abs_diff(b.records.len())) as u64
}

/// Generate `spec` with `seed`, round-trip it through the SYSTOR parser,
/// and return the parsed trace (timestamps rebased to start at 0) with
/// the number of records where it differs from the generated one.
pub fn prepare(spec: TraceSpec, seed: u64) -> (Trace, u64) {
    let lun = lun_id(spec.preset);
    let (mut generated, csv) = {
        let _s = prof::span(Name::TraceGen);
        let scale = spec.requests as f64 / spec.preset.table2_targets().0 as f64;
        let mut vdi = spec.preset.spec(scale);
        vdi.requests = spec.requests;
        if let Some(bytes) = spec.lun_bytes {
            vdi.lun_bytes = bytes;
        }
        vdi.seed = seed;
        let generated = VdiWorkload::new(vdi).generate();
        let csv = to_systor_csv(&generated, lun);
        (generated, csv)
    };
    let parsed = {
        let _s = prof::span(Name::TraceParse);
        parse_systor(csv.as_bytes(), spec.preset.name(), Some(lun))
    };
    generated.rebase_time();
    match parsed {
        Ok(trace) => {
            let m = mismatches(&generated, &trace);
            (trace, m)
        }
        // An unparseable file fails every record; replay the generated
        // trace so the run still measures something.
        Err(_) => {
            let n = generated.records.len() as u64;
            (generated, n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn systor_round_trip_is_exact() {
        let spec = TraceSpec {
            preset: LunPreset::Lun3,
            requests: 3_000,
            lun_bytes: Some(64 << 20),
        };
        let (trace, mismatches) = prepare(spec, 11);
        assert_eq!(trace.records.len(), 3_000);
        assert_eq!(mismatches, 0);
        assert_eq!(trace.records[0].at_ns, 0);
    }

    #[test]
    fn mismatches_count_changed_and_missing_records() {
        let spec = TraceSpec {
            preset: LunPreset::Lun1,
            requests: 100,
            lun_bytes: None,
        };
        let a = prepare(spec, 1).0;
        let mut b = a.clone();
        b.records[3].sectors += 1;
        b.records.pop();
        assert_eq!(mismatches(&a, &b), 2);
    }

    #[test]
    fn seed_changes_the_trace() {
        let spec = TraceSpec {
            preset: LunPreset::Lun6,
            requests: 500,
            lun_bytes: None,
        };
        assert_eq!(prepare(spec, 5).0.records, prepare(spec, 5).0.records);
        assert_ne!(prepare(spec, 5).0.records, prepare(spec, 6).0.records);
    }
}
