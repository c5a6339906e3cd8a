//! Schema validation for the telemetry sinks' output, used by the
//! `experiments gc-log --validate` flag and by CI to check every emitted
//! JSONL line against the schema documented in DESIGN.md.

use crate::json::{parse, Value};
use crate::{GcPhase, HIST_BUCKETS};

/// Field-type shorthand for [`require`].
enum Ty {
    U64,
    Bool,
    Str,
    Hist,
    U64Array,
}

fn require(v: &Value, fields: &[(&str, Ty)]) -> Result<(), String> {
    for (key, ty) in fields {
        let field = v.get(key).ok_or_else(|| format!("missing field {key:?}"))?;
        let ok = match ty {
            Ty::U64 => field.as_u64().is_some(),
            Ty::Bool => field.as_bool().is_some(),
            Ty::Str => field.as_str().is_some(),
            Ty::Hist => field
                .as_array()
                .is_some_and(|a| a.len() == HIST_BUCKETS && a.iter().all(|b| b.as_u64().is_some())),
            Ty::U64Array => field
                .as_array()
                .is_some_and(|a| a.iter().all(|b| b.as_u64().is_some())),
        };
        if !ok {
            return Err(format!("field {key:?} has wrong type"));
        }
    }
    // Reject unknown fields so the documented schema stays authoritative.
    let known: Vec<&str> = fields.iter().map(|(k, _)| *k).chain(["type"]).collect();
    for (key, _) in v.as_object().unwrap_or(&[]) {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown field {key:?}"));
        }
    }
    Ok(())
}

/// Validates one JSONL line against the telemetry schema.
pub fn validate_line(line: &str) -> Result<(), String> {
    let v = parse(line)?;
    let kind = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or("missing string field \"type\"")?;
    match kind {
        "meta" => {
            // `sites` is an object array, not a scalar, so this variant
            // is checked by hand rather than through `require`.
            for key in ["plan", "bench"] {
                if v.get(key).and_then(Value::as_str).is_none() {
                    return Err(format!("meta: missing string field {key:?}"));
                }
            }
            if v.get("clock_hz")
                .and_then(Value::as_u64)
                .is_none_or(|c| c == 0)
            {
                return Err("meta: clock_hz must be a positive integer".to_string());
            }
            let sites = v
                .get("sites")
                .and_then(Value::as_array)
                .ok_or("meta: missing array field \"sites\"")?;
            for s in sites {
                if s.get("id")
                    .and_then(Value::as_u64)
                    .is_none_or(|id| id > u16::MAX as u64)
                    || s.get("name").and_then(Value::as_str).is_none()
                {
                    return Err("meta: bad site entry".to_string());
                }
            }
            for (key, _) in v.as_object().unwrap_or(&[]) {
                if !["type", "plan", "bench", "clock_hz", "sites"].contains(&key.as_str()) {
                    return Err(format!("meta: unknown field {key:?}"));
                }
            }
            Ok(())
        }
        "collection-begin" => {
            // `ttsp_cycles` is optional: the sink omits it when the
            // observed time-to-safepoint is zero, so when present it
            // must be nonzero.
            let mut fields = vec![
                ("collection", Ty::U64),
                ("plan", Ty::Str),
                ("reason", Ty::Str),
                ("major", Ty::Bool),
                ("depth", Ty::U64),
                ("start_cycles", Ty::U64),
            ];
            let has_ttsp = v.get("ttsp_cycles").is_some();
            if has_ttsp {
                fields.push(("ttsp_cycles", Ty::U64));
            }
            require(&v, &fields).and_then(|()| {
                let reason = v.get("reason").unwrap().as_str().unwrap();
                if !["alloc-failure", "forced", "forced-major"].contains(&reason) {
                    return Err(format!("unknown reason {reason:?}"));
                }
                if has_ttsp && v.get("ttsp_cycles").unwrap().as_u64() == Some(0) {
                    return Err("ttsp_cycles present but zero (should be omitted)".to_string());
                }
                Ok(())
            })
        }
        "phase" => require(
            &v,
            &[
                ("collection", Ty::U64),
                ("phase", Ty::Str),
                ("cycles", Ty::U64),
                ("wall_ns", Ty::U64),
            ],
        )
        .and_then(|()| {
            let name = v.get("phase").unwrap().as_str().unwrap();
            if GcPhase::ALL.iter().any(|p| p.wire_name() == name) {
                Ok(())
            } else {
                Err(format!("unknown phase {name:?}"))
            }
        }),
        "collection-end" => {
            // Worker fields are optional-together: serial collections
            // omit both, parallel collections carry both plus the
            // copied-bytes reconciliation identity.
            let parallel = v.get("workers").is_some() || v.get("worker_copied_bytes").is_some();
            let mut fields = vec![
                ("collection", Ty::U64),
                ("major", Ty::Bool),
                ("depth", Ty::U64),
                ("claimed_prefix", Ty::U64),
                ("oracle_prefix", Ty::U64),
                ("copied_bytes", Ty::U64),
                ("scanned_words", Ty::U64),
                ("pretenured_scanned_words", Ty::U64),
                ("roots_found", Ty::U64),
                ("frames_scanned", Ty::U64),
                ("frames_reused", Ty::U64),
                ("slots_scanned", Ty::U64),
                ("barrier_entries", Ty::U64),
                ("markers_placed", Ty::U64),
                ("gc_cycles", Ty::U64),
                ("end_cycles", Ty::U64),
                ("live_bytes_after", Ty::U64),
                ("wall_ns", Ty::U64),
                ("chunks_owned", Ty::U64),
                ("side_cleared_words", Ty::U64),
                ("size_hist", Ty::Hist),
                ("depth_hist", Ty::Hist),
            ];
            if parallel {
                fields.push(("workers", Ty::U64));
                fields.push(("worker_copied_bytes", Ty::U64Array));
            }
            require(&v, &fields).and_then(|()| {
                let claimed = v.get("claimed_prefix").unwrap().as_u64().unwrap();
                let oracle = v.get("oracle_prefix").unwrap().as_u64().unwrap();
                if claimed > oracle {
                    return Err(format!(
                        "claimed_prefix {claimed} exceeds oracle bound {oracle}"
                    ));
                }
                if parallel {
                    let workers = v.get("workers").unwrap().as_u64().unwrap();
                    if workers < 2 {
                        return Err(format!(
                            "worker fields present but workers is {workers} (< 2)"
                        ));
                    }
                    let per = v.get("worker_copied_bytes").unwrap().as_array().unwrap();
                    if per.len() as u64 != workers {
                        return Err(format!(
                            "worker_copied_bytes has {} entries for {workers} workers",
                            per.len()
                        ));
                    }
                    let sum: u64 = per.iter().map(|b| b.as_u64().unwrap()).sum();
                    let copied = v.get("copied_bytes").unwrap().as_u64().unwrap();
                    if sum != copied {
                        return Err(format!(
                            "worker_copied_bytes sum {sum} != copied_bytes {copied}"
                        ));
                    }
                }
                Ok(())
            })
        }
        "heap-census" => {
            // `spaces` is an object array like meta's `sites`, so this
            // variant is checked by hand rather than through `require`.
            for key in ["collection", "pretenured_sites"] {
                if v.get(key).and_then(Value::as_u64).is_none() {
                    return Err(format!("heap-census: missing integer field {key:?}"));
                }
            }
            let spaces = v
                .get("spaces")
                .and_then(Value::as_array)
                .ok_or("heap-census: missing array field \"spaces\"")?;
            if spaces.is_empty() {
                return Err("heap-census: spaces array is empty".to_string());
            }
            for s in spaces {
                let name = s
                    .get("space")
                    .and_then(Value::as_str)
                    .ok_or("heap-census: space row missing name")?;
                if !["semispace", "nursery", "tenured", "los"].contains(&name) {
                    return Err(format!("heap-census: unknown space {name:?}"));
                }
                for key in ["used_words", "reserved_words", "chunks"] {
                    if s.get(key).and_then(Value::as_u64).is_none() {
                        return Err(format!("heap-census: space row missing {key:?}"));
                    }
                }
                let used = s.get("used_words").unwrap().as_u64().unwrap();
                let reserved = s.get("reserved_words").unwrap().as_u64().unwrap();
                if used > reserved {
                    return Err(format!(
                        "heap-census: {name} used_words {used} exceeds reserved_words {reserved}"
                    ));
                }
            }
            for (key, _) in v.as_object().unwrap_or(&[]) {
                if !["type", "collection", "pretenured_sites", "spaces"].contains(&key.as_str()) {
                    return Err(format!("heap-census: unknown field {key:?}"));
                }
            }
            Ok(())
        }
        "site-sample" => require(
            &v,
            &[
                ("collection", Ty::U64),
                ("site", Ty::U64),
                ("allocs", Ty::U64),
                ("alloc_bytes", Ty::U64),
                ("copied_objects", Ty::U64),
                ("copied_bytes", Ty::U64),
                ("survived", Ty::U64),
            ],
        )
        .and_then(|()| {
            let site = v.get("site").unwrap().as_u64().unwrap();
            if site > u16::MAX as u64 {
                return Err(format!("site id {site} out of range"));
            }
            let survived = v.get("survived").unwrap().as_u64().unwrap();
            let copied = v.get("copied_objects").unwrap().as_u64().unwrap();
            if survived > copied {
                return Err(format!(
                    "survived {survived} exceeds copied_objects {copied}"
                ));
            }
            Ok(())
        }),
        "pressure-begin" => require(
            &v,
            &[
                ("site", Ty::U64),
                ("words", Ty::U64),
                ("space", Ty::Str),
                ("start_cycles", Ty::U64),
            ],
        )
        .and_then(|()| {
            let space = v.get("space").unwrap().as_str().unwrap();
            if ["nursery", "tenured", "los"].contains(&space) {
                Ok(())
            } else {
                Err(format!("unknown pressure space {space:?}"))
            }
        }),
        "pressure-rung" => require(
            &v,
            &[
                ("rung", Ty::Str),
                ("site", Ty::U64),
                ("words", Ty::U64),
                ("outcome", Ty::Str),
                ("cycles", Ty::U64),
            ],
        )
        .and_then(|()| {
            let rung = v.get("rung").unwrap().as_str().unwrap();
            if !["retry-minor", "retry-major", "rebalance", "demote"].contains(&rung) {
                return Err(format!("unknown pressure rung {rung:?}"));
            }
            let outcome = v.get("outcome").unwrap().as_str().unwrap();
            if !["recovered", "escalated", "demoted"].contains(&outcome) {
                return Err(format!("unknown rung outcome {outcome:?}"));
            }
            Ok(())
        }),
        "pressure-end" => require(
            &v,
            &[
                ("outcome", Ty::Str),
                ("rungs", Ty::U64),
                ("cycles", Ty::U64),
            ],
        )
        .and_then(|()| {
            let outcome = v.get("outcome").unwrap().as_str().unwrap();
            if ["recovered", "exhausted"].contains(&outcome) {
                Ok(())
            } else {
                Err(format!("unknown pressure outcome {outcome:?}"))
            }
        }),
        "site-promote" => require(
            &v,
            &[
                ("collection", Ty::U64),
                ("site", Ty::U64),
                ("survival_permille", Ty::U64),
            ],
        )
        .and_then(|()| check_site_flip(&v)),
        "site-demote" => require(
            &v,
            &[
                ("collection", Ty::U64),
                ("site", Ty::U64),
                ("survival_permille", Ty::U64),
                ("reason", Ty::Str),
            ],
        )
        .and_then(|()| {
            check_site_flip(&v)?;
            let reason = v.get("reason").unwrap().as_str().unwrap();
            if ["adaptive", "pressure"].contains(&reason) {
                Ok(())
            } else {
                Err(format!("unknown demote reason {reason:?}"))
            }
        }),
        "degradation-begin" => require(
            &v,
            &[
                ("collection", Ty::U64),
                ("trigger", Ty::Str),
                ("workers", Ty::U64),
                ("workers_lost", Ty::U64),
            ],
        )
        .and_then(|()| {
            let trigger = v.get("trigger").unwrap().as_str().unwrap();
            if !["panic", "watchdog", "budget", "orphan"].contains(&trigger) {
                return Err(format!("unknown degradation trigger {trigger:?}"));
            }
            let workers = v.get("workers").unwrap().as_u64().unwrap();
            if workers < 2 {
                return Err(format!("degradation on {workers} workers (< 2)"));
            }
            let lost = v.get("workers_lost").unwrap().as_u64().unwrap();
            if lost > workers {
                return Err(format!("workers_lost {lost} exceeds workers {workers}"));
            }
            Ok(())
        }),
        "degradation-end" => require(
            &v,
            &[
                ("collection", Ty::U64),
                ("leftover_packets", Ty::U64),
                ("outcome", Ty::Str),
            ],
        )
        .and_then(|()| {
            let outcome = v.get("outcome").unwrap().as_str().unwrap();
            if outcome == "drained" {
                Ok(())
            } else {
                Err(format!("unknown degradation outcome {outcome:?}"))
            }
        }),
        other => Err(format!("unknown event type {other:?}")),
    }
}

/// Range checks shared by the `site-promote` / `site-demote` variants.
fn check_site_flip(v: &Value) -> Result<(), String> {
    let site = v.get("site").unwrap().as_u64().unwrap();
    if site > u16::MAX as u64 {
        return Err(format!("site id {site} out of range"));
    }
    let permille = v.get("survival_permille").unwrap().as_u64().unwrap();
    if permille > 1000 {
        return Err(format!("survival_permille {permille} exceeds 1000"));
    }
    Ok(())
}

/// Validates a whole JSONL document: first line must be `meta`, every
/// line must validate, collection numbers must be properly bracketed
/// (begin before end, strictly increasing), and per-collection phase
/// cycles must sum exactly to the reported `gc_cycles`.
///
/// Pressure episodes are bracketed too: a `pressure-begin` opens an
/// episode on the allocation path (so it cannot appear inside a
/// collection span, though collections triggered by the ladder may nest
/// *inside* the episode), `pressure-rung` lines may only appear inside
/// an open episode, and the closing `pressure-end` must report exactly
/// the number of rungs taken and the sum of their cycle charges.
///
/// Degradation episodes are bracketed like censuses: both lines sit
/// *outside* any collection span, reference the collection that just
/// ended, and the `degradation-end` must name the same collection as
/// its begin with no nesting.
pub fn validate_jsonl(doc: &str) -> Result<usize, String> {
    let mut lines = 0usize;
    let mut open: Option<u64> = None;
    let mut last_ended = 0u64;
    let mut phase_sum = 0u64;
    let mut pressure_open = false;
    let mut rung_sum = 0u64;
    let mut rung_count = 0u64;
    let mut degradation_open: Option<u64> = None;
    for (i, line) in doc.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        validate_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let v = parse(line).unwrap();
        let kind = v.get("type").unwrap().as_str().unwrap();
        if i == 0 && kind != "meta" {
            return Err("line 1: expected meta line".to_string());
        }
        match kind {
            "collection-begin" => {
                let c = v.get("collection").unwrap().as_u64().unwrap();
                if open.is_some() {
                    return Err(format!("line {}: nested collection {c}", i + 1));
                }
                if degradation_open.is_some() {
                    return Err(format!(
                        "line {}: collection {c} began inside a degradation episode",
                        i + 1
                    ));
                }
                if c <= last_ended {
                    return Err(format!("line {}: collection {c} out of order", i + 1));
                }
                open = Some(c);
                phase_sum = 0;
            }
            "phase" => {
                let c = v.get("collection").unwrap().as_u64().unwrap();
                if open != Some(c) {
                    return Err(format!("line {}: phase outside collection {c}", i + 1));
                }
                phase_sum += v.get("cycles").unwrap().as_u64().unwrap();
            }
            "collection-end" => {
                let c = v.get("collection").unwrap().as_u64().unwrap();
                if open != Some(c) {
                    return Err(format!("line {}: end without begin for {c}", i + 1));
                }
                let gc_cycles = v.get("gc_cycles").unwrap().as_u64().unwrap();
                if phase_sum != gc_cycles {
                    return Err(format!(
                        "line {}: phase cycles {phase_sum} != gc_cycles {gc_cycles}",
                        i + 1
                    ));
                }
                open = None;
                last_ended = c;
            }
            "heap-census" => {
                let c = v.get("collection").unwrap().as_u64().unwrap();
                if open.is_some() {
                    return Err(format!("line {}: census inside a collection span", i + 1));
                }
                if c != last_ended {
                    return Err(format!(
                        "line {}: census for collection {c} but last ended is {last_ended}",
                        i + 1
                    ));
                }
            }
            "degradation-begin" => {
                let c = v.get("collection").unwrap().as_u64().unwrap();
                if open.is_some() {
                    return Err(format!(
                        "line {}: degradation inside a collection span",
                        i + 1
                    ));
                }
                if degradation_open.is_some() {
                    return Err(format!("line {}: nested degradation episode", i + 1));
                }
                if c != last_ended {
                    return Err(format!(
                        "line {}: degradation for collection {c} but last ended is {last_ended}",
                        i + 1
                    ));
                }
                degradation_open = Some(c);
            }
            "degradation-end" => {
                let c = v.get("collection").unwrap().as_u64().unwrap();
                if degradation_open != Some(c) {
                    return Err(format!(
                        "line {}: degradation end without begin for {c}",
                        i + 1
                    ));
                }
                degradation_open = None;
            }
            "pressure-begin" => {
                if pressure_open {
                    return Err(format!("line {}: nested pressure episode", i + 1));
                }
                if open.is_some() {
                    return Err(format!(
                        "line {}: pressure episode opened inside a collection",
                        i + 1
                    ));
                }
                pressure_open = true;
                rung_sum = 0;
                rung_count = 0;
            }
            "pressure-rung" => {
                if !pressure_open {
                    return Err(format!("line {}: rung outside a pressure episode", i + 1));
                }
                if open.is_some() {
                    return Err(format!("line {}: rung inside a collection span", i + 1));
                }
                rung_sum += v.get("cycles").unwrap().as_u64().unwrap();
                rung_count += 1;
            }
            "pressure-end" => {
                if !pressure_open {
                    return Err(format!("line {}: pressure end without begin", i + 1));
                }
                if open.is_some() {
                    return Err(format!(
                        "line {}: pressure episode ended inside a collection",
                        i + 1
                    ));
                }
                let cycles = v.get("cycles").unwrap().as_u64().unwrap();
                if cycles != rung_sum {
                    return Err(format!(
                        "line {}: episode cycles {cycles} != rung sum {rung_sum}",
                        i + 1
                    ));
                }
                let rungs = v.get("rungs").unwrap().as_u64().unwrap();
                if rungs != rung_count {
                    return Err(format!(
                        "line {}: episode rungs {rungs} != rung count {rung_count}",
                        i + 1
                    ));
                }
                pressure_open = false;
            }
            _ => {}
        }
        lines += 1;
    }
    if let Some(c) = open {
        return Err(format!("collection {c} never ended"));
    }
    if pressure_open {
        return Err("pressure episode never ended".to_string());
    }
    if let Some(c) = degradation_open {
        return Err(format!("degradation episode for {c} never ended"));
    }
    if lines == 0 {
        return Err("empty document".to_string());
    }
    Ok(lines)
}

/// Validates a Chrome trace document: parses as JSON, requires a
/// `traceEvents` array whose entries all carry a `ph` string, and checks
/// the fields of "X" (complete), "i" (instant) and "C" (counter) events.
pub fn validate_chrome(doc: &str) -> Result<usize, String> {
    let v = parse(doc)?;
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        match ph {
            "X" => {
                for key in ["name", "cat"] {
                    if e.get(key).and_then(Value::as_str).is_none() {
                        return Err(format!("event {i}: missing string {key:?}"));
                    }
                }
                for key in ["ts", "dur"] {
                    if e.get(key).and_then(Value::as_f64).is_none_or(|x| x < 0.0) {
                        return Err(format!("event {i}: bad {key:?}"));
                    }
                }
                for key in ["pid", "tid"] {
                    if e.get(key).and_then(Value::as_u64).is_none() {
                        return Err(format!("event {i}: missing {key:?}"));
                    }
                }
            }
            "i" => {
                for key in ["name", "cat", "s"] {
                    if e.get(key).and_then(Value::as_str).is_none() {
                        return Err(format!("event {i}: instant missing string {key:?}"));
                    }
                }
                if e.get("ts").and_then(Value::as_f64).is_none_or(|x| x < 0.0) {
                    return Err(format!("event {i}: instant has bad \"ts\""));
                }
                for key in ["pid", "tid"] {
                    if e.get(key).and_then(Value::as_u64).is_none() {
                        return Err(format!("event {i}: instant missing {key:?}"));
                    }
                }
            }
            "C" => {
                if e.get("name").and_then(Value::as_str).is_none() {
                    return Err(format!("event {i}: counter missing name"));
                }
                if e.get("ts").and_then(Value::as_f64).is_none_or(|x| x < 0.0) {
                    return Err(format!("event {i}: counter has bad \"ts\""));
                }
                if e.get("pid").and_then(Value::as_u64).is_none() {
                    return Err(format!("event {i}: counter missing \"pid\""));
                }
                let args = e
                    .get("args")
                    .ok_or_else(|| format!("event {i}: counter missing args"))?;
                let series = args
                    .as_object()
                    .ok_or_else(|| format!("event {i}: counter args not an object"))?;
                if series.is_empty() || series.iter().any(|(_, v)| v.as_u64().is_none()) {
                    return Err(format!("event {i}: counter args need integer series"));
                }
            }
            "M" => {
                if e.get("name").and_then(Value::as_str).is_none() {
                    return Err(format!("event {i}: metadata missing name"));
                }
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_documented_lines() {
        let lines = [
            r#"{"type":"meta","plan":"semispace","bench":"Life","clock_hz":150000000,"sites":[{"id":0,"name":"unknown"}]}"#,
            r#"{"type":"collection-begin","collection":1,"plan":"semispace","reason":"forced","major":true,"depth":0,"start_cycles":10}"#,
            r#"{"type":"phase","collection":1,"phase":"cheney-copy","cycles":5,"wall_ns":10}"#,
            r#"{"type":"site-sample","collection":1,"site":2,"allocs":3,"alloc_bytes":48,"copied_objects":1,"copied_bytes":16,"survived":1}"#,
            r#"{"type":"pressure-begin","site":4,"words":18,"space":"nursery","start_cycles":900}"#,
            r#"{"type":"pressure-rung","rung":"retry-major","site":4,"words":18,"outcome":"recovered","cycles":20}"#,
            r#"{"type":"pressure-end","outcome":"recovered","rungs":1,"cycles":20}"#,
            r#"{"type":"site-promote","collection":3,"site":9,"survival_permille":903}"#,
            r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[{"space":"nursery","used_words":0,"reserved_words":1024,"chunks":2},{"space":"tenured","used_words":12,"reserved_words":2048,"chunks":4}]}"#,
            r#"{"type":"site-demote","collection":8,"site":9,"survival_permille":105,"reason":"adaptive"}"#,
            r#"{"type":"site-demote","collection":9,"site":2,"survival_permille":640,"reason":"pressure"}"#,
            r#"{"type":"collection-begin","collection":2,"plan":"semispace","reason":"alloc-failure","major":false,"depth":1,"start_cycles":99,"ttsp_cycles":12}"#,
            r#"{"type":"degradation-begin","collection":1,"trigger":"panic","workers":4,"workers_lost":1}"#,
            r#"{"type":"degradation-begin","collection":1,"trigger":"orphan","workers":2,"workers_lost":0}"#,
            r#"{"type":"degradation-end","collection":1,"leftover_packets":3,"outcome":"drained"}"#,
        ];
        for line in lines {
            validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn rejects_bad_lines() {
        let bad = [
            ("not json", "{oops"),
            ("unknown type", r#"{"type":"mystery"}"#),
            (
                "unknown phase",
                r#"{"type":"phase","collection":1,"phase":"mark-sweep","cycles":1,"wall_ns":0}"#,
            ),
            (
                "unknown reason",
                r#"{"type":"collection-begin","collection":1,"plan":"x","reason":"bored","major":false,"depth":0,"start_cycles":0}"#,
            ),
            (
                "survived > copied",
                r#"{"type":"site-sample","collection":1,"site":1,"allocs":0,"alloc_bytes":0,"copied_objects":1,"copied_bytes":16,"survived":2}"#,
            ),
            (
                "extra field",
                r#"{"type":"phase","collection":1,"phase":"setup","cycles":1,"wall_ns":0,"bogus":1}"#,
            ),
            (
                "missing field",
                r#"{"type":"phase","collection":1,"phase":"setup","cycles":1}"#,
            ),
            (
                "unknown pressure rung",
                r#"{"type":"pressure-rung","rung":"pray","site":0,"words":1,"outcome":"recovered","cycles":1}"#,
            ),
            (
                "unknown pressure space",
                r#"{"type":"pressure-begin","site":0,"words":1,"space":"attic","start_cycles":0}"#,
            ),
            (
                "unknown pressure outcome",
                r#"{"type":"pressure-end","outcome":"shrug","rungs":1,"cycles":1}"#,
            ),
            (
                "promote permille out of range",
                r#"{"type":"site-promote","collection":1,"site":1,"survival_permille":1001}"#,
            ),
            (
                "promote site out of range",
                r#"{"type":"site-promote","collection":1,"site":70000,"survival_permille":900}"#,
            ),
            (
                "unknown demote reason",
                r#"{"type":"site-demote","collection":1,"site":1,"survival_permille":100,"reason":"whim"}"#,
            ),
            (
                "demote without reason",
                r#"{"type":"site-demote","collection":1,"site":1,"survival_permille":100}"#,
            ),
            (
                "census with unknown space",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[{"space":"attic","used_words":0,"reserved_words":1,"chunks":0}]}"#,
            ),
            (
                "census with empty spaces",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[]}"#,
            ),
            (
                "census used exceeds reserved",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[{"space":"nursery","used_words":9,"reserved_words":8,"chunks":1}]}"#,
            ),
            (
                "census with unknown field",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"bogus":1,"spaces":[{"space":"nursery","used_words":0,"reserved_words":8,"chunks":1}]}"#,
            ),
            (
                "census row missing chunks",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[{"space":"nursery","used_words":0,"reserved_words":8}]}"#,
            ),
            (
                "zero ttsp should be omitted",
                r#"{"type":"collection-begin","collection":1,"plan":"x","reason":"forced","major":false,"depth":0,"start_cycles":0,"ttsp_cycles":0}"#,
            ),
            (
                "unknown degradation trigger",
                r#"{"type":"degradation-begin","collection":1,"trigger":"gremlins","workers":4,"workers_lost":1}"#,
            ),
            (
                "degradation on a serial collection",
                r#"{"type":"degradation-begin","collection":1,"trigger":"panic","workers":1,"workers_lost":1}"#,
            ),
            (
                "workers_lost exceeds workers",
                r#"{"type":"degradation-begin","collection":1,"trigger":"panic","workers":2,"workers_lost":3}"#,
            ),
            (
                "unknown degradation outcome",
                r#"{"type":"degradation-end","collection":1,"leftover_packets":0,"outcome":"gave-up"}"#,
            ),
        ];
        for (what, line) in bad {
            assert!(validate_line(line).is_err(), "{what} should be rejected");
        }
    }

    #[test]
    fn collection_end_worker_fields_are_optional_together_and_reconciled() {
        let base = "{\"type\":\"collection-end\",\"collection\":1,\"major\":false,\"depth\":0,\"claimed_prefix\":0,\"oracle_prefix\":0,\"copied_bytes\":64,\"scanned_words\":0,\"pretenured_scanned_words\":0,\"roots_found\":0,\"frames_scanned\":0,\"frames_reused\":0,\"slots_scanned\":0,\"barrier_entries\":0,\"markers_placed\":0,\"gc_cycles\":5,\"end_cycles\":5,\"live_bytes_after\":0,\"wall_ns\":0,\"chunks_owned\":0,\"side_cleared_words\":0,\"size_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"depth_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]";
        let serial = format!("{base}}}");
        validate_line(&serial).expect("serial end line valid without worker fields");

        let parallel = format!("{base},\"workers\":2,\"worker_copied_bytes\":[48,16]}}");
        validate_line(&parallel).expect("parallel end line valid");

        let bad = [
            (
                "workers without per-worker array",
                format!("{base},\"workers\":2}}"),
            ),
            (
                "per-worker array without workers",
                format!("{base},\"worker_copied_bytes\":[64]}}"),
            ),
            (
                "workers below 2",
                format!("{base},\"workers\":1,\"worker_copied_bytes\":[64]}}"),
            ),
            (
                "array length mismatch",
                format!("{base},\"workers\":3,\"worker_copied_bytes\":[48,16]}}"),
            ),
            (
                "sum mismatch",
                format!("{base},\"workers\":2,\"worker_copied_bytes\":[48,17]}}"),
            ),
        ];
        for (what, line) in bad {
            assert!(validate_line(&line).is_err(), "{what} should be rejected");
        }
    }

    #[test]
    fn jsonl_document_checks_bracketing_and_phase_sums() {
        let ok = "\
{\"type\":\"meta\",\"plan\":\"p\",\"bench\":\"b\",\"clock_hz\":1,\"sites\":[]}\n\
{\"type\":\"collection-begin\",\"collection\":1,\"plan\":\"p\",\"reason\":\"forced\",\"major\":false,\"depth\":0,\"start_cycles\":0}\n\
{\"type\":\"phase\",\"collection\":1,\"phase\":\"setup\",\"cycles\":2,\"wall_ns\":0}\n\
{\"type\":\"phase\",\"collection\":1,\"phase\":\"cheney-copy\",\"cycles\":3,\"wall_ns\":0}\n\
{\"type\":\"collection-end\",\"collection\":1,\"major\":false,\"depth\":0,\"claimed_prefix\":0,\"oracle_prefix\":0,\"copied_bytes\":0,\"scanned_words\":0,\"pretenured_scanned_words\":0,\"roots_found\":0,\"frames_scanned\":0,\"frames_reused\":0,\"slots_scanned\":0,\"barrier_entries\":0,\"markers_placed\":0,\"gc_cycles\":5,\"end_cycles\":5,\"live_bytes_after\":0,\"wall_ns\":0,\"chunks_owned\":0,\"side_cleared_words\":0,\"size_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"depth_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}\n";
        assert_eq!(validate_jsonl(ok).unwrap(), 5);
        let mismatched = ok.replace("\"gc_cycles\":5", "\"gc_cycles\":6");
        assert!(validate_jsonl(&mismatched)
            .unwrap_err()
            .contains("phase cycles"));
        let unclosed = ok.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(validate_jsonl(&unclosed)
            .unwrap_err()
            .contains("never ended"));
    }

    #[test]
    fn jsonl_document_checks_census_placement() {
        let meta =
            "{\"type\":\"meta\",\"plan\":\"p\",\"bench\":\"b\",\"clock_hz\":1,\"sites\":[]}\n";
        let gc_begin = "{\"type\":\"collection-begin\",\"collection\":1,\"plan\":\"p\",\"reason\":\"forced\",\"major\":false,\"depth\":0,\"start_cycles\":0}\n";
        let gc_phase = "{\"type\":\"phase\",\"collection\":1,\"phase\":\"setup\",\"cycles\":5,\"wall_ns\":0}\n";
        let gc_end = "{\"type\":\"collection-end\",\"collection\":1,\"major\":false,\"depth\":0,\"claimed_prefix\":0,\"oracle_prefix\":0,\"copied_bytes\":0,\"scanned_words\":0,\"pretenured_scanned_words\":0,\"roots_found\":0,\"frames_scanned\":0,\"frames_reused\":0,\"slots_scanned\":0,\"barrier_entries\":0,\"markers_placed\":0,\"gc_cycles\":5,\"end_cycles\":5,\"live_bytes_after\":0,\"wall_ns\":0,\"chunks_owned\":0,\"side_cleared_words\":0,\"size_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"depth_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}\n";
        let census = "{\"type\":\"heap-census\",\"collection\":1,\"pretenured_sites\":0,\"spaces\":[{\"space\":\"semispace\",\"used_words\":0,\"reserved_words\":64,\"chunks\":1}]}\n";
        let ok = format!("{meta}{gc_begin}{gc_phase}{gc_end}{census}");
        assert_eq!(validate_jsonl(&ok).unwrap(), 5);

        let inside = format!("{meta}{gc_begin}{census}");
        assert!(validate_jsonl(&inside)
            .unwrap_err()
            .contains("inside a collection"));
        let wrong_collection = format!(
            "{meta}{gc_begin}{gc_phase}{gc_end}{}",
            census.replace("\"collection\":1", "\"collection\":2")
        );
        assert!(validate_jsonl(&wrong_collection)
            .unwrap_err()
            .contains("last ended"));
    }

    #[test]
    fn jsonl_document_checks_degradation_bracketing() {
        let meta =
            "{\"type\":\"meta\",\"plan\":\"p\",\"bench\":\"b\",\"clock_hz\":1,\"sites\":[]}\n";
        let gc_begin = "{\"type\":\"collection-begin\",\"collection\":1,\"plan\":\"p\",\"reason\":\"forced\",\"major\":false,\"depth\":0,\"start_cycles\":0}\n";
        let gc_phase = "{\"type\":\"phase\",\"collection\":1,\"phase\":\"setup\",\"cycles\":5,\"wall_ns\":0}\n";
        let gc_end = "{\"type\":\"collection-end\",\"collection\":1,\"major\":false,\"depth\":0,\"claimed_prefix\":0,\"oracle_prefix\":0,\"copied_bytes\":0,\"scanned_words\":0,\"pretenured_scanned_words\":0,\"roots_found\":0,\"frames_scanned\":0,\"frames_reused\":0,\"slots_scanned\":0,\"barrier_entries\":0,\"markers_placed\":0,\"gc_cycles\":5,\"end_cycles\":5,\"live_bytes_after\":0,\"wall_ns\":0,\"chunks_owned\":0,\"side_cleared_words\":0,\"size_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"depth_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}\n";
        let deg_begin = "{\"type\":\"degradation-begin\",\"collection\":1,\"trigger\":\"watchdog\",\"workers\":4,\"workers_lost\":1}\n";
        let deg_end = "{\"type\":\"degradation-end\",\"collection\":1,\"leftover_packets\":2,\"outcome\":\"drained\"}\n";
        let ok = format!("{meta}{gc_begin}{gc_phase}{gc_end}{deg_begin}{deg_end}");
        assert_eq!(validate_jsonl(&ok).unwrap(), 6);

        let inside = format!("{meta}{gc_begin}{deg_begin}");
        assert!(validate_jsonl(&inside)
            .unwrap_err()
            .contains("inside a collection"));
        let wrong_collection = format!(
            "{meta}{gc_begin}{gc_phase}{gc_end}{}",
            deg_begin.replace("\"collection\":1", "\"collection\":2")
        );
        assert!(validate_jsonl(&wrong_collection)
            .unwrap_err()
            .contains("last ended"));
        let orphan_end = format!("{meta}{gc_begin}{gc_phase}{gc_end}{deg_end}");
        assert!(validate_jsonl(&orphan_end)
            .unwrap_err()
            .contains("without begin"));
        let unclosed = format!("{meta}{gc_begin}{gc_phase}{gc_end}{deg_begin}");
        assert!(validate_jsonl(&unclosed)
            .unwrap_err()
            .contains("never ended"));
        let nested = format!("{meta}{gc_begin}{gc_phase}{gc_end}{deg_begin}{deg_begin}");
        assert!(validate_jsonl(&nested)
            .unwrap_err()
            .contains("nested degradation"));
    }

    #[test]
    fn jsonl_document_checks_pressure_bracketing() {
        let meta =
            "{\"type\":\"meta\",\"plan\":\"p\",\"bench\":\"b\",\"clock_hz\":1,\"sites\":[]}\n";
        let begin = "{\"type\":\"pressure-begin\",\"site\":1,\"words\":8,\"space\":\"tenured\",\"start_cycles\":0}\n";
        let rung = "{\"type\":\"pressure-rung\",\"rung\":\"retry-major\",\"site\":1,\"words\":8,\"outcome\":\"escalated\",\"cycles\":20}\n";
        let rung2 = "{\"type\":\"pressure-rung\",\"rung\":\"rebalance\",\"site\":1,\"words\":8,\"outcome\":\"recovered\",\"cycles\":200}\n";
        let end =
            "{\"type\":\"pressure-end\",\"outcome\":\"recovered\",\"rungs\":2,\"cycles\":220}\n";
        let ok = format!("{meta}{begin}{rung}{rung2}{end}");
        assert_eq!(validate_jsonl(&ok).unwrap(), 5);

        // A collection triggered by the ladder nests inside the episode.
        let gc_begin = "{\"type\":\"collection-begin\",\"collection\":1,\"plan\":\"p\",\"reason\":\"alloc-failure\",\"major\":true,\"depth\":0,\"start_cycles\":0}\n";
        let gc_phase = "{\"type\":\"phase\",\"collection\":1,\"phase\":\"setup\",\"cycles\":5,\"wall_ns\":0}\n";
        let gc_end = "{\"type\":\"collection-end\",\"collection\":1,\"major\":true,\"depth\":0,\"claimed_prefix\":0,\"oracle_prefix\":0,\"copied_bytes\":0,\"scanned_words\":0,\"pretenured_scanned_words\":0,\"roots_found\":0,\"frames_scanned\":0,\"frames_reused\":0,\"slots_scanned\":0,\"barrier_entries\":0,\"markers_placed\":0,\"gc_cycles\":5,\"end_cycles\":5,\"live_bytes_after\":0,\"wall_ns\":0,\"chunks_owned\":0,\"side_cleared_words\":0,\"size_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"depth_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}\n";
        let nested = format!("{meta}{begin}{gc_begin}{gc_phase}{gc_end}{rung}{rung2}{end}");
        assert_eq!(validate_jsonl(&nested).unwrap(), 8);

        let orphan_rung = format!("{meta}{rung}");
        assert!(validate_jsonl(&orphan_rung)
            .unwrap_err()
            .contains("outside a pressure episode"));
        let bad_sum = format!("{meta}{begin}{rung}{end}");
        assert!(validate_jsonl(&bad_sum).unwrap_err().contains("rung"));
        let unclosed = format!("{meta}{begin}{rung}");
        assert!(validate_jsonl(&unclosed)
            .unwrap_err()
            .contains("pressure episode never ended"));
        let inside_gc = format!("{meta}{gc_begin}{begin}");
        assert!(validate_jsonl(&inside_gc)
            .unwrap_err()
            .contains("inside a collection"));
    }

    #[test]
    fn chrome_validator_accepts_rendered_trace() {
        let events = [crate::Event::CollectionBegin(crate::CollectionBegin {
            collection: 1,
            plan: "p",
            reason: "forced",
            major: false,
            depth: 0,
            start_cycles: 0,
            ttsp_cycles: 0,
        })];
        let doc = crate::chrome::render("p", "b", 150_000_000, &events);
        assert!(
            validate_chrome(&doc).unwrap() >= 3,
            "metadata events present"
        );
        assert!(validate_chrome("{}").is_err());
        assert!(validate_chrome("{\"traceEvents\":[{\"ph\":\"Q\"}]}").is_err());
    }
}
