//! The JSONL codec: one hand-rolled JSON object per line, one line per
//! event, preceded by a `meta` line that resolves plan, benchmark, clock
//! rate, and allocation-site names.
//!
//! This module is the only place that knows how an [`Event`] becomes a
//! line and back. The writer ([`event_line`], [`meta_line`], [`render`])
//! and the reader ([`parse_line`], [`read_doc`]) sit side by side, and "a
//! line is well-formed" *means* "it decodes": the keys a decoder asks
//! its `Fields` reader for are the keys the schema allows (anything
//! left over is rejected), and every closed string field is interned
//! against the one list in [`vocab`]. What is not syntax — the
//! identities between fields and between lines — is [`crate::schema`]'s
//! job, over decoded `Event`s. The line schema is documented in
//! DESIGN.md ("Telemetry").

use crate::json::{self, escape_into, Value};
use crate::{
    CollectionBegin, CollectionEnd, Event, GcPhase, HeapCensus, PhaseSpan, PressureBegin,
    PressureEnd, PressureRung, SpaceCensus,
};

/// Version of the line schema, carried by the `meta` line. Bumped when a
/// line changes meaning; the reader refuses any other value.
pub const SCHEMA_VERSION: u64 = 2;

/// Every closed string vocabulary of the wire format, each listed once.
/// The producers' `&'static str` fields hold exactly these words, and the
/// reader hands the same `&'static str` back.
pub mod vocab {
    /// `collection-begin.plan`: the emitting plan's name.
    pub const PLAN: &[&str] = &["semispace", "generational"];
    /// `collection-begin.reason`.
    pub const REASON: &[&str] = &["alloc-failure", "forced", "forced-major"];
    /// `pressure-begin.space`: the arena under pressure.
    pub const ARENA: &[&str] = &["nursery", "tenured", "los"];
    /// `heap-census.spaces[].space`.
    pub const CENSUS_SPACE: &[&str] = &["semispace", "nursery", "tenured", "los"];
    /// `pressure-rung.rung`.
    pub const RUNG: &[&str] = &["retry-minor", "retry-major", "rebalance", "demote"];
    /// `pressure-rung.outcome`.
    pub const RUNG_OUTCOME: &[&str] = &["recovered", "escalated", "demoted"];
    /// `pressure-end.outcome`.
    pub const EPISODE_OUTCOME: &[&str] = &["recovered", "exhausted"];
}

/// Builds one JSON object field by field.
struct Obj {
    out: String,
}

impl Obj {
    /// An object with no fields yet: an element of an object array.
    fn row() -> Obj {
        let mut out = String::with_capacity(256);
        out.push('{');
        Obj { out }
    }

    /// A line: an object whose first field is its `type`.
    fn new(kind: &str) -> Obj {
        Obj::row().str("type", kind)
    }

    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        escape_into(&mut self.out, key);
        self.out.push(':');
    }

    fn num(mut self, key: &str, value: u64) -> Obj {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    fn str(mut self, key: &str, value: &str) -> Obj {
        self.key(key);
        escape_into(&mut self.out, value);
        self
    }

    fn bool(mut self, key: &str, value: bool) -> Obj {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// An array of already-rendered elements.
    fn array(mut self, key: &str, items: impl Iterator<Item = String>) -> Obj {
        self.key(key);
        self.out.push('[');
        for (i, item) in items.enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(&item);
        }
        self.out.push(']');
        self
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Renders the leading `meta` line: run identity plus the site-id → name
/// table that resolves the `site` of pressure lines.
pub fn meta_line(plan: &str, bench: &str, clock_hz: u64, sites: &[(u16, String)]) -> String {
    let site = |(id, name): &(u16, String)| Obj::row().num("id", *id as u64).str("name", name);
    Obj::new("meta")
        .num("schema_version", SCHEMA_VERSION)
        .str("plan", plan)
        .str("bench", bench)
        .num("clock_hz", clock_hz)
        .array("sites", sites.iter().map(site).map(Obj::finish))
        .finish()
}

/// Renders one event as a JSONL line (no trailing newline).
pub fn event_line(event: &Event) -> String {
    match event {
        Event::CollectionBegin(e) => {
            // `ttsp_cycles` appears only when the observed distance is
            // nonzero (the reader rejects an explicit zero).
            let obj = Obj::new("collection-begin")
                .num("collection", e.collection)
                .str("plan", e.plan)
                .str("reason", e.reason)
                .bool("major", e.major)
                .num("depth", e.depth)
                .num("start_cycles", e.start_cycles);
            if e.ttsp_cycles > 0 {
                obj.num("ttsp_cycles", e.ttsp_cycles)
            } else {
                obj
            }
        }
        Event::Phase(e) => Obj::new("phase")
            .num("collection", e.collection)
            .str("phase", e.phase.wire_name())
            .num("cycles", e.cycles)
            .num("wall_ns", e.wall_ns),
        Event::CollectionEnd(e) => Obj::new("collection-end")
            .num("collection", e.collection)
            .bool("major", e.major)
            .num("depth", e.depth)
            .num("claimed_prefix", e.claimed_prefix)
            .num("oracle_prefix", e.oracle_prefix)
            .num("copied_bytes", e.copied_bytes)
            .num("scanned_words", e.scanned_words)
            .num("pretenured_scanned_words", e.pretenured_scanned_words)
            .num("roots_found", e.roots_found)
            .num("frames_scanned", e.frames_scanned)
            .num("frames_reused", e.frames_reused)
            .num("slots_scanned", e.slots_scanned)
            .num("barrier_entries", e.barrier_entries)
            .num("markers_placed", e.markers_placed)
            .num("gc_cycles", e.gc_cycles)
            .num("end_cycles", e.end_cycles)
            .num("live_bytes_after", e.live_bytes_after)
            .num("wall_ns", e.wall_ns)
            .num("chunks_owned", e.chunks_owned)
            .num("side_cleared_words", e.side_cleared_words),
        Event::PressureBegin(e) => Obj::new("pressure-begin")
            .num("site", e.site as u64)
            .num("words", e.words)
            .str("space", e.space)
            .num("start_cycles", e.start_cycles),
        Event::PressureRung(e) => Obj::new("pressure-rung")
            .str("rung", e.rung)
            .num("site", e.site as u64)
            .num("words", e.words)
            .str("outcome", e.outcome)
            .num("cycles", e.cycles),
        Event::PressureEnd(e) => Obj::new("pressure-end")
            .str("outcome", e.outcome)
            .num("rungs", e.rungs)
            .num("cycles", e.cycles),
        Event::HeapCensus(e) => {
            let space = |s: &SpaceCensus| {
                Obj::row()
                    .str("space", s.space)
                    .num("used_words", s.used_words)
                    .num("reserved_words", s.reserved_words)
                    .num("chunks", s.chunks)
            };
            Obj::new("heap-census")
                .num("collection", e.collection)
                .num("pretenured_sites", e.pretenured_sites)
                .array("spaces", e.spaces.iter().map(space).map(Obj::finish))
        }
    }
    .finish()
}

/// Renders a whole event stream, meta line first, newline-terminated.
pub fn render(
    plan: &str,
    bench: &str,
    clock_hz: u64,
    sites: &[(u16, String)],
    events: &[Event],
) -> String {
    let mut out = meta_line(plan, bench, clock_hz, sites);
    out.push('\n');
    for e in events {
        out.push_str(&event_line(e));
        out.push('\n');
    }
    out
}

/// The run identity carried by a stream's leading `meta` line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Meta {
    /// The collector plan label the run was recorded under.
    pub plan: String,
    /// The benchmark (or workload) name.
    pub bench: String,
    /// Simulated clock rate, cycles per second (positive).
    pub clock_hz: u64,
    /// The site-id → name table for the `site` of pressure lines.
    pub sites: Vec<(u16, String)>,
}

/// One decoded line of a stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Line {
    /// The leading `meta` line.
    Meta(Meta),
    /// An event line, decoded to the `Event` the recorder produced.
    Event(Event),
}

/// Reads one JSON object's fields by key, remembering which were asked
/// for, so that [`finish`](Fields::finish) can reject the rest: the keys
/// a decoder reads are the keys the schema allows.
struct Fields<'a> {
    fields: &'a [(String, Value)],
    seen: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Value) -> Result<Fields<'a>, String> {
        let fields = v.as_object().ok_or("expected a JSON object")?;
        Ok(Fields {
            fields,
            seen: vec![false; fields.len()],
        })
    }

    /// Looks up an optional field.
    fn opt(&mut self, key: &str) -> Option<&'a Value> {
        let i = self.fields.iter().position(|(k, _)| k == key)?;
        self.seen[i] = true;
        Some(&self.fields[i].1)
    }

    /// Looks up a required field and converts it with `read`; `what`
    /// names the expected type in the error.
    fn get<T>(
        &mut self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        let v = self
            .opt(key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        read(v).ok_or_else(|| format!("field {key:?} is not {what}"))
    }

    fn num(&mut self, key: &str) -> Result<u64, String> {
        self.get(key, "a non-negative integer", Value::as_u64)
    }

    /// A number that the writer omits when it is below `floor`, so that
    /// an explicit smaller value is an error and every line has exactly
    /// one encoding.
    fn num_or_omitted(&mut self, key: &str, floor: u64) -> Result<Option<u64>, String> {
        if self.opt(key).is_none() {
            return Ok(None);
        }
        match self.num(key)? {
            n if n < floor => Err(format!("{key} is {n}, below {floor} (the writer omits it)")),
            n => Ok(Some(n)),
        }
    }

    fn site(&mut self, key: &str) -> Result<u16, String> {
        self.get(key, "a 16-bit site id", |v| u16::try_from(v.as_u64()?).ok())
    }

    fn flag(&mut self, key: &str) -> Result<bool, String> {
        self.get(key, "a boolean", Value::as_bool)
    }

    fn text(&mut self, key: &str) -> Result<&'a str, String> {
        self.get(key, "a string", Value::as_str)
    }

    /// A string field interned against one of the [`vocab`] lists.
    fn word(&mut self, key: &str, vocab: &[&'static str]) -> Result<&'static str, String> {
        let s = self.text(key)?;
        let known = vocab.iter().copied().find(|w| *w == s);
        known.ok_or_else(|| format!("unknown {key} {s:?} (expected one of {vocab:?})"))
    }

    /// An array of objects (`meta.sites`, `heap-census.spaces`), each
    /// element decoded by `row` and checked for leftover keys.
    fn rows<T>(
        &mut self,
        key: &str,
        row: impl Fn(&mut Fields<'a>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = self.get(key, "an array", Value::as_array)?;
        let decode = |item| {
            let mut f = Fields::new(item)?;
            let decoded = row(&mut f)?;
            f.finish().map(|()| decoded)
        };
        items.iter().map(decode).collect()
    }

    /// Rejects any field no decoder asked for.
    fn finish(self) -> Result<(), String> {
        match self.seen.iter().position(|seen| !seen) {
            Some(i) => Err(format!("unknown field {:?}", self.fields[i].0)),
            None => Ok(()),
        }
    }
}

/// Decodes one line — the inverse of [`meta_line`] / [`event_line`]:
/// `parse_line(&event_line(&e)) == Ok(Line::Event(e))` for every event a
/// recorder produces, and a line that decodes re-encodes to itself.
pub fn parse_line(line: &str) -> Result<Line, String> {
    let v = json::parse(line)?;
    let mut f = Fields::new(&v)?;
    let kind = f.text("type")?;
    let decoded = match kind {
        "meta" => Line::Meta(meta(&mut f)?),
        _ => Line::Event(event(kind, &mut f)?),
    };
    f.finish().map_err(|e| format!("{kind}: {e}"))?;
    Ok(decoded)
}

fn meta(f: &mut Fields) -> Result<Meta, String> {
    let version = f.num("schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} is not the supported version {SCHEMA_VERSION}"
        ));
    }
    let meta = Meta {
        plan: f.text("plan")?.to_string(),
        bench: f.text("bench")?.to_string(),
        clock_hz: f.num("clock_hz")?,
        sites: f.rows("sites", |s| {
            Ok((s.site("id")?, s.text("name")?.to_string()))
        })?,
    };
    if meta.clock_hz == 0 {
        return Err("clock_hz must be positive".to_string());
    }
    Ok(meta)
}

fn event(kind: &str, f: &mut Fields) -> Result<Event, String> {
    Ok(match kind {
        "collection-begin" => Event::CollectionBegin(CollectionBegin {
            collection: f.num("collection")?,
            plan: f.word("plan", vocab::PLAN)?,
            reason: f.word("reason", vocab::REASON)?,
            major: f.flag("major")?,
            depth: f.num("depth")?,
            start_cycles: f.num("start_cycles")?,
            ttsp_cycles: f.num_or_omitted("ttsp_cycles", 1)?.unwrap_or(0),
        }),
        "phase" => Event::Phase(PhaseSpan {
            collection: f.num("collection")?,
            phase: {
                let name = f.text("phase")?;
                let phase = GcPhase::ALL.into_iter().find(|p| p.wire_name() == name);
                phase.ok_or_else(|| format!("unknown phase {name:?}"))?
            },
            cycles: f.num("cycles")?,
            wall_ns: f.num("wall_ns")?,
        }),
        "collection-end" => Event::CollectionEnd(Box::new(CollectionEnd {
            collection: f.num("collection")?,
            major: f.flag("major")?,
            depth: f.num("depth")?,
            claimed_prefix: f.num("claimed_prefix")?,
            oracle_prefix: f.num("oracle_prefix")?,
            copied_bytes: f.num("copied_bytes")?,
            scanned_words: f.num("scanned_words")?,
            pretenured_scanned_words: f.num("pretenured_scanned_words")?,
            roots_found: f.num("roots_found")?,
            frames_scanned: f.num("frames_scanned")?,
            frames_reused: f.num("frames_reused")?,
            slots_scanned: f.num("slots_scanned")?,
            barrier_entries: f.num("barrier_entries")?,
            markers_placed: f.num("markers_placed")?,
            gc_cycles: f.num("gc_cycles")?,
            end_cycles: f.num("end_cycles")?,
            live_bytes_after: f.num("live_bytes_after")?,
            wall_ns: f.num("wall_ns")?,
            workers: 1,
            worker_copied_bytes: Vec::new(),
            chunks_owned: f.num("chunks_owned")?,
            side_cleared_words: f.num("side_cleared_words")?,
        })),
        "pressure-begin" => Event::PressureBegin(PressureBegin {
            site: f.site("site")?,
            words: f.num("words")?,
            space: f.word("space", vocab::ARENA)?,
            start_cycles: f.num("start_cycles")?,
        }),
        "pressure-rung" => Event::PressureRung(PressureRung {
            rung: f.word("rung", vocab::RUNG)?,
            site: f.site("site")?,
            words: f.num("words")?,
            outcome: f.word("outcome", vocab::RUNG_OUTCOME)?,
            cycles: f.num("cycles")?,
        }),
        "pressure-end" => Event::PressureEnd(PressureEnd {
            outcome: f.word("outcome", vocab::EPISODE_OUTCOME)?,
            rungs: f.num("rungs")?,
            cycles: f.num("cycles")?,
        }),
        "heap-census" => Event::HeapCensus(HeapCensus {
            collection: f.num("collection")?,
            pretenured_sites: f.num("pretenured_sites")?,
            spaces: f.rows("spaces", |s| {
                Ok(SpaceCensus {
                    space: s.word("space", vocab::CENSUS_SPACE)?,
                    used_words: s.num("used_words")?,
                    reserved_words: s.num("reserved_words")?,
                    chunks: s.num("chunks")?,
                })
            })?,
        }),
        other => return Err(format!("unknown event type {other:?}")),
    })
}

/// Decodes a whole document: the first non-empty line must be the one
/// `meta` line, every other non-empty line an event, handed to `each` in
/// order. Errors — a line that does not decode, or whatever `each`
/// returns — are prefixed with the 1-based line number. Returns the meta
/// and the number of non-empty lines.
pub fn read_doc(
    doc: &str,
    mut each: impl FnMut(Event) -> Result<(), String>,
) -> Result<(Meta, usize), String> {
    let mut meta = None;
    let mut lines = 0usize;
    for (i, line) in doc.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", i + 1);
        match (parse_line(line).map_err(at)?, &meta) {
            (Line::Meta(m), None) => meta = Some(m),
            (Line::Meta(_), Some(_)) => return Err(at("a second meta line".to_string())),
            (Line::Event(_), None) => return Err(at("expected meta line".to_string())),
            (Line::Event(e), Some(_)) => each(e).map_err(at)?,
        }
        lines += 1;
    }
    let meta = meta.ok_or("empty document")?;
    Ok((meta, lines))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// Renders `e`, checks the line decodes back to `e`, returns it.
    fn round_trip(e: Event) -> String {
        let line = event_line(&e);
        assert_eq!(parse_line(&line), Ok(Line::Event(e)), "{line}");
        line
    }

    #[test]
    fn lines_are_valid_json_with_expected_fields() {
        let events = [
            Event::CollectionBegin(CollectionBegin {
                collection: 1,
                plan: "generational",
                reason: "alloc-failure",
                major: false,
                depth: 9,
                start_cycles: 1234,
                ttsp_cycles: 0,
            }),
            Event::Phase(PhaseSpan {
                collection: 1,
                phase: GcPhase::StackDecode,
                cycles: 77,
                wall_ns: 880,
            }),
        ];
        for e in &events {
            let v = parse(&round_trip(e.clone())).expect("line parses");
            assert!(v.get("type").is_some());
            assert_eq!(v.get("collection").unwrap().as_u64(), Some(1));
        }
        assert_eq!(
            event_line(&events[1]),
            r#"{"type":"phase","collection":1,"phase":"stack-decode","cycles":77,"wall_ns":880}"#
        );
    }

    #[test]
    fn pressure_lines_round_trip() {
        let begin = Event::PressureBegin(PressureBegin {
            site: 4,
            words: 18,
            space: "los",
            start_cycles: 900,
        });
        assert_eq!(
            round_trip(begin),
            r#"{"type":"pressure-begin","site":4,"words":18,"space":"los","start_cycles":900}"#
        );
        for rung in vocab::RUNG {
            for outcome in vocab::RUNG_OUTCOME {
                round_trip(Event::PressureRung(PressureRung {
                    rung,
                    site: 4,
                    words: 18,
                    outcome,
                    cycles: 20,
                }));
            }
        }
        for outcome in vocab::EPISODE_OUTCOME {
            round_trip(Event::PressureEnd(PressureEnd {
                outcome,
                rungs: 2,
                cycles: 40,
            }));
        }
    }

    #[test]
    fn begin_line_gates_ttsp_on_nonzero() {
        let mut e = CollectionBegin {
            collection: 3,
            plan: "semispace",
            reason: "alloc-failure",
            major: true,
            depth: 2,
            start_cycles: 500,
            ttsp_cycles: 0,
        };
        let line = round_trip(Event::CollectionBegin(e.clone()));
        assert!(
            !line.contains("ttsp_cycles"),
            "a zero distance is omitted from the begin line"
        );
        e.ttsp_cycles = 42;
        let line = round_trip(Event::CollectionBegin(e));
        assert!(line.ends_with(r#","start_cycles":500,"ttsp_cycles":42}"#));
    }

    #[test]
    fn meta_line_resolves_sites() {
        let sites = vec![(0, "unknown".to_string()), (3, "rec\"3".to_string())];
        let line = meta_line("semispace", "Life", 150_000_000, &sites);
        assert!(line.starts_with(r#"{"type":"meta","schema_version":2,"plan":"semispace","#));
        let meta = Meta {
            plan: "semispace".to_string(),
            bench: "Life".to_string(),
            clock_hz: 150_000_000,
            sites,
        };
        assert_eq!(parse_line(&line), Ok(Line::Meta(meta)));

        let err = parse_line(&line.replace("150000000", "0")).unwrap_err();
        assert!(err.contains("clock_hz must be positive"), "{err}");
        let err = parse_line(&line.replace(r#""id":3"#, r#""id":70000"#)).unwrap_err();
        assert!(err.contains("16-bit site id"), "{err}");
        let err = parse_line(&line.replace(r#""id":3,"#, r#""id":3,"x":1,"#)).unwrap_err();
        assert!(err.contains("unknown field \"x\""), "{err}");
    }

    #[test]
    fn census_line_round_trips() {
        let e = Event::HeapCensus(HeapCensus {
            collection: 4,
            pretenured_sites: 2,
            spaces: vec![
                SpaceCensus {
                    space: "nursery",
                    used_words: 0,
                    reserved_words: 1024,
                    chunks: 2,
                },
                SpaceCensus {
                    space: "tenured",
                    used_words: 500,
                    reserved_words: 4096,
                    chunks: 8,
                },
            ],
        });
        assert_eq!(
            round_trip(e),
            r#"{"type":"heap-census","collection":4,"pretenured_sites":2,"spaces":[{"space":"nursery","used_words":0,"reserved_words":1024,"chunks":2},{"space":"tenured","used_words":500,"reserved_words":4096,"chunks":8}]}"#
        );
    }

    #[test]
    fn end_line_round_trips_without_worker_fields() {
        let e = CollectionEnd {
            collection: 2,
            major: true,
            depth: 3,
            claimed_prefix: 1,
            oracle_prefix: 2,
            copied_bytes: 64,
            scanned_words: 8,
            pretenured_scanned_words: 0,
            roots_found: 5,
            frames_scanned: 3,
            frames_reused: 0,
            slots_scanned: 12,
            barrier_entries: 0,
            markers_placed: 1,
            gc_cycles: 999,
            end_cycles: 5000,
            live_bytes_after: 64,
            wall_ns: 100,
            chunks_owned: 4,
            side_cleared_words: 32,
            workers: 1,
            worker_copied_bytes: Vec::new(),
        };
        let line = round_trip(Event::CollectionEnd(Box::new(e)));
        assert!(
            line.ends_with(r#","chunks_owned":4,"side_cleared_words":32}"#),
            "{line}"
        );
        let v = parse(&line).unwrap();
        assert!(
            v.get("workers").is_none(),
            "an end line carries no worker fields"
        );
    }
}
