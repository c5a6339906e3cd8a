//! The JSONL sink: one hand-rolled JSON object per line, one line per
//! event, preceded by a `meta` line that resolves plan, benchmark, clock
//! rate, and allocation-site names.
//!
//! The full line schema is documented in DESIGN.md ("Telemetry") and
//! machine-checked by [`crate::schema::validate_line`].

use crate::json::escape_into;
use crate::{
    CollectionBegin, CollectionEnd, DegradationBegin, DegradationEnd, Event, HeapCensus, Hist,
    PhaseSpan, PressureBegin, PressureEnd, PressureRung, SiteDemote, SitePromote, SiteSample,
};

/// Builds JSONL object lines field by field.
struct Obj {
    out: String,
}

impl Obj {
    fn new(kind: &str) -> Obj {
        let mut out = String::with_capacity(256);
        out.push_str("{\"type\":");
        escape_into(&mut out, kind);
        Obj { out }
    }

    fn num(mut self, key: &str, value: u64) -> Obj {
        self.out.push(',');
        escape_into(&mut self.out, key);
        self.out.push(':');
        self.out.push_str(&value.to_string());
        self
    }

    fn str(mut self, key: &str, value: &str) -> Obj {
        self.out.push(',');
        escape_into(&mut self.out, key);
        self.out.push(':');
        escape_into(&mut self.out, value);
        self
    }

    fn bool(mut self, key: &str, value: bool) -> Obj {
        self.out.push(',');
        escape_into(&mut self.out, key);
        self.out.push(':');
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    fn nums(mut self, key: &str, values: &[u64]) -> Obj {
        self.out.push(',');
        escape_into(&mut self.out, key);
        self.out.push_str(":[");
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(&v.to_string());
        }
        self.out.push(']');
        self
    }

    fn hist(mut self, key: &str, hist: &Hist) -> Obj {
        self.out.push(',');
        escape_into(&mut self.out, key);
        self.out.push_str(":[");
        for (i, b) in hist.buckets.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(&b.to_string());
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
/// table needed to interpret `site-sample` lines.
pub fn meta_line(plan: &str, bench: &str, clock_hz: u64, sites: &[(u16, String)]) -> String {
    let mut out = String::with_capacity(128 + 24 * sites.len());
    out.push_str("{\"type\":\"meta\",\"plan\":");
    escape_into(&mut out, plan);
    out.push_str(",\"bench\":");
    escape_into(&mut out, bench);
    out.push_str(",\"clock_hz\":");
    out.push_str(&clock_hz.to_string());
    out.push_str(",\"sites\":[");
    for (i, (id, name)) in sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        out.push_str(&id.to_string());
        out.push_str(",\"name\":");
        escape_into(&mut out, name);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Renders one event as a JSONL line (no trailing newline).
pub fn event_line(event: &Event) -> String {
    match event {
        Event::CollectionBegin(e) => begin_line(e),
        Event::Phase(e) => phase_line(e),
        Event::CollectionEnd(e) => end_line(e),
        Event::SiteSample(e) => site_line(e),
        Event::PressureBegin(e) => pressure_begin_line(e),
        Event::PressureRung(e) => pressure_rung_line(e),
        Event::PressureEnd(e) => pressure_end_line(e),
        Event::SitePromote(e) => site_promote_line(e),
        Event::SiteDemote(e) => site_demote_line(e),
        Event::HeapCensus(e) => census_line(e),
        Event::DegradationBegin(e) => degradation_begin_line(e),
        Event::DegradationEnd(e) => degradation_end_line(e),
    }
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

fn begin_line(e: &CollectionBegin) -> String {
    // `ttsp_cycles` appears only when the observed distance is nonzero
    // (the schema rejects an explicit zero).
    let mut obj = Obj::new("collection-begin")
        .num("collection", e.collection)
        .str("plan", e.plan)
        .str("reason", e.reason)
        .bool("major", e.major)
        .num("depth", e.depth)
        .num("start_cycles", e.start_cycles);
    if e.ttsp_cycles > 0 {
        obj = obj.num("ttsp_cycles", e.ttsp_cycles);
    }
    obj.finish()
}

fn phase_line(e: &PhaseSpan) -> String {
    Obj::new("phase")
        .num("collection", e.collection)
        .str("phase", e.phase.wire_name())
        .num("cycles", e.cycles)
        .num("wall_ns", e.wall_ns)
        .finish()
}

fn end_line(e: &CollectionEnd) -> String {
    // Worker fields appear only on parallel collections, so a serial
    // (workers = 1) trace stays byte-identical to pre-scheduler output.
    let mut obj = Obj::new("collection-end")
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
        .num("side_cleared_words", e.side_cleared_words)
        .hist("size_hist", &e.size_hist)
        .hist("depth_hist", &e.depth_hist);
    if e.workers > 1 {
        obj = obj
            .num("workers", e.workers)
            .nums("worker_copied_bytes", &e.worker_copied_bytes);
    }
    obj.finish()
}

fn pressure_begin_line(e: &PressureBegin) -> String {
    Obj::new("pressure-begin")
        .num("site", e.site as u64)
        .num("words", e.words)
        .str("space", e.space)
        .num("start_cycles", e.start_cycles)
        .finish()
}

fn pressure_rung_line(e: &PressureRung) -> String {
    Obj::new("pressure-rung")
        .str("rung", e.rung)
        .num("site", e.site as u64)
        .num("words", e.words)
        .str("outcome", e.outcome)
        .num("cycles", e.cycles)
        .finish()
}

fn pressure_end_line(e: &PressureEnd) -> String {
    Obj::new("pressure-end")
        .str("outcome", e.outcome)
        .num("rungs", e.rungs)
        .num("cycles", e.cycles)
        .finish()
}

fn site_promote_line(e: &SitePromote) -> String {
    Obj::new("site-promote")
        .num("collection", e.collection)
        .num("site", e.site as u64)
        .num("survival_permille", e.survival_permille)
        .finish()
}

fn site_demote_line(e: &SiteDemote) -> String {
    Obj::new("site-demote")
        .num("collection", e.collection)
        .num("site", e.site as u64)
        .num("survival_permille", e.survival_permille)
        .str("reason", e.reason)
        .finish()
}

fn census_line(e: &HeapCensus) -> String {
    // The spaces array is an object array like meta's sites, so it is
    // hand-built rather than going through Obj.
    let mut out = String::with_capacity(128 + 64 * e.spaces.len());
    out.push_str("{\"type\":\"heap-census\",\"collection\":");
    out.push_str(&e.collection.to_string());
    out.push_str(",\"pretenured_sites\":");
    out.push_str(&e.pretenured_sites.to_string());
    out.push_str(",\"spaces\":[");
    for (i, s) in e.spaces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"space\":");
        escape_into(&mut out, s.space);
        out.push_str(",\"used_words\":");
        out.push_str(&s.used_words.to_string());
        out.push_str(",\"reserved_words\":");
        out.push_str(&s.reserved_words.to_string());
        out.push_str(",\"chunks\":");
        out.push_str(&s.chunks.to_string());
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn degradation_begin_line(e: &DegradationBegin) -> String {
    Obj::new("degradation-begin")
        .num("collection", e.collection)
        .str("trigger", e.trigger)
        .num("workers", e.workers)
        .num("workers_lost", e.workers_lost)
        .finish()
}

fn degradation_end_line(e: &DegradationEnd) -> String {
    Obj::new("degradation-end")
        .num("collection", e.collection)
        .num("leftover_packets", e.leftover_packets)
        .str("outcome", e.outcome)
        .finish()
}

fn site_line(e: &SiteSample) -> String {
    Obj::new("site-sample")
        .num("collection", e.collection)
        .num("site", e.site as u64)
        .num("allocs", e.allocs)
        .num("alloc_bytes", e.alloc_bytes)
        .num("copied_objects", e.copied_objects)
        .num("copied_bytes", e.copied_bytes)
        .num("survived", e.survived)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::GcPhase;

    #[test]
    fn lines_are_valid_json_with_expected_fields() {
        let events = [
            Event::CollectionBegin(CollectionBegin {
                collection: 1,
                plan: "gen+markers",
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
            Event::SiteSample(SiteSample {
                collection: 1,
                site: 4,
                allocs: 10,
                alloc_bytes: 160,
                copied_objects: 2,
                copied_bytes: 32,
                survived: 2,
            }),
        ];
        for e in &events {
            let v = parse(&event_line(e)).expect("line parses");
            assert!(v.get("type").is_some());
            assert_eq!(v.get("collection").unwrap().as_u64(), Some(1));
        }
        let v = parse(&event_line(&events[1])).unwrap();
        assert_eq!(v.get("phase").unwrap().as_str(), Some("stack-decode"));
        assert_eq!(v.get("cycles").unwrap().as_u64(), Some(77));
    }

    #[test]
    fn site_flip_lines_round_trip() {
        let promote = Event::SitePromote(SitePromote {
            collection: 12,
            site: 7,
            survival_permille: 912,
        });
        let v = parse(&event_line(&promote)).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("site-promote"));
        assert_eq!(v.get("site").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("survival_permille").unwrap().as_u64(), Some(912));

        let demote = Event::SiteDemote(SiteDemote {
            collection: 19,
            site: 7,
            survival_permille: 120,
            reason: "adaptive",
        });
        let v = parse(&event_line(&demote)).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("site-demote"));
        assert_eq!(v.get("reason").unwrap().as_str(), Some("adaptive"));
        assert_eq!(v.get("collection").unwrap().as_u64(), Some(19));
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
        let v = parse(&begin_line(&e)).unwrap();
        assert!(
            v.get("ttsp_cycles").is_none(),
            "a zero distance is omitted from the begin line"
        );
        e.ttsp_cycles = 42;
        let v = parse(&begin_line(&e)).unwrap();
        assert_eq!(v.get("ttsp_cycles").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn degradation_lines_round_trip() {
        let begin = Event::DegradationBegin(DegradationBegin {
            collection: 7,
            trigger: "panic",
            workers: 4,
            workers_lost: 1,
        });
        let v = parse(&event_line(&begin)).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("degradation-begin"));
        assert_eq!(v.get("trigger").unwrap().as_str(), Some("panic"));
        assert_eq!(v.get("workers").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("workers_lost").unwrap().as_u64(), Some(1));

        let end = Event::DegradationEnd(DegradationEnd {
            collection: 7,
            leftover_packets: 3,
            outcome: "drained",
        });
        let v = parse(&event_line(&end)).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("degradation-end"));
        assert_eq!(v.get("leftover_packets").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("drained"));
    }

    #[test]
    fn meta_line_resolves_sites() {
        let line = meta_line(
            "semispace",
            "Life",
            150_000_000,
            &[(0, "unknown".to_string()), (3, "rec\"3".to_string())],
        );
        let v = parse(&line).expect("meta parses");
        assert_eq!(v.get("type").unwrap().as_str(), Some("meta"));
        assert_eq!(v.get("clock_hz").unwrap().as_u64(), Some(150_000_000));
        let sites = v.get("sites").unwrap().as_array().unwrap();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[1].get("name").unwrap().as_str(), Some("rec\"3"));
    }

    #[test]
    fn census_line_round_trips() {
        let e = Event::HeapCensus(HeapCensus {
            collection: 4,
            pretenured_sites: 2,
            spaces: vec![
                crate::SpaceCensus {
                    space: "nursery",
                    used_words: 0,
                    reserved_words: 1024,
                    chunks: 2,
                },
                crate::SpaceCensus {
                    space: "tenured",
                    used_words: 500,
                    reserved_words: 4096,
                    chunks: 8,
                },
            ],
        });
        let v = parse(&event_line(&e)).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("heap-census"));
        assert_eq!(v.get("collection").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("pretenured_sites").unwrap().as_u64(), Some(2));
        let spaces = v.get("spaces").unwrap().as_array().unwrap();
        assert_eq!(spaces.len(), 2);
        assert_eq!(spaces[0].get("space").unwrap().as_str(), Some("nursery"));
        assert_eq!(spaces[1].get("used_words").unwrap().as_u64(), Some(500));
        assert_eq!(spaces[1].get("chunks").unwrap().as_u64(), Some(8));
    }

    #[test]
    fn end_line_carries_histograms() {
        let mut size_hist = Hist::default();
        size_hist.add(16);
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
            size_hist,
            depth_hist: Hist::default(),
            workers: 1,
            worker_copied_bytes: Vec::new(),
        };
        let v = parse(&end_line(&e)).unwrap();
        let hist = v.get("size_hist").unwrap().as_array().unwrap();
        assert_eq!(hist.len(), crate::HIST_BUCKETS);
        assert_eq!(hist[5].as_u64(), Some(1), "16 lands in [16,32)");
        assert!(
            v.get("workers").is_none(),
            "serial end line carries no worker fields"
        );

        let mut par = e.clone();
        par.workers = 2;
        par.worker_copied_bytes = vec![48, 16];
        let v = parse(&end_line(&par)).unwrap();
        assert_eq!(v.get("workers").unwrap().as_u64(), Some(2));
        let per = v.get("worker_copied_bytes").unwrap().as_array().unwrap();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].as_u64(), Some(48));
    }
}
