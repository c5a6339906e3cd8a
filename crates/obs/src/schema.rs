//! The identities of a telemetry stream — what must hold *between*
//! fields and *between* lines, over decoded [`Event`]s. Whether a line
//! is well-formed at all (keys, types, vocabulary, optional-field
//! encoding, `meta` first) is [`crate::jsonl`]'s decoder; this module
//! keeps only what is not syntax, so the same checks run on a replayed
//! document ([`validate_jsonl`], one parse per line) and on a live
//! stream that was never rendered ([`check_stream`]). Used by
//! `experiments gc-log --validate`, `slo-report --validate` and CI.

use crate::{jsonl, CollectionEnd, Event};

/// Checks the identities one collection's record holds on its own:
///
/// * **reuse bound (§5)** — the claimed cached prefix never exceeds the
///   simulation oracle's true unchanged prefix, the `min(M, deepest
///   intact marker)` bound;
/// * **frame accounting** — frames scanned plus frames reused equals the
///   stack depth at the collection point;
/// * **copy/scan accounting** — every copied word is charged as
///   scanned (a copy with a pointer field when the drain scans it, a
///   pointer-free one in the drain's closing count), so
///   `scanned_words × 8 ≥ copied_bytes`.
///
/// The one statement of them: [`check_event`] runs it on a replayed or
/// live stream, and `tilgc-core`'s verifier on the record a plan keeps.
pub fn check_collection_end(e: &CollectionEnd) -> Result<(), String> {
    let c = e.collection;
    if e.claimed_prefix > e.oracle_prefix {
        return Err(format!(
            "reuse bound violated at collection {c}: claimed prefix {} exceeds oracle prefix {}",
            e.claimed_prefix, e.oracle_prefix
        ));
    }
    if e.frames_scanned + e.frames_reused != e.depth {
        return Err(format!(
            "frame accounting broken at collection {c}: {} scanned + {} reused != depth {}",
            e.frames_scanned, e.frames_reused, e.depth
        ));
    }
    if e.scanned_words * 8 < e.copied_bytes {
        return Err(format!(
            "copy/scan accounting broken at collection {c}: {} words scanned < {} bytes copied",
            e.scanned_words, e.copied_bytes
        ));
    }
    Ok(())
}

/// Checks the identities one event must satisfy on its own: a
/// collection's record identities ([`check_collection_end`]) and census
/// rows that fit their reservation.
pub fn check_event(event: &Event) -> Result<(), String> {
    match event {
        Event::CollectionEnd(e) => check_collection_end(e)?,
        Event::HeapCensus(c) => {
            if c.spaces.is_empty() {
                return Err("heap-census: spaces array is empty".to_string());
            }
            if let Some(s) = c.spaces.iter().find(|s| s.used_words > s.reserved_words) {
                return Err(format!(
                    "heap-census: {} used_words {} exceeds reserved_words {}",
                    s.space, s.used_words, s.reserved_words
                ));
            }
        }
        _ => {}
    }
    Ok(())
}

/// An open heap-pressure episode: rungs taken and cycles charged so far.
#[derive(Debug, Default)]
struct Episode {
    rungs: u64,
    cycles: u64,
}

/// The stream-level state machine, fed one [`Event`] at a time.
///
/// Collections are properly bracketed (begin before end, strictly
/// increasing, never nested), per-collection phase cycles sum exactly
/// to the reported `gc_cycles`, and so does the bracket: an end's
/// `end_cycles` minus its begin's `start_cycles` is its `gc_cycles`
/// (client cycles do not advance during a collection).
///
/// Pressure episodes are bracketed too: a `pressure-begin` opens an
/// episode on the allocation path (so it cannot appear inside a
/// collection span, though collections triggered by the ladder may nest
/// *inside* the episode), `pressure-rung` lines may only appear inside
/// an open episode, and the closing `pressure-end` must report exactly
/// the number of rungs taken and the sum of their cycle charges.
///
/// Censuses sit *outside* any collection span and reference the
/// collection that just ended.
#[derive(Debug, Default)]
pub struct Checker {
    /// The open collection and its begin's `start_cycles`.
    open: Option<(u64, u64)>,
    last_ended: u64,
    phase_sum: u64,
    pressure: Option<Episode>,
}

impl Checker {
    /// Checks `event` on its own ([`check_event`]) and against the
    /// stream so far.
    pub fn event(&mut self, event: &Event) -> Result<(), String> {
        check_event(event)?;
        let in_collection = self.open.is_some();
        match event {
            Event::CollectionBegin(b) => {
                let c = b.collection;
                if in_collection {
                    return Err(format!("nested collection {c}"));
                }
                if c <= self.last_ended {
                    return Err(format!("collection {c} out of order"));
                }
                self.open = Some((c, b.start_cycles));
                self.phase_sum = 0;
            }
            Event::Phase(p) => {
                if self.open.map(|(c, _)| c) != Some(p.collection) {
                    return Err(format!("phase outside collection {}", p.collection));
                }
                self.phase_sum += p.cycles;
            }
            Event::CollectionEnd(e) => {
                let Some((c, start)) = self.open.filter(|&(c, _)| c == e.collection) else {
                    return Err(format!("end without begin for {}", e.collection));
                };
                if self.phase_sum != e.gc_cycles {
                    return Err(format!(
                        "phase cycles {} != gc_cycles {}",
                        self.phase_sum, e.gc_cycles
                    ));
                }
                if e.end_cycles.checked_sub(start) != Some(e.gc_cycles) {
                    return Err(format!(
                        "collection {c} brackets {start}..{} but gc_cycles is {}",
                        e.end_cycles, e.gc_cycles
                    ));
                }
                self.open = None;
                self.last_ended = e.collection;
            }
            Event::HeapCensus(c) => {
                if in_collection {
                    return Err("census inside a collection span".to_string());
                }
                self.names_last_ended("census", c.collection)?;
            }
            Event::PressureBegin(_) => {
                if self.pressure.is_some() {
                    return Err("nested pressure episode".to_string());
                }
                if in_collection {
                    return Err("pressure episode opened inside a collection".to_string());
                }
                self.pressure = Some(Episode::default());
            }
            Event::PressureRung(r) => {
                let Some(episode) = &mut self.pressure else {
                    return Err("rung outside a pressure episode".to_string());
                };
                if in_collection {
                    return Err("rung inside a collection span".to_string());
                }
                episode.rungs += 1;
                episode.cycles += r.cycles;
            }
            Event::PressureEnd(end) => {
                let Some(episode) = self.pressure.take() else {
                    return Err("pressure end without begin".to_string());
                };
                if in_collection {
                    return Err("pressure episode ended inside a collection".to_string());
                }
                if end.cycles != episode.cycles {
                    return Err(format!(
                        "episode cycles {} != rung sum {}",
                        end.cycles, episode.cycles
                    ));
                }
                if end.rungs != episode.rungs {
                    return Err(format!(
                        "episode rungs {} != rung count {}",
                        end.rungs, episode.rungs
                    ));
                }
            }
        }
        Ok(())
    }

    fn names_last_ended(&self, what: &str, collection: u64) -> Result<(), String> {
        if collection == self.last_ended {
            return Ok(());
        }
        Err(format!(
            "{what} for collection {collection} but last ended is {}",
            self.last_ended
        ))
    }

    /// Checks that the stream ended with nothing left open.
    pub fn finish(&self) -> Result<(), String> {
        if let Some((c, _)) = self.open {
            return Err(format!("collection {c} never ended"));
        }
        if self.pressure.is_some() {
            return Err("pressure episode never ended".to_string());
        }
        Ok(())
    }
}

/// Runs every check on a live event stream, without rendering and
/// re-parsing it; errors name the offending event's index.
pub fn check_stream(events: &[Event]) -> Result<(), String> {
    let mut checker = Checker::default();
    for (i, e) in events.iter().enumerate() {
        checker
            .event(e)
            .map_err(|err| format!("event {i}: {err}"))?;
    }
    checker.finish()
}

/// Validates a whole JSONL document — decode, then check: every line
/// must decode ([`jsonl::read_doc`]: `meta` first and only first) and
/// the decoded events must pass the [`Checker`]. Returns the number of
/// lines.
pub fn validate_jsonl(doc: &str) -> Result<usize, String> {
    let mut checker = Checker::default();
    let (_, lines) = jsonl::read_doc(doc, |e| checker.event(&e))?;
    checker.finish()?;
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::Line;

    /// "A line is valid": it decodes, and what it decodes to passes
    /// [`check_event`].
    fn validate_line(line: &str) -> Result<(), String> {
        match jsonl::parse_line(line)? {
            Line::Meta(_) => Ok(()),
            Line::Event(e) => check_event(&e),
        }
    }

    /// The meta line every document fixture starts with.
    fn meta() -> String {
        jsonl::meta_line("gen+markers", "b", 1, &[]) + "\n"
    }

    #[test]
    fn accepts_documented_lines() {
        let lines = [
            r#"{"type":"meta","schema_version":2,"plan":"semispace","bench":"Life","clock_hz":150000000,"sites":[{"id":0,"name":"unknown"}]}"#,
            r#"{"type":"collection-begin","collection":1,"plan":"semispace","reason":"forced","major":true,"depth":0,"start_cycles":10}"#,
            r#"{"type":"phase","collection":1,"phase":"cheney-copy","cycles":5,"wall_ns":10}"#,
            r#"{"type":"pressure-begin","site":4,"words":18,"space":"nursery","start_cycles":900}"#,
            r#"{"type":"pressure-rung","rung":"retry-major","site":4,"words":18,"outcome":"recovered","cycles":20}"#,
            r#"{"type":"pressure-end","outcome":"recovered","rungs":1,"cycles":20}"#,
            r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[{"space":"nursery","used_words":0,"reserved_words":1024,"chunks":2},{"space":"tenured","used_words":12,"reserved_words":2048,"chunks":4}]}"#,
            r#"{"type":"collection-begin","collection":2,"plan":"semispace","reason":"alloc-failure","major":false,"depth":1,"start_cycles":99,"ttsp_cycles":12}"#,
        ];
        for line in lines {
            validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn rejects_bad_lines() {
        // Each bad line with the reason it must be refused for.
        let bad = [
            ("at byte 1", "{oops"),
            ("unknown event type \"mystery\"", r#"{"type":"mystery"}"#),
            (
                "unknown phase \"mark-sweep\"",
                r#"{"type":"phase","collection":1,"phase":"mark-sweep","cycles":1,"wall_ns":0}"#,
            ),
            (
                "unknown plan \"marksweep\"",
                r#"{"type":"collection-begin","collection":1,"plan":"marksweep","reason":"forced","major":false,"depth":0,"start_cycles":0}"#,
            ),
            (
                "missing field \"schema_version\"",
                r#"{"type":"meta","plan":"semispace","bench":"Life","clock_hz":1,"sites":[]}"#,
            ),
            (
                "unknown reason \"bored\"",
                r#"{"type":"collection-begin","collection":1,"plan":"semispace","reason":"bored","major":false,"depth":0,"start_cycles":0}"#,
            ),
            (
                "phase: unknown field \"bogus\"",
                r#"{"type":"phase","collection":1,"phase":"setup","cycles":1,"wall_ns":0,"bogus":1}"#,
            ),
            (
                "missing field \"wall_ns\"",
                r#"{"type":"phase","collection":1,"phase":"setup","cycles":1}"#,
            ),
            (
                "unknown rung \"pray\"",
                r#"{"type":"pressure-rung","rung":"pray","site":0,"words":1,"outcome":"recovered","cycles":1}"#,
            ),
            (
                "unknown space \"attic\"",
                r#"{"type":"pressure-begin","site":0,"words":1,"space":"attic","start_cycles":0}"#,
            ),
            (
                "unknown outcome \"shrug\"",
                r#"{"type":"pressure-end","outcome":"shrug","rungs":1,"cycles":1}"#,
            ),
            (
                "\"site\" is not a 16-bit site id",
                r#"{"type":"pressure-begin","site":70000,"words":1,"space":"nursery","start_cycles":0}"#,
            ),
            (
                "unknown space \"attic\" (expected one of [\"semispace\"",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[{"space":"attic","used_words":0,"reserved_words":1,"chunks":0}]}"#,
            ),
            (
                "spaces array is empty",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[]}"#,
            ),
            (
                "nursery used_words 9 exceeds reserved_words 8",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[{"space":"nursery","used_words":9,"reserved_words":8,"chunks":1}]}"#,
            ),
            (
                "heap-census: unknown field \"bogus\"",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"bogus":1,"spaces":[{"space":"nursery","used_words":0,"reserved_words":8,"chunks":1}]}"#,
            ),
            (
                "missing field \"chunks\"",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[{"space":"nursery","used_words":0,"reserved_words":8}]}"#,
            ),
            (
                "ttsp_cycles is 0, below 1",
                r#"{"type":"collection-begin","collection":1,"plan":"semispace","reason":"forced","major":false,"depth":0,"start_cycles":0,"ttsp_cycles":0}"#,
            ),
            (
                "reuse bound violated at collection 1: claimed prefix 2 exceeds oracle prefix 1",
                r#"{"type":"collection-end","collection":1,"major":false,"depth":3,"claimed_prefix":2,"oracle_prefix":1,"copied_bytes":0,"scanned_words":0,"frames_scanned":1,"frames_reused":2,"pretenured_scanned_words":0,"roots_found":0,"slots_scanned":0,"barrier_entries":0,"markers_placed":0,"gc_cycles":5,"end_cycles":5,"live_bytes_after":0,"wall_ns":0,"chunks_owned":0,"side_cleared_words":0}"#,
            ),
            (
                "frame accounting broken at collection 1: 1 scanned + 1 reused != depth 3",
                r#"{"type":"collection-end","collection":1,"major":false,"depth":3,"claimed_prefix":1,"oracle_prefix":1,"copied_bytes":0,"scanned_words":0,"frames_scanned":1,"frames_reused":1,"pretenured_scanned_words":0,"roots_found":0,"slots_scanned":0,"barrier_entries":0,"markers_placed":0,"gc_cycles":5,"end_cycles":5,"live_bytes_after":0,"wall_ns":0,"chunks_owned":0,"side_cleared_words":0}"#,
            ),
            (
                "copy/scan accounting broken at collection 1: 7 words scanned < 64 bytes copied",
                r#"{"type":"collection-end","collection":1,"major":false,"depth":0,"claimed_prefix":0,"oracle_prefix":0,"copied_bytes":64,"scanned_words":7,"frames_scanned":0,"frames_reused":0,"pretenured_scanned_words":0,"roots_found":0,"slots_scanned":0,"barrier_entries":0,"markers_placed":0,"gc_cycles":5,"end_cycles":5,"live_bytes_after":0,"wall_ns":0,"chunks_owned":0,"side_cleared_words":0}"#,
            ),
            (
                "collection-end: unknown field \"workers\"",
                r#"{"type":"collection-end","collection":1,"major":false,"depth":0,"claimed_prefix":0,"oracle_prefix":0,"copied_bytes":64,"scanned_words":8,"pretenured_scanned_words":0,"roots_found":0,"frames_scanned":0,"frames_reused":0,"slots_scanned":0,"barrier_entries":0,"markers_placed":0,"gc_cycles":5,"end_cycles":5,"live_bytes_after":0,"wall_ns":0,"chunks_owned":0,"side_cleared_words":0,"workers":2,"worker_copied_bytes":[48,16]}"#,
            ),
            // Schema 1: its meta line, and its end line's two histograms.
            (
                "schema_version 1 is not the supported version 2",
                r#"{"type":"meta","schema_version":1,"plan":"semispace","bench":"Life","clock_hz":1,"sites":[]}"#,
            ),
            (
                "collection-end: unknown field \"size_hist\"",
                r#"{"type":"collection-end","collection":1,"major":false,"depth":0,"claimed_prefix":0,"oracle_prefix":0,"copied_bytes":0,"scanned_words":0,"pretenured_scanned_words":0,"roots_found":0,"frames_scanned":0,"frames_reused":0,"slots_scanned":0,"barrier_entries":0,"markers_placed":0,"gc_cycles":5,"end_cycles":5,"live_bytes_after":0,"wall_ns":0,"chunks_owned":0,"side_cleared_words":0,"size_hist":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"depth_hist":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}"#,
            ),
        ];
        for (why, line) in bad {
            let err = validate_line(line).expect_err(line);
            assert!(err.contains(why), "{line}: {err}");
        }
    }

    #[test]
    fn jsonl_document_checks_bracketing_and_phase_sums() {
        let ok = meta() + "\
{\"type\":\"collection-begin\",\"collection\":1,\"plan\":\"generational\",\"reason\":\"forced\",\"major\":false,\"depth\":0,\"start_cycles\":0}\n\
{\"type\":\"phase\",\"collection\":1,\"phase\":\"setup\",\"cycles\":2,\"wall_ns\":0}\n\
{\"type\":\"phase\",\"collection\":1,\"phase\":\"cheney-copy\",\"cycles\":3,\"wall_ns\":0}\n\
{\"type\":\"collection-end\",\"collection\":1,\"major\":false,\"depth\":0,\"claimed_prefix\":0,\"oracle_prefix\":0,\"copied_bytes\":0,\"scanned_words\":0,\"pretenured_scanned_words\":0,\"roots_found\":0,\"frames_scanned\":0,\"frames_reused\":0,\"slots_scanned\":0,\"barrier_entries\":0,\"markers_placed\":0,\"gc_cycles\":5,\"end_cycles\":5,\"live_bytes_after\":0,\"wall_ns\":0,\"chunks_owned\":0,\"side_cleared_words\":0}\n";
        assert_eq!(validate_jsonl(&ok).unwrap(), 5);
        let mismatched = ok.replace("\"gc_cycles\":5", "\"gc_cycles\":6");
        assert!(validate_jsonl(&mismatched)
            .unwrap_err()
            .contains("phase cycles"));
        let wide_bracket = ok.replace("\"end_cycles\":5", "\"end_cycles\":7");
        assert!(validate_jsonl(&wide_bracket)
            .unwrap_err()
            .contains("collection 1 brackets 0..7 but gc_cycles is 5"));
        let unclosed = ok.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(validate_jsonl(&unclosed)
            .unwrap_err()
            .contains("never ended"));
    }

    #[test]
    fn jsonl_document_checks_census_placement() {
        let meta = meta();
        let gc_begin = "{\"type\":\"collection-begin\",\"collection\":1,\"plan\":\"generational\",\"reason\":\"forced\",\"major\":false,\"depth\":0,\"start_cycles\":0}\n";
        let gc_phase = "{\"type\":\"phase\",\"collection\":1,\"phase\":\"setup\",\"cycles\":5,\"wall_ns\":0}\n";
        let gc_end = "{\"type\":\"collection-end\",\"collection\":1,\"major\":false,\"depth\":0,\"claimed_prefix\":0,\"oracle_prefix\":0,\"copied_bytes\":0,\"scanned_words\":0,\"pretenured_scanned_words\":0,\"roots_found\":0,\"frames_scanned\":0,\"frames_reused\":0,\"slots_scanned\":0,\"barrier_entries\":0,\"markers_placed\":0,\"gc_cycles\":5,\"end_cycles\":5,\"live_bytes_after\":0,\"wall_ns\":0,\"chunks_owned\":0,\"side_cleared_words\":0}\n";
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
    fn jsonl_document_checks_pressure_bracketing() {
        let meta = meta();
        let begin = "{\"type\":\"pressure-begin\",\"site\":1,\"words\":8,\"space\":\"tenured\",\"start_cycles\":0}\n";
        let rung = "{\"type\":\"pressure-rung\",\"rung\":\"retry-major\",\"site\":1,\"words\":8,\"outcome\":\"escalated\",\"cycles\":20}\n";
        let rung2 = "{\"type\":\"pressure-rung\",\"rung\":\"rebalance\",\"site\":1,\"words\":8,\"outcome\":\"recovered\",\"cycles\":200}\n";
        let end =
            "{\"type\":\"pressure-end\",\"outcome\":\"recovered\",\"rungs\":2,\"cycles\":220}\n";
        let ok = format!("{meta}{begin}{rung}{rung2}{end}");
        assert_eq!(validate_jsonl(&ok).unwrap(), 5);

        // A collection triggered by the ladder nests inside the episode.
        let gc_begin = "{\"type\":\"collection-begin\",\"collection\":1,\"plan\":\"generational\",\"reason\":\"alloc-failure\",\"major\":true,\"depth\":0,\"start_cycles\":0}\n";
        let gc_phase = "{\"type\":\"phase\",\"collection\":1,\"phase\":\"setup\",\"cycles\":5,\"wall_ns\":0}\n";
        let gc_end = "{\"type\":\"collection-end\",\"collection\":1,\"major\":true,\"depth\":0,\"claimed_prefix\":0,\"oracle_prefix\":0,\"copied_bytes\":0,\"scanned_words\":0,\"pretenured_scanned_words\":0,\"roots_found\":0,\"frames_scanned\":0,\"frames_reused\":0,\"slots_scanned\":0,\"barrier_entries\":0,\"markers_placed\":0,\"gc_cycles\":5,\"end_cycles\":5,\"live_bytes_after\":0,\"wall_ns\":0,\"chunks_owned\":0,\"side_cleared_words\":0}\n";
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

    /// The three document shapes the hand validator let through: each
    /// was `Ok` before the decoder owned the "`meta` first, and only
    /// first" rule.
    #[test]
    fn jsonl_document_has_exactly_one_leading_meta() {
        let meta = meta();
        // A whole pressure episode: two lines that pass on their own.
        let episode = "{\"type\":\"pressure-begin\",\"site\":2,\"words\":3,\"space\":\"nursery\",\"start_cycles\":0}\n\
{\"type\":\"pressure-end\",\"outcome\":\"recovered\",\"rungs\":0,\"cycles\":0}\n";
        assert_eq!(validate_jsonl(&format!("{meta}\n{episode}")).unwrap(), 3);

        let late_meta = format!("{meta}{episode}{meta}{episode}");
        assert!(validate_jsonl(&late_meta)
            .unwrap_err()
            .contains("line 4: a second meta line"));
        let blank_then_no_meta = format!("\n{episode}{episode}");
        assert!(validate_jsonl(&blank_then_no_meta)
            .unwrap_err()
            .contains("line 2: expected meta line"));
        assert!(validate_jsonl("\n\n")
            .unwrap_err()
            .contains("empty document"));

        let future = meta.replace("\"schema_version\":2", "\"schema_version\":3");
        let err = validate_jsonl(&format!("{future}{episode}")).unwrap_err();
        assert!(
            err.contains("schema_version 3") && err.contains("version 2"),
            "{err}"
        );
    }

    /// A live stream is checked by the same state machine, with no
    /// document in between.
    #[test]
    fn check_stream_agrees_with_the_document_validator() {
        let phase = |collection, cycles| {
            Event::Phase(crate::PhaseSpan {
                collection,
                phase: crate::GcPhase::Setup,
                cycles,
                wall_ns: 0,
            })
        };
        let begin = Event::CollectionBegin(crate::CollectionBegin {
            collection: 1,
            plan: "semispace",
            reason: "forced",
            major: true,
            depth: 0,
            start_cycles: 0,
            ttsp_cycles: 0,
        });
        let open = [begin.clone(), phase(1, 5)];
        assert!(check_stream(&open).unwrap_err().contains("never ended"));
        let stray = [begin, phase(2, 5)];
        let live = check_stream(&stray).unwrap_err();
        assert!(
            live.contains("event 1: phase outside collection 2"),
            "{live}"
        );
        let doc = jsonl::render("semispace", "b", 1, &[], &stray);
        let replayed = validate_jsonl(&doc).unwrap_err();
        assert!(replayed.contains("line 3: phase outside collection 2"));
    }
}
