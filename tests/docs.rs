//! The prose is checked like the code (ROADMAP item 6(a)).
//!
//! README.md, DESIGN.md and EXPERIMENTS.md describe the tree as it is,
//! so what they quote must resolve against it: every `crates/….rs` path
//! exists, every `crate::module::item` names things the crate has, every
//! `experiments` subcommand and `--flag` is one a binary in the tree
//! parses (cargo's own flags are allow-listed), the quoted
//! test and option counts are the real ones, and DESIGN.md's *Event
//! schema* table lists exactly the line types and keys the codec emits.
//!
//! History is exempt: a section whose heading says *Retired* or carries
//! a PR number (EXPERIMENTS.md's dated sections), and DESIGN.md's *What
//! went* table, may name things that are gone.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use tilgc_obs::json::{self, Value};
use tilgc_obs::jsonl;
use tilgc_obs::{
    CollectionBegin, CollectionEnd, Event, GcPhase, HeapCensus, PhaseSpan, PressureBegin,
    PressureEnd, PressureRung, SpaceCensus,
};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Flags the docs quote that are cargo's own rather than a binary's in
/// this tree.
const FOREIGN_FLAGS: [&str; 3] = ["--release", "--workspace", "--example"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: impl AsRef<Path>) -> String {
    let path = root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// One line of a doc that describes the present.
struct Line<'a> {
    doc: &'static str,
    number: usize,
    text: &'a str,
    /// Inside a ``` fence: the whole line is code.
    fenced: bool,
}

impl Line<'_> {
    /// The code on the line: all of it inside a fence, else its
    /// backtick spans.
    fn code(&self) -> Vec<&str> {
        if self.fenced {
            return vec![self.text];
        }
        self.text.split('`').skip(1).step_by(2).collect()
    }

    fn at(&self) -> String {
        format!("{}:{}", self.doc, self.number)
    }
}

fn is_history(heading: &str) -> bool {
    let dated = heading
        .match_indices("PR ")
        .any(|(i, _)| heading[i + 3..].starts_with(|c: char| c.is_ascii_digit()));
    dated || heading.contains("Retired")
}

/// The lines of `text` outside history sections (see the module doc).
fn current_lines<'a>(doc: &'static str, text: &'a str) -> Vec<Line<'a>> {
    let mut out = Vec::new();
    let mut fenced = false;
    // Heading level of the history section being skipped, if any; 7 is
    // below every heading, for a skipped bold-titled block.
    let mut skipping: Option<usize> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced && line.starts_with('#') {
            let level = line.bytes().take_while(|&b| b == b'#').count();
            if skipping.is_some_and(|l| level <= l) {
                skipping = None;
            }
            if skipping.is_none() && is_history(line) {
                skipping = Some(level);
            }
        } else if !fenced && line.starts_with("**What ") {
            skipping = line.starts_with("**What went**").then_some(7);
        }
        if skipping.is_none() {
            out.push(Line {
                doc,
                number: i + 1,
                text: line,
                fenced,
            });
        }
    }
    out
}

fn for_each_current_line(mut f: impl FnMut(&Line)) {
    for doc in DOCS {
        let text = read(doc);
        current_lines(doc, &text).iter().for_each(&mut f);
    }
}

/// `crates/obs/src/{jsonl,schema}.rs` → both paths; anything else → itself.
fn expand_braces(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(a), Some(b)) if a < b => path[a + 1..b]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &path[..a], &path[b + 1..]))
            .collect(),
        _ => vec![path.to_string()],
    }
}

#[test]
fn quoted_paths_exist() {
    let mut missing = Vec::new();
    for_each_current_line(|line| {
        for (i, _) in line.text.match_indices("crates/") {
            let boundary = line.text[..i].chars().next_back();
            if boundary.is_some_and(|c| c.is_alphanumeric() || c == '/' || c == '-') {
                continue; // the tail of a longer path or URL
            }
            let token: &str = line.text[i..]
                .split(|c: char| !(c.is_ascii_alphanumeric() || "_./{},-".contains(c)))
                .next()
                .expect("split yields at least one piece");
            for path in expand_braces(token.trim_end_matches(['.', ',', '/'])) {
                if !root().join(&path).exists() {
                    missing.push(format!("{}: {path}", line.at()));
                }
            }
        }
    });
    assert!(missing.is_empty(), "paths that do not exist:\n{missing:#?}");
}

/// `obs::jsonl::parse_line`-style paths, rooted at a workspace crate:
/// every segment after the crate is one of its module files or an
/// identifier its sources contain.
#[test]
fn quoted_item_paths_name_things_the_crate_has() {
    let mut idents: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for entry in std::fs::read_dir(root().join("crates")).expect("crates/") {
        let dir = entry.expect("directory entry").path();
        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files);
        let words = idents
            .entry(dir.file_name().unwrap().to_string_lossy().into_owned())
            .or_default();
        for path in files {
            words.insert(path.file_stem().unwrap().to_string_lossy().into_owned());
            let text = std::fs::read_to_string(&path).expect("readable source");
            let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
            words.extend(text.split(|c| !is_ident(c)).map(str::to_string));
        }
    }
    let mut unknown = Vec::new();
    for_each_current_line(|line| {
        let is_path = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
        for token in line
            .code()
            .iter()
            .flat_map(|code| code.split(|c| !is_path(c)))
        {
            let mut segments = token.split("::");
            let krate = segments.next().unwrap_or_default();
            let Some(words) = idents.get(krate.trim_start_matches("tilgc_")) else {
                continue;
            };
            if let Some(gone) = segments.find(|s| !s.is_empty() && !words.contains(*s)) {
                unknown.push(format!("{}: {token} ({gone})", line.at()));
            }
        }
    });
    assert!(unknown.is_empty(), "items that do not exist:\n{unknown:#?}");
}

/// The words following each `needle` in `code` that look like a
/// subcommand (lowercase first letter; `table1..table7` reads `table1`).
fn words_after<'a>(code: &'a str, needle: &str) -> Vec<&'a str> {
    let is_name = |c: char| c.is_ascii_alphanumeric() || c == '-';
    code.match_indices(needle)
        .filter_map(|(i, _)| code[i + needle.len()..].split(|c| !is_name(c)).next())
        .filter(|w| w.starts_with(|c: char| c.is_ascii_lowercase()))
        .collect()
}

#[test]
fn quoted_subcommands_and_flags_are_parsed_by_a_binary() {
    let experiments = read("crates/experiments/src/main.rs");
    let parsers = [
        experiments.clone(),
        read("crates/torture/src/main.rs"),
        read("benchmark/src/main.rs"),
    ];
    let mut unknown = Vec::new();
    for_each_current_line(|line| {
        for code in line.code() {
            // `cargo run -p tilgc-experiments -- <subcommand>` as well as
            // `experiments <subcommand>`.
            let subcommands = words_after(code, "experiments -- ")
                .into_iter()
                .chain(words_after(code, "experiments "));
            for sub in subcommands {
                if !experiments.contains(&format!("\"{sub}\"")) {
                    unknown.push(format!("{}: experiments {sub}", line.at()));
                }
            }
            for word in code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                let is_flag = word.len() > 2
                    && word.starts_with("--")
                    && word[2..].starts_with(|c: char| c.is_ascii_lowercase());
                let literal = format!("\"{word}\"");
                if is_flag
                    && !FOREIGN_FLAGS.contains(&word)
                    && !parsers.iter().any(|p| p.contains(&literal))
                {
                    unknown.push(format!("{}: {word}", line.at()));
                }
            }
        }
    });
    assert!(unknown.is_empty(), "nothing parses:\n{unknown:#?}");
}

/// What `cargo test` runs: `#[test]` functions (the ignored one
/// included) plus doctests — doc-comment code fences that are Rust.
fn real_test_count() -> usize {
    let mut files = Vec::new();
    for dir in ["src", "tests", "crates"] {
        rust_files(&root().join(dir), &mut files);
    }
    let mut count = 0;
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable source");
        count += text.lines().filter(|l| l.trim() == "#[test]").count();
        // Integration tests and binaries are not doc-tested.
        let in_lib = path.components().any(|c| c.as_os_str() == "src")
            && path.file_name().is_some_and(|f| f != "main.rs");
        if !in_lib {
            continue;
        }
        let mut open = false;
        for line in text.lines().map(str::trim_start) {
            let Some(doc) = line.strip_prefix("///").or(line.strip_prefix("//!")) else {
                continue;
            };
            if let Some(info) = doc.trim_start().strip_prefix("```") {
                open = !open;
                let rust = info
                    .split(',')
                    .all(|tag| ["", "rust", "no_run", "should_panic"].contains(&tag.trim()));
                count += usize::from(open && rust);
            }
        }
    }
    count
}

/// Field names of `pub struct <name> { … }` in `source`.
fn struct_fields(source: &str, name: &str) -> Vec<String> {
    let start = source
        .find(&format!("pub struct {name} {{"))
        .unwrap_or_else(|| panic!("no struct {name}"));
    source[start..]
        .lines()
        .skip(1)
        .take_while(|l| !l.starts_with('}'))
        .map(str::trim)
        .filter(|l| !l.starts_with("//") && !l.starts_with('#'))
        .filter_map(|l| l.trim_start_matches("pub ").split_once(": "))
        .map(|(field, _)| field.to_string())
        .collect()
}

/// The integer `text` ends with, if it ends with one.
fn trailing_number(text: &str) -> Option<usize> {
    let start = text.trim_end_matches(|c: char| c.is_ascii_digit()).len();
    text[start..].parse().ok()
}

/// Every integer written in `text`, digit runs only.
fn numbers(text: &str) -> Vec<usize> {
    text.split(|c: char| !c.is_ascii_digit())
        .filter_map(|n| n.parse().ok())
        .collect()
}

#[test]
fn quoted_counts_are_the_real_ones() {
    let tests = real_test_count();
    let mut quoted = 0;
    for_each_current_line(|line| {
        for (i, _) in line.text.match_indices(" tests") {
            // A workspace-sized count, not "the 20 tests of …".
            if let Some(n) = trailing_number(&line.text[..i]).filter(|&n| n >= 100) {
                assert_eq!(n, tests, "{}: quoted test count", line.at());
                quoted += 1;
            }
        }
    });
    assert!(quoted >= 2, "README and EXPERIMENTS quote the test count");

    let config = read("crates/core/src/config.rs");
    let settable = struct_fields(&config, "GcConfig").len();
    let design = read("DESIGN.md");
    let stays = design
        .lines()
        .find(|l| l.starts_with("**What stays**"))
        .expect("DESIGN.md has the *What stays* table");
    assert_eq!(numbers(stays), [settable], "{stays}");
}

/// One event of every kind, optional fields present, so every key the
/// writer can emit appears. The `match` has no wildcard: a new `Event`
/// variant fails to compile here until it has a sample (and a row in
/// DESIGN.md).
fn sample_events() -> Vec<Event> {
    let samples = vec![
        Event::CollectionBegin(CollectionBegin {
            collection: 1,
            plan: "generational",
            reason: "forced",
            major: false,
            depth: 1,
            start_cycles: 1,
            ttsp_cycles: 1,
        }),
        Event::Phase(PhaseSpan {
            collection: 1,
            phase: GcPhase::Setup,
            cycles: 1,
            wall_ns: 1,
        }),
        Event::CollectionEnd(Box::new(CollectionEnd {
            collection: 1,
            major: false,
            depth: 1,
            claimed_prefix: 0,
            oracle_prefix: 0,
            copied_bytes: 2,
            scanned_words: 1,
            pretenured_scanned_words: 0,
            roots_found: 0,
            frames_scanned: 1,
            frames_reused: 0,
            slots_scanned: 0,
            barrier_entries: 0,
            markers_placed: 0,
            gc_cycles: 1,
            end_cycles: 2,
            live_bytes_after: 0,
            wall_ns: 1,
            workers: 1,
            worker_copied_bytes: Vec::new(),
            chunks_owned: 1,
            side_cleared_words: 0,
        })),
        Event::PressureBegin(PressureBegin {
            site: 1,
            words: 2,
            space: "nursery",
            start_cycles: 3,
        }),
        Event::PressureRung(PressureRung {
            rung: "retry-minor",
            site: 1,
            words: 2,
            outcome: "recovered",
            cycles: 1,
        }),
        Event::PressureEnd(PressureEnd {
            outcome: "recovered",
            rungs: 1,
            cycles: 1,
        }),
        Event::HeapCensus(HeapCensus {
            collection: 1,
            pretenured_sites: 0,
            spaces: vec![SpaceCensus {
                space: "nursery",
                used_words: 0,
                reserved_words: 8,
                chunks: 1,
            }],
        }),
    ];
    let kinds: BTreeSet<usize> = samples
        .iter()
        .map(|e| match e {
            Event::CollectionBegin(_) => 0,
            Event::Phase(_) => 1,
            Event::CollectionEnd(_) => 2,
            Event::PressureBegin(_) => 3,
            Event::PressureRung(_) => 4,
            Event::PressureEnd(_) => 5,
            Event::HeapCensus(_) => 6,
        })
        .collect();
    assert_eq!(kinds.len(), 7, "one sample per event kind");
    samples
}

/// `(type, keys in emission order)` of a rendered line, with the keys of
/// object-array elements spelled `array[].key`.
fn keys_of(line: &str) -> (String, Vec<String>) {
    let parsed = json::parse(line).expect("the writer emits JSON");
    let mut kind = String::new();
    let mut keys = Vec::new();
    for (key, value) in parsed.as_object().expect("a line is an object") {
        match value {
            Value::String(s) if key == "type" => kind = s.clone(),
            Value::Array(items) if items.iter().any(|i| i.as_object().is_some()) => {
                let row = items[0].as_object().expect("a row is an object");
                keys.extend(row.iter().map(|(k, _)| format!("{key}[].{k}")));
            }
            _ => keys.push(key.clone()),
        }
    }
    (kind, keys)
}

#[test]
fn event_schema_table_is_what_the_codec_emits() {
    let sites = [(1, "site".to_string())];
    let mut emitted = vec![keys_of(&jsonl::meta_line("plan", "bench", 1, &sites))];
    for e in sample_events() {
        let line = jsonl::event_line(&e);
        assert!(jsonl::parse_line(&line).is_ok(), "sample decodes: {line}");
        emitted.push(keys_of(&line));
    }

    let design = read("DESIGN.md");
    let section = design
        .split("### Event schema")
        .nth(1)
        .and_then(|rest| rest.split("\n#").next())
        .expect("DESIGN.md has an *Event schema* section");
    let documented: Vec<(String, Vec<String>)> = section
        .lines()
        .filter(|l| l.starts_with("| `") && !l.starts_with("| `type`"))
        .map(|row| {
            let mut names = row
                .split('`')
                .skip(1)
                .step_by(2)
                .map(|name| name.trim_end_matches('?').to_string());
            (names.next().expect("a row names its type"), names.collect())
        })
        .collect();
    let sorted = |mut rows: Vec<(String, Vec<String>)>| {
        rows.sort();
        rows
    };
    assert_eq!(sorted(documented), sorted(emitted));
}

/// Every crate root outside `vendor/` and `benchmark/` forbids the
/// escape hatch from safe Rust, and no Rust file outside them uses it:
/// the simulator's addresses are indices, and nothing needs raw memory.
#[test]
fn every_crate_root_forbids_unsafe_code() {
    // Spelled in two halves so this file does not trip its own check.
    let keyword = ["un", "safe"].concat();
    let attribute = format!("#![forbid({keyword}_code)]");
    let mut files = Vec::new();
    for dir in ["src", "tests", "crates", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    let mut offences = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable source");
        let rel = path.strip_prefix(root()).expect("under the root");
        let is_root = rel.parent().is_some_and(|dir| dir.ends_with("src"))
            && rel
                .file_name()
                .is_some_and(|f| f == "lib.rs" || f == "main.rs");
        if is_root && !text.lines().any(|l| l.trim() == attribute) {
            offences.push(format!("{}: no {attribute}", rel.display()));
        }
        let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
        for (i, line) in text.lines().enumerate() {
            if line.trim() != attribute && line.split(|c| !is_ident(c)).any(|w| w == keyword) {
                offences.push(format!("{}:{}: {}", rel.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(offences.is_empty(), "{offences:#?}");
}
