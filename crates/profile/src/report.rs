//! Figure-2-style heap-profile reports.
//!
//! Reproduces the format of the paper's Figure 2: one row per allocation
//! site (filtered to sites contributing > 1 % of allocation or copying),
//! columns for allocation volume, survival rate, average age and copying,
//! `<--` markers on rows past the `old%` cutoff, and the summary footer
//! with the targeted-site coverage.

use std::fmt::Write as _;

use tilgc_runtime::{HeapProfile, SiteRegistry};

use crate::policy::{coverage, derive_policy, PolicyOptions};

/// Options controlling the report.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportOptions {
    /// Only show rows with at least this percentage of total allocation…
    pub min_alloc_percent: f64,
    /// …or at least this percentage of total copying.
    pub min_copied_percent: f64,
    /// The `old%` cutoff whose coverage the footer reports (and whose
    /// rows get the `<--` marker).
    pub old_percent_cutoff: f64,
    /// Resolve site names instead of printing bare ids.
    pub show_names: bool,
}

impl Default for ReportOptions {
    fn default() -> ReportOptions {
        ReportOptions {
            min_alloc_percent: 1.0,
            min_copied_percent: 1.0,
            old_percent_cutoff: 80.0,
            show_names: false,
        }
    }
}

/// Renders a Figure-2-style report for `profile`.
///
/// Rows are sorted like the paper's: descending allocation volume for the
/// high-allocation sites, with the surviving (`<--`) sites grouped after.
pub fn render_report(
    title: &str,
    profile: &HeapProfile,
    sites: &SiteRegistry,
    opts: &ReportOptions,
) -> String {
    let mut out = String::new();
    let total_alloc: u64 = profile.iter().map(|(_, r)| r.alloc_bytes).sum();
    let total_copied: u64 = profile.iter().map(|(_, r)| r.copied_bytes).sum();
    let pct = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };

    let _ = writeln!(out, "{:=^78}", format!(" {title} "));
    let _ = writeln!(
        out,
        "{:<18} {:>7} {:>11} {:>9} {:>6} {:>8} {:>10} {:>7}  copied/alloc",
        "site", "alloc%", "alloc size", "count", "%old", "avg age", "copied", "copied%"
    );
    let _ = writeln!(out, "{:-<100}", "");

    let mut rows: Vec<_> = profile.iter().collect();
    // Dying sites by allocation volume first, then surviving sites — the
    // visual bimodality of Figure 2.
    rows.sort_by(|(_, a), (_, b)| {
        let a_old = a.old_percent() >= opts.old_percent_cutoff;
        let b_old = b.old_percent() >= opts.old_percent_cutoff;
        a_old.cmp(&b_old).then(b.alloc_bytes.cmp(&a.alloc_bytes))
    });

    let total_entries = rows.len();
    let mut shown = 0;
    for (site, row) in rows {
        let alloc_pct = pct(row.alloc_bytes, total_alloc);
        let copied_pct = pct(row.copied_bytes, total_copied);
        if alloc_pct < opts.min_alloc_percent && copied_pct < opts.min_copied_percent {
            continue;
        }
        shown += 1;
        let marker = if row.old_percent() >= opts.old_percent_cutoff {
            "  <--"
        } else {
            ""
        };
        let label = if opts.show_names {
            sites.name(site).to_string()
        } else {
            format!("{}", site.get())
        };
        let _ = writeln!(
            out,
            "{:<18} {:>6.2}% {:>11} {:>9} {:>6.2} {:>8.1} {:>10} {:>6.2}% {:>11.2}{}",
            label,
            alloc_pct,
            row.alloc_bytes,
            row.alloc_objects,
            row.old_percent(),
            row.avg_age_kb(),
            row.copied_bytes,
            copied_pct,
            row.copy_ratio(),
            marker
        );
    }

    let _ = writeln!(out, "{:-<28} heap profile end : short {:-<28}", "", "");
    let _ = writeln!(
        out,
        "Showing only entries with alloc % > {:.2}",
        opts.min_alloc_percent
    );
    let _ = writeln!(
        out,
        "             or with copy  % > {:.2}",
        opts.min_copied_percent
    );
    let _ = writeln!(out, "{shown} of {total_entries} entries displayed.");

    let policy = derive_policy(
        profile,
        &PolicyOptions {
            old_percent_cutoff: opts.old_percent_cutoff,
            min_alloc_objects: 1,
            ..Default::default()
        },
    );
    let cov = coverage(profile, &policy);
    let _ = writeln!(
        out,
        "Using a (% old) cutoff of {:.0}%,\ntargeted sites comprise {:.2}% copied and {:.2}% \
         allocated.",
        opts.old_percent_cutoff, cov.copied_percent, cov.alloc_percent
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (HeapProfile, SiteRegistry) {
        let mut sites = SiteRegistry::new();
        let hot = sites.register("kb::subst");
        let cold = sites.register("kb::rules");
        let noise = sites.register("kb::tiny");
        let mut p = HeapProfile::new();
        for _ in 0..100 {
            p.on_alloc(hot, 64);
            p.on_death(hot);
        }
        for _ in 0..10 {
            p.on_alloc(cold, 32);
            p.on_copy(cold, 32, true);
        }
        // One allocation from a site contributing < 1 % either way.
        p.on_alloc(noise, 8);
        (p, sites)
    }

    #[test]
    fn report_filters_marks_and_summarizes() {
        let (p, sites) = sample();
        let opts = ReportOptions {
            show_names: true,
            ..Default::default()
        };
        let report = render_report("Knuth-Bendix", &p, &sites, &opts);
        assert!(report.contains("Knuth-Bendix"));
        assert!(report.contains("kb::subst"));
        assert!(report.contains("kb::rules"));
        assert!(
            !report.contains("kb::tiny"),
            "sub-1% site filtered: {report}"
        );
        assert!(report.contains("<--"), "surviving site marked");
        assert!(report.contains("2 of 3 entries displayed."));
        assert!(report.contains("cutoff of 80%"));
        // The surviving site accounts for all copying.
        assert!(report.contains("100.00% copied"));
    }

    #[test]
    fn dying_rows_precede_surviving_rows() {
        let (p, sites) = sample();
        let opts = ReportOptions {
            show_names: true,
            ..Default::default()
        };
        let report = render_report("x", &p, &sites, &opts);
        let subst = report.find("kb::subst").unwrap();
        let rules = report.find("kb::rules").unwrap();
        assert!(subst < rules, "bimodal layout: dying sites first");
    }

    #[test]
    fn empty_profile_renders() {
        let p = HeapProfile::new();
        let sites = SiteRegistry::new();
        let report = render_report("empty", &p, &sites, &ReportOptions::default());
        assert!(report.contains("0 of 0 entries displayed."));
    }
}
