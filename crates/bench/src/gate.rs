//! CI gate outcomes and their renderings.
//!
//! Absolute throughput is machine-dependent and useless as a CI assertion;
//! a ratio of two wall-clock measurements taken in the same run is not.
//! Three experiments measure five such ratios — `cold_start` (1),
//! `instrumentation_overhead` (2) and `open_loop_latency` (2) — and each
//! reports them as [`GateOutcome`]s held against a `const` [`Bound`] that
//! sits, with its rationale, beside the code that measures it.
//! `experiments --exp gates` runs the three and renders the outcomes with
//! the functions here. Everything that is an exact, seed-determined *count*
//! is a `cargo test` assertion instead (the README's "CI gates" section
//! maps each one to its test).

use crate::record::{json_escape, json_number};
use std::fmt;

/// The side of a threshold a measurement has to stay on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The measurement must be at least this.
    AtLeast(f64),
    /// The measurement must be at most this.
    AtMost(f64),
}

impl Bound {
    /// The threshold itself.
    pub fn threshold(self) -> f64 {
        match self {
            Bound::AtLeast(t) | Bound::AtMost(t) => t,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Bound::AtLeast(_) => "≥",
            Bound::AtMost(_) => "≤",
        }
    }
}

/// One measured gate value and the bound it is held to.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// `<experiment>.<metric>`.
    pub name: String,
    /// The measured ratio.
    pub measured: f64,
    /// The bound it is held against.
    pub bound: Bound,
}

impl GateOutcome {
    /// Whether the measurement is on the right side of its bound (a NaN
    /// measurement never is).
    pub fn passed(&self) -> bool {
        match self.bound {
            Bound::AtLeast(t) => self.measured >= t,
            Bound::AtMost(t) => self.measured <= t,
        }
    }
}

impl fmt::Display for GateOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: measured {:.3}, bound {} {:.3}",
            if self.passed() { "PASS" } else { "FAIL" },
            self.name,
            self.measured,
            self.bound.symbol(),
            self.bound.threshold()
        )
    }
}

/// Renders outcomes as a GitHub-flavoured markdown table, for
/// `$GITHUB_STEP_SUMMARY`.
pub fn render_markdown(outcomes: &[GateOutcome]) -> String {
    let mut out = String::from(
        "### Bench gates\n\n| gate | measured | threshold | result |\n|---|---:|---:|---|\n",
    );
    for o in outcomes {
        out.push_str(&format!(
            "| `{}` | {:.4} | {} {:.4} | {} |\n",
            o.name,
            o.measured,
            o.bound.symbol(),
            o.bound.threshold(),
            if o.passed() {
                "✅ pass"
            } else {
                "❌ **fail**"
            }
        ));
    }
    out
}

/// Renders outcomes as machine-readable JSON (the `gates.json` artifact).
pub fn render_json(outcomes: &[GateOutcome]) -> String {
    let mut out = format!(
        "{{\n  \"passed\": {},\n  \"gates\": [\n",
        outcomes.iter().all(GateOutcome::passed)
    );
    for (i, o) in outcomes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"measured\": {}, \"bound\": \"{}\", \"threshold\": {}, \"passed\": {}}}{}\n",
            json_escape(&o.name),
            json_number(o.measured),
            match o.bound {
                Bound::AtLeast(_) => "at_least",
                Bound::AtMost(_) => "at_most",
            },
            json_number(o.bound.threshold()),
            o.passed(),
            if i + 1 < outcomes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(name: &str, measured: f64, bound: Bound) -> GateOutcome {
        GateOutcome {
            name: name.to_string(),
            measured,
            bound,
        }
    }

    #[test]
    fn a_bound_is_inclusive_and_nan_never_passes() {
        assert!(outcome("a", 1.0, Bound::AtLeast(1.0)).passed());
        assert!(!outcome("a", 0.99, Bound::AtLeast(1.0)).passed());
        assert!(outcome("a", 0.05, Bound::AtMost(0.05)).passed());
        // Negative cost (the instrumented side faster, i.e. noise) passes.
        assert!(outcome("a", -0.01, Bound::AtMost(0.05)).passed());
        assert!(!outcome("a", 0.12, Bound::AtMost(0.05)).passed());
        assert!(!outcome("a", f64::NAN, Bound::AtMost(0.05)).passed());
        assert!(!outcome("a", f64::NAN, Bound::AtLeast(0.0)).passed());
    }

    #[test]
    fn every_rendering_carries_every_outcome() {
        let outcomes = vec![
            outcome("a.x", 0.5, Bound::AtLeast(0.3)),
            outcome("b.y", 3.0, Bound::AtMost(2.0)),
        ];
        assert_eq!(
            outcomes[0].to_string(),
            "PASS a.x: measured 0.500, bound ≥ 0.300"
        );
        assert_eq!(
            outcomes[1].to_string(),
            "FAIL b.y: measured 3.000, bound ≤ 2.000"
        );
        let md = render_markdown(&outcomes);
        assert!(md.contains("| gate | measured | threshold | result |"));
        assert!(md.contains("| `a.x` | 0.5000 | ≥ 0.3000 | ✅ pass |"));
        assert!(md.contains("| `b.y` | 3.0000 | ≤ 2.0000 | ❌ **fail** |"));

        let json = render_json(&outcomes);
        assert!(json.contains("\"passed\": false,"));
        assert!(json.contains(
            "{\"name\": \"a.x\", \"measured\": 0.5, \"bound\": \"at_least\", \"threshold\": 0.3, \
             \"passed\": true},"
        ));
        assert!(json.contains(
            "{\"name\": \"b.y\", \"measured\": 3, \"bound\": \"at_most\", \"threshold\": 2, \
             \"passed\": false}"
        ));
        assert!(render_json(&outcomes[..1]).contains("\"passed\": true,"));
        let nan = [outcome("c.z", f64::NAN, Bound::AtMost(1.0))];
        assert!(render_json(&nan).contains("\"measured\": null"));
    }
}
