//! Experiment harness: one function per table/figure of the paper's
//! evaluation, shared between the `experiments` binary (which prints each
//! one's full table, by name) and the integration tests. The simulator's
//! own wall-clock speed is measured by the steady benchmark declared in
//! `BENCHMARK.json` (see `perfbench/STEADINESS.md`), not here. The CI
//! gates are [`guards`], one function each, run by the `guards` binary;
//! [`select`] resolves both binaries' name arguments.
//!
//! Per-experiment index (see `DESIGN.md` §3), by `experiments` name:
//!
//! * `table1` — [`experiments::table1`], the Table 1 policy audit.
//! * `table2` — [`experiments::table2`], the Table 2 area/frequency
//!   comparison.
//! * `throughput` — [`experiments::throughput`] and
//!   [`experiments::throughput_decrypt`]: 51.2 Gbps @ 400 MHz, 30-cycle
//!   latency.
//! * `design_effort` — [`experiments::design_effort`], the
//!   ~70-changed-lines claim.
//! * `fig6_leak` — [`experiments::fig6`], the leaky-engine label error and
//!   its timing channel.
//! * `fig8_stall` — [`experiments::fig8`], stall-policy behaviour and
//!   buffer occupancy.
//! * `sharing_granularity` — [`experiments::sharing`], the coarse- vs
//!   fine-grained sharing sweep, and [`experiments::cbc_sharing`], its
//!   CBC-tenant corollary.
//! * `attack_matrix` — [`attacks::attack_matrix`], the E-atk matrix.
//! * `noninterference` — [`attacks::noninterference_holds`] and
//!   [`attacks::eve_trace`], the attacker-trace comparison.
//! * `lesion_study` — [`attacks::lesion_study`], one mechanism removed at
//!   a time.
//! * `tracking_ablation` — [`experiments::tracking_ablation`], RTLIFT- vs
//!   GLIFT-style tracking precision.
//! * `buffer_depth` — [`experiments::buffer_depth_sweep`], sizing the
//!   Fig. 8 holding buffer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod guards;
pub mod lint_cli;
pub mod table;

/// Resolves command-line names against a `(name, entry)` table, as the
/// `experiments` and `guards` binaries take them: no names selects every
/// entry in table order, otherwise the named entries in the order given.
///
/// # Errors
///
/// The first unknown name, with every valid name, before anything is
/// selected.
pub fn select<'t, T>(
    table: &'t [(&'static str, T)],
    names: &[String],
) -> Result<Vec<&'t (&'static str, T)>, String> {
    if names.is_empty() {
        return Ok(table.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            table.iter().find(|(n, _)| n == name).ok_or_else(|| {
                let valid: Vec<&str> = table.iter().map(|&(n, _)| n).collect();
                format!("unknown name `{name}`; valid names: {}", valid.join(" "))
            })
        })
        .collect()
}

/// Parses a seed: decimal, or hex after `0x`/`0X`, surrounding
/// whitespace ignored.
///
/// # Errors
///
/// Empty input, a digit outside the radix, or a value above `u64::MAX`.
pub fn parse_seed(s: &str) -> Result<u64, std::num::ParseIntError> {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
}

/// The seed `CI_SEED` sets for every guard, or `None` when it is unset
/// (each guard then runs from its checked-in default).
///
/// The runner prints each guard's seed and every report records it, so
/// a CI failure is reproducible locally from the artifact alone:
/// `CI_SEED=<seed from the report> cargo run ...` replays the exact run.
///
/// # Errors
///
/// A `CI_SEED` that is set but does not parse: silently falling back to
/// the default would replay a different run than the one asked for.
pub fn ci_seed() -> Result<Option<u64>, String> {
    match std::env::var("CI_SEED") {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(e) => Err(format!("CI_SEED: {e}")),
        Ok(s) => parse_seed(&s)
            .map(Some)
            .map_err(|e| format!("CI_SEED={s:?} is not a decimal or 0x-hex u64: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_seed, select};

    #[test]
    fn seeds_parse_as_decimal_or_hex_and_nothing_else() {
        for (text, seed) in [
            ("2019", 2019),
            (" \t0xfa5311ed\n", 0xfa53_11ed),
            ("0XFF", 255),
        ] {
            assert_eq!(parse_seed(text), Ok(seed), "{text:?}");
        }
        assert_eq!(parse_seed("0xffffffffffffffff"), Ok(u64::MAX));
        for bad in [
            "",
            " ",
            "0x",
            "0x12g",
            "12g",
            "-1",
            "1.5",
            "0x 1",
            "18446744073709551616",
        ] {
            assert!(parse_seed(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn names_select_table_entries() {
        let table = [("a", 0), ("b", 1), ("c", 2)];
        let picked = |names: &[&str]| {
            let names: Vec<String> = names.iter().map(ToString::to_string).collect();
            select(&table, &names).map(|sel| sel.iter().map(|e| e.1).collect::<Vec<_>>())
        };
        assert_eq!(
            picked(&[]),
            Ok(vec![0, 1, 2]),
            "no names: the whole table, in order"
        );
        assert_eq!(
            picked(&["c", "a"]),
            Ok(vec![2, 0]),
            "names: in the order given"
        );
        let err = picked(&["a", "zz"]).expect_err("an unknown name selects nothing");
        assert_eq!(err, "unknown name `zz`; valid names: a b c");
    }
}
