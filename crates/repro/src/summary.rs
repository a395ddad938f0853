//! Machine-readable run summary (`repro summary`), written as JSON.

use crate::experiments::Context;
use silentcert_core::{compare, evaluate, tracking};
use silentcert_obs::json::Value;

/// Key metrics of a run, mirroring EXPERIMENTS.md's headline rows.
#[derive(Debug, Default)]
pub struct Summary {
    pub seed: u64,
    pub scans: usize,
    pub unique_certificates: usize,
    pub observations: usize,
    pub invalid_fraction: f64,
    pub self_signed_fraction: f64,
    pub untrusted_fraction: f64,
    pub per_scan_invalid_mean: f64,
    pub invalid_negative_validity_fraction: f64,
    pub invalid_median_validity_days: f64,
    pub invalid_median_lifetime_days: f64,
    pub invalid_single_scan_fraction: f64,
    pub invalid_key_shared_fraction: f64,
    pub largest_key_share: f64,
    pub dedup_excluded_fraction: f64,
    pub linked_certificates: usize,
    pub linked_groups: usize,
    pub linking_precision: f64,
    pub trackable_before: usize,
    pub trackable_after: usize,
    pub tracked_as_changers: usize,
    pub bulk_transfer_events: usize,
    pub static_as_fraction_at_90: f64,
}

impl Summary {
    /// Compute the summary from a prepared context.
    pub fn compute(ctx: &Context, seed: u64) -> Summary {
        let d = &ctx.sim.dataset;
        let h = compare::headline(d);
        let vp = compare::validity_periods(d);
        let le = compare::lifetime_ecdfs(d, &ctx.lifetimes);
        let (key_inv, _) = compare::key_sharing(d);
        let score = ctx.sim.truth.score_linking(&ctx.link.groups);
        let t = tracking::trackable(
            d,
            &ctx.lifetimes,
            &ctx.invalid_unique,
            &ctx.entities,
            &ctx.index,
            ctx.track_min_days,
        );
        let min_bulk = (ctx.entities.len() / 20_000).clamp(3, 50);
        let m = tracking::movement(d, &ctx.entities, &ctx.index, ctx.track_min_days, min_bulk);
        let min_devices = (ctx.entities.len() / 70_000).clamp(4, 10);
        let r = tracking::reassignment(
            d,
            &ctx.entities,
            &ctx.index,
            ctx.track_min_days,
            min_devices,
            0.75,
        );
        let _: &evaluate::IterativeLinkResult = &ctx.link;
        Summary {
            seed,
            scans: d.scans.len(),
            unique_certificates: d.certs.len(),
            observations: d.len(),
            invalid_fraction: h.overall_invalid_fraction(),
            self_signed_fraction: h.self_signed_fraction,
            untrusted_fraction: h.untrusted_fraction,
            per_scan_invalid_mean: h.per_scan_invalid_mean,
            invalid_negative_validity_fraction: vp.invalid_negative_fraction,
            invalid_median_validity_days: vp.invalid.median(),
            invalid_median_lifetime_days: le.invalid.median(),
            invalid_single_scan_fraction: le.invalid_single_scan_fraction,
            invalid_key_shared_fraction: key_inv.shared_fraction(),
            largest_key_share: key_inv.largest_group_fraction(),
            dedup_excluded_fraction: 1.0
                - ctx.invalid_unique.len() as f64 / ctx.invalid_all.len().max(1) as f64,
            linked_certificates: ctx.link.linked_certs(),
            linked_groups: ctx.link.groups.len(),
            linking_precision: score.precision(),
            trackable_before: t.before_linking,
            trackable_after: t.after_linking,
            tracked_as_changers: m.changed_as,
            bulk_transfer_events: m.transfers.len(),
            static_as_fraction_at_90: r.fraction_above(0.9),
        }
    }

    /// Pretty JSON, one field a line in declaration order. Integers
    /// print through `Display`, so a seed above 2^53 stays exact; floats
    /// print as [`Value::render`] does, so a non-finite one is `null`.
    pub fn to_json(&self) -> String {
        let num = |x: f64| Value::Number(x).render();
        let fields = [
            ("seed", self.seed.to_string()),
            ("scans", self.scans.to_string()),
            ("unique_certificates", self.unique_certificates.to_string()),
            ("observations", self.observations.to_string()),
            ("invalid_fraction", num(self.invalid_fraction)),
            ("self_signed_fraction", num(self.self_signed_fraction)),
            ("untrusted_fraction", num(self.untrusted_fraction)),
            ("per_scan_invalid_mean", num(self.per_scan_invalid_mean)),
            (
                "invalid_negative_validity_fraction",
                num(self.invalid_negative_validity_fraction),
            ),
            (
                "invalid_median_validity_days",
                num(self.invalid_median_validity_days),
            ),
            (
                "invalid_median_lifetime_days",
                num(self.invalid_median_lifetime_days),
            ),
            (
                "invalid_single_scan_fraction",
                num(self.invalid_single_scan_fraction),
            ),
            (
                "invalid_key_shared_fraction",
                num(self.invalid_key_shared_fraction),
            ),
            ("largest_key_share", num(self.largest_key_share)),
            ("dedup_excluded_fraction", num(self.dedup_excluded_fraction)),
            ("linked_certificates", self.linked_certificates.to_string()),
            ("linked_groups", self.linked_groups.to_string()),
            ("linking_precision", num(self.linking_precision)),
            ("trackable_before", self.trackable_before.to_string()),
            ("trackable_after", self.trackable_after.to_string()),
            ("tracked_as_changers", self.tracked_as_changers.to_string()),
            (
                "bulk_transfer_events",
                self.bulk_transfer_events.to_string(),
            ),
            (
                "static_as_fraction_at_90",
                num(self.static_as_fraction_at_90),
            ),
        ];
        let lines: Vec<String> = fields
            .iter()
            .map(|(key, value)| format!("  \"{key}\": {value}"))
            .collect();
        format!("{{\n{}\n}}", lines.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_json_keeps_large_integers_exact_and_writes_null_for_non_finite() {
        let s = Summary {
            seed: u64::MAX,
            invalid_fraction: f64::NAN,
            self_signed_fraction: 0.5,
            linking_precision: 1.0,
            ..Summary::default()
        };
        let text = s.to_json();
        assert!(text.starts_with("{\n  \"seed\": 18446744073709551615,\n  \"scans\": 0,\n"));
        assert!(text.contains("\n  \"invalid_fraction\": null,\n"));
        assert!(text.contains("\n  \"self_signed_fraction\": 0.5,\n"));
        assert!(text.contains("\n  \"linking_precision\": 1,\n"));
        assert!(text.ends_with("\n  \"static_as_fraction_at_90\": 0\n}"));
        let v = silentcert_obs::json::parse(&text).unwrap();
        assert_eq!(v.as_object().unwrap().len(), 23);
    }
}
