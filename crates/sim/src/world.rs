//! The simulation loop: advances device/website state across the scan
//! schedule and emits the observation dataset.

use crate::certgen::{CaEcosystem, DeviceCertFactory, DeviceCertPlan, SiteCertPlan};
use crate::config::ScaleConfig;
use crate::population::{build_devices, build_websites, Device};
use crate::schedule::ScanSchedule;
use crate::topology::{self, ChurnPolicy, Topology};
use crate::truth::GroundTruth;
use crate::vendors::{standard_vendors, VendorProfile};
use rand::rngs::StdRng;
use rand::Rng;
use silentcert_core::dataset::{CertId, CertMeta, Dataset, DatasetBuilder};
use silentcert_net::{Ipv4, Prefix, RoutingHistory};
use silentcert_validate::{Classification, TrustStore, Validator};
use silentcert_x509::Certificate;
use std::collections::HashSet;

/// Everything a simulation run produces.
#[derive(Debug)]
pub struct SimOutput {
    /// The observation dataset the analysis pipeline consumes.
    pub dataset: Dataset,
    /// Who really served what (unavailable to the paper; available here).
    pub truth: GroundTruth,
    /// Run statistics.
    pub stats: SimStats,
}

/// Aggregate counters from a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    pub device_certs_generated: u64,
    pub site_certs_generated: u64,
    pub observations: u64,
    pub blacklisted_observations: u64,
}

/// Mutable per-device runtime state.
#[derive(Debug, Clone)]
struct DevState {
    cert: Option<CertId>,
    reissue_idx: u32,
    /// Day the current certificate was issued.
    issue_day: i64,
    /// Next scheduled reissue day (i64::MAX when the device never
    /// reissues).
    next_reissue: i64,
    /// Certificate must be regenerated before the next observation.
    dirty: bool,
    ip: Option<Ipv4>,
    /// Second permanent address (dual-homed devices).
    ip2: Option<Ipv4>,
    /// Address the device held before its most recent change (mid-scan
    /// duplicate source).
    prev_ip: Option<Ipv4>,
    lease_until: i64,
    home_as: usize,
}

/// Mutable per-website runtime state.
#[derive(Debug, Clone)]
struct SiteState {
    cert: Option<CertId>,
    serial: u64,
    key_epoch: u32,
    issue_day: i64,
    next_reissue: i64,
    dirty: bool,
    ips: Vec<Ipv4>,
}

/// One responding device in the current scan slot: the serial planning
/// pass records where it was seen and, when its certificate is stale, the
/// RNG-derived inputs the parallel build pass needs.
struct DevWork {
    idx: usize,
    targets: [Option<Ipv4>; 3],
    build: Option<DeviceCertPlan>,
}

/// One responding website in the current scan slot (see [`DevWork`]).
struct SiteWork {
    idx: usize,
    visible_ips: Vec<Ipv4>,
    build: Option<SiteBuild>,
}

/// Issue parameters snapshotted at plan time so the parallel pass never
/// reads mutable site state.
struct SiteBuild {
    plan: SiteCertPlan,
    key_epoch: u32,
    serial: u64,
    issue_day: i64,
}

/// Tracks which addresses are in use so assignments never collide.
#[derive(Debug, Default)]
struct IpPool {
    occupied: HashSet<u32>,
}

impl IpPool {
    /// Draw a free address from the AS's prefixes.
    fn assign(&mut self, prefixes: &[Prefix], rng: &mut StdRng) -> Ipv4 {
        assert!(!prefixes.is_empty(), "AS has no prefixes");
        for _ in 0..256 {
            let p = prefixes[rng.gen_range(0..prefixes.len())];
            let ip = p.addr(rng.gen_range(0..p.size()));
            if self.occupied.insert(ip.0) {
                return ip;
            }
        }
        // Fall back to a linear probe of the first prefix.
        for p in prefixes {
            for i in 0..p.size() {
                let ip = p.addr(i);
                if self.occupied.insert(ip.0) {
                    return ip;
                }
            }
        }
        panic!("address pool exhausted");
    }

    fn release(&mut self, ip: Ipv4) {
        self.occupied.remove(&ip.0);
    }
}

/// Exponential-ish reissue/lease interval around `mean` days.
fn interval(mean: u32, rng: &mut StdRng) -> i64 {
    i64::from(rng.gen_range(1..=mean.max(1) * 2))
}

/// Run the simulation.
pub fn simulate(config: &ScaleConfig) -> SimOutput {
    simulate_streaming(config, &mut |_| true)
}

/// Run the simulation, streaming every newly generated unique certificate
/// (device, website leaf, and CA intermediate) to `sink` — used by the
/// corpus exporter so full DER never has to be held in memory. The sink
/// sees each interned certificate exactly once, in `CertId` order.
///
/// `sink` returns whether it wants more certificates; once it returns
/// `false` (e.g. a disk write failed) it is never invoked again, so a
/// failing exporter does not keep encoding certificates it cannot write.
/// The simulation itself still runs to completion either way — the
/// in-memory [`SimOutput`] stays whole.
///
/// # Panics
///
/// Panics on a degenerate scan-schedule config (see
/// [`ScaleConfig::validate`]); call `validate()` first to get the typed
/// [`crate::config::ConfigError`] instead.
pub fn simulate_streaming(
    config: &ScaleConfig,
    sink: &mut dyn FnMut(&Certificate) -> bool,
) -> SimOutput {
    let mut sink_active = true;
    let mut sink = move |cert: &Certificate| {
        if sink_active {
            sink_active = sink(cert);
        }
    };
    let sink = &mut sink;
    let topo = topology::generate(config);
    let vendors = standard_vendors();
    let eco = CaEcosystem::generate(config);
    let schedule = ScanSchedule::generate(config).expect("degenerate scan-schedule config");
    let factory = DeviceCertFactory::new();
    let devices = build_devices(config, &topo, &vendors, &schedule);
    let websites = build_websites(config, &topo, &eco, &schedule);

    let mut validator = Validator::new(TrustStore::from_roots(eco.roots.clone()));
    for brand in &eco.brands {
        validator.add_intermediate(&brand.intermediate);
    }

    let mut rng = config.stream("world");
    let mut builder = DatasetBuilder::new();
    let mut truth = GroundTruth::default();
    let mut stats = SimStats::default();
    builder.asdb(topo.asdb.clone());

    // Routing history: base snapshot long before the first scan; one new
    // snapshot per transfer event.
    let mut as_prefixes: Vec<Vec<Prefix>> = topo.ases.iter().map(|a| a.prefixes.clone()).collect();
    let mut current_table = topo.base_table.clone();
    let mut routing = RoutingHistory::new();
    routing.add_snapshot(schedule.first_day() - 10_000, current_table.clone());

    // Operator blacklists: fractions of /20 prefixes invisible to each.
    let all_prefixes: Vec<Prefix> = topo.ases.iter().flat_map(|a| a.prefixes.clone()).collect();
    let blacklist = |rate: f64, rng: &mut StdRng| -> HashSet<Prefix> {
        all_prefixes
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(rate))
            .collect()
    };
    let mut bl_rng = config.stream("blacklists");
    let rapid7_blacklist = blacklist(config.rapid7_blacklist_rate, &mut bl_rng);
    let umich_blacklist = blacklist(config.umich_blacklist_rate, &mut bl_rng);

    // Intern the brand intermediates once: they are presented (and thus
    // observed) at every hosting IP of their sites.
    let intermediate_ids: Vec<CertId> = eco
        .brands
        .iter()
        .map(|b| {
            let class = validator.classify(&b.intermediate, &[]);
            intern_streamed(&mut builder, sink, &b.intermediate, class)
        })
        .collect();

    let mut pool = IpPool::default();
    let mut dev_states: Vec<DevState> = devices
        .iter()
        .map(|d| DevState {
            cert: None,
            reissue_idx: 0,
            issue_day: d.online_day,
            next_reissue: match d.reissue_mean {
                Some(mean) => d.online_day + interval(mean, &mut rng),
                None => i64::MAX,
            },
            dirty: true,
            ip: None,
            ip2: None,
            prev_ip: None,
            lease_until: i64::MIN,
            home_as: d.home_as,
        })
        .collect();
    let mut site_states: Vec<SiteState> = websites
        .iter()
        .map(|w| SiteState {
            cert: None,
            serial: u64::from(rng.gen::<u32>()),
            key_epoch: 0,
            issue_day: w.online_day,
            next_reissue: w.online_day, // resolved by the fast-forward below
            dirty: true,
            ips: Vec::new(),
        })
        .collect();
    // Assign static website addresses up front.
    for (w, st) in websites.iter().zip(&mut site_states) {
        let prefixes = &as_prefixes[w.as_idx];
        st.ips = (0..w.n_ips)
            .map(|_| pool.assign(prefixes, &mut rng))
            .collect();
    }

    let mut last_day = i64::MIN;
    for (slot_idx, slot) in schedule.slots.iter().enumerate() {
        let day = slot.day;

        // Apply address-block transfers scheduled at this slot.
        for ev in topo.transfers.iter().filter(|e| e.at_slot == slot_idx) {
            if let Some(pos) = as_prefixes[ev.from].iter().position(|&p| p == ev.prefix) {
                as_prefixes[ev.from].remove(pos);
                as_prefixes[ev.to].push(ev.prefix);
                current_table.announce(ev.prefix, topo.ases[ev.to].asn);
                routing.add_snapshot(day, current_table.clone());
                // Devices inside the block keep their address but now sit
                // in the new AS.
                for (d, st) in devices.iter().zip(&mut dev_states) {
                    let _ = d;
                    if st.ip.is_some_and(|ip| ev.prefix.contains(ip)) {
                        st.home_as = ev.to;
                    }
                }
            }
        }

        // Advance per-day device state once per calendar day.
        if day != last_day {
            advance_devices(
                config,
                &topo,
                &devices,
                &mut dev_states,
                &as_prefixes,
                &mut pool,
                day,
                &mut rng,
            );
            last_day = day;
        }

        let scan = builder.add_scan(day, slot.operator);
        let bl = match slot.operator {
            silentcert_core::Operator::UMich => &umich_blacklist,
            silentcert_core::Operator::Rapid7 => &rapid7_blacklist,
        };
        let visible = |ip: Ipv4| !bl.contains(&Prefix::new(ip, 20));

        // -- devices -------------------------------------------------------
        //
        // Three passes so certificate build/sign/classify — the expensive
        // part — can fan out across cores while every RNG draw and every
        // dataset mutation happens serially in the original order (the
        // determinism contract in `silentcert_core::par`).
        //
        // Pass 1 (serial): replicate the per-device control flow exactly,
        // consuming the world RNG in the same order as the old single loop,
        // and record what each responding device needs.
        let mut dev_work: Vec<DevWork> = Vec::new();
        for (idx, (d, st)) in devices.iter().zip(&dev_states).enumerate() {
            if d.online_day > day || !rng.gen_bool(config.response_rate) {
                continue;
            }
            let Some(ip) = st.ip else { continue };
            // Collect the addresses this scan would record, filtering the
            // operator's blacklist. Certificates are only generated when
            // something is actually visible — a fully-blacklisted device
            // leaves no trace in the dataset, matching real scans.
            let mut targets: [Option<Ipv4>; 3] = [Some(ip), st.ip2, None];
            // Mid-scan IP change: also seen at the previous address
            // (dual-homed devices are exempt so they stay at exactly two
            // addresses per scan, per the §6.2 exception population).
            if !d.dual_homed && topo.ases[st.home_as].churn == ChurnPolicy::PerScan {
                if let Some(prev) = st.prev_ip {
                    if rng.gen_bool(config.midscan_dup_rate) {
                        targets[2] = Some(prev);
                    }
                }
            }
            let mut any_visible = false;
            for t in targets.iter_mut() {
                if let Some(ip) = *t {
                    if visible(ip) {
                        any_visible = true;
                    } else {
                        *t = None;
                        stats.blacklisted_observations += 1;
                    }
                }
            }
            if !any_visible {
                continue;
            }
            let build = if st.dirty {
                let profile = &vendors[d.vendor];
                Some(factory.plan_device_cert(
                    profile,
                    d.id,
                    st.reissue_idx,
                    st.issue_day,
                    &mut rng,
                ))
            } else {
                None
            };
            dev_work.push(DevWork {
                idx,
                targets,
                build,
            });
        }
        // Pass 2 (parallel): build, sign, and classify the planned
        // certificates. Classification is speculative — baked-batch
        // duplicates are re-derived here and deduplicated at intern time —
        // but it is a pure function of the certificate, and the validator's
        // RSA verify memo makes the repeats cheap.
        let dev_built = silentcert_core::par::map(&dev_work, 0, |_, wk| {
            wk.build.as_ref().map(|plan| {
                let profile = &vendors[devices[wk.idx].vendor];
                let cert = factory.build_device_cert(profile, plan);
                let class = validator.classify(&cert, &[]);
                (cert, class)
            })
        });
        // Pass 3 (serial): intern, sink, and record observations in the
        // original device order.
        for (wk, built) in dev_work.iter().zip(dev_built) {
            let d = &devices[wk.idx];
            let st = &mut dev_states[wk.idx];
            if let Some((cert, class)) = built {
                let profile = &vendors[d.vendor];
                st.cert = Some(intern_device_cert(
                    &mut builder,
                    &mut truth,
                    &cert,
                    class,
                    d,
                    profile,
                    sink,
                ));
                st.dirty = false;
                stats.device_certs_generated += 1;
            }
            let cert = st.cert.expect("generated above or in an earlier slot");
            for ip in wk.targets.into_iter().flatten() {
                builder.add_observation(scan, ip, cert);
                stats.observations += 1;
            }
        }

        // -- websites ------------------------------------------------------
        //
        // Same three-pass shape as the device loop above.
        let mut site_work: Vec<SiteWork> = Vec::new();
        for (idx, (w, st)) in websites.iter().zip(&mut site_states).enumerate() {
            if w.online_day > day {
                continue;
            }
            // Fast-forward reissues (validity-driven).
            while st.next_reissue <= day {
                if st.cert.is_some() || st.dirty {
                    st.serial += 1;
                    if !w.reuses_key {
                        st.key_epoch += 1;
                    }
                    st.dirty = true;
                }
                st.issue_day = st.next_reissue;
                let period = 330 + i64::from(rng.gen_range(0..180));
                st.next_reissue += period;
            }
            let visible_ips: Vec<Ipv4> = st
                .ips
                .iter()
                .copied()
                .filter(|&ip| visible(ip) && rng.gen_bool(config.response_rate))
                .collect();
            stats.blacklisted_observations += 2 * (st.ips.len() - visible_ips.len()) as u64;
            if visible_ips.is_empty() {
                continue;
            }
            let build = if st.dirty {
                Some(SiteBuild {
                    plan: CaEcosystem::plan_site_cert(&mut rng),
                    key_epoch: st.key_epoch,
                    serial: st.serial,
                    issue_day: st.issue_day,
                })
            } else {
                None
            };
            site_work.push(SiteWork {
                idx,
                visible_ips,
                build,
            });
        }
        let site_built = silentcert_core::par::map(&site_work, 0, |_, wk| {
            wk.build.as_ref().map(|b| {
                let w = &websites[wk.idx];
                let cert = eco.issue_site_cert_planned(
                    w.brand,
                    w.id,
                    &w.domain,
                    b.key_epoch,
                    b.serial,
                    b.issue_day,
                    &b.plan,
                );
                let presented: &[Certificate] = if w.presents_chain {
                    std::slice::from_ref(&eco.brands[w.brand].intermediate)
                } else {
                    &[]
                };
                let class = validator.classify(&cert, presented);
                (cert, class)
            })
        });
        for (wk, built) in site_work.iter().zip(site_built) {
            let w = &websites[wk.idx];
            let st = &mut site_states[wk.idx];
            if let Some((cert, class)) = built {
                st.cert = Some(intern_streamed(&mut builder, sink, &cert, class));
                st.dirty = false;
                stats.site_certs_generated += 1;
            }
            let leaf = st.cert.expect("generated above or in an earlier slot");
            let intermediate = intermediate_ids[w.brand];
            for &ip in &wk.visible_ips {
                builder.add_observation(scan, ip, leaf);
                builder.add_observation(scan, ip, intermediate);
                stats.observations += 2;
            }
        }
    }

    builder.routing(routing);
    SimOutput {
        dataset: builder.finish(),
        truth,
        stats,
    }
}

/// Advance churn, moves, and reissue schedules to `day`.
#[allow(clippy::too_many_arguments)]
fn advance_devices(
    config: &ScaleConfig,
    topo: &Topology,
    devices: &[Device],
    states: &mut [DevState],
    as_prefixes: &[Vec<Prefix>],
    pool: &mut IpPool,
    day: i64,
    rng: &mut StdRng,
) {
    for (d, st) in devices.iter().zip(states.iter_mut()) {
        if d.online_day > day {
            continue;
        }

        // User moves: rare for fixed devices, frequent for mobiles.
        let is_mobile = topo.ases[st.home_as].mobile;
        if is_mobile {
            if rng.gen_bool(0.15) && topo.mobile.len() > 1 {
                let next = topo.mobile[rng.gen_range(0..topo.mobile.len())];
                if next != st.home_as {
                    st.home_as = next;
                    retire_ip(st, pool);
                }
            }
        } else if rng.gen_bool(config.user_move_rate) {
            let next = topo.access[rng.gen_range(0..topo.access.len())];
            if next != st.home_as {
                st.home_as = next;
                retire_ip(st, pool);
            }
        }

        // Churn.
        let prefixes = &as_prefixes[st.home_as];
        let needs_new = match topo.ases[st.home_as].churn {
            ChurnPolicy::Static => st.ip.is_none(),
            ChurnPolicy::PerScan => true,
            ChurnPolicy::Leased { mean_days } => {
                if st.ip.is_none() || day >= st.lease_until {
                    st.lease_until = day + interval(mean_days, rng);
                    true
                } else {
                    false
                }
            }
        };
        if needs_new && !prefixes.is_empty() {
            st.prev_ip = st.ip;
            if let Some(old) = st.ip {
                pool.release(old);
            }
            st.ip = Some(pool.assign(prefixes, rng));
            if d.dual_homed {
                if let Some(old) = st.ip2 {
                    pool.release(old);
                }
                st.ip2 = Some(pool.assign(prefixes, rng));
            }
        } else if d.dual_homed && st.ip2.is_none() && !prefixes.is_empty() {
            st.ip2 = Some(pool.assign(prefixes, rng));
        }

        // Reissue fast-forward: only the latest unobserved certificate
        // matters; intermediate ones were never seen by any scan.
        if st.next_reissue <= day {
            let mean = d.reissue_mean.expect("finite schedule implies a mean");
            while st.next_reissue <= day {
                st.reissue_idx += 1;
                st.issue_day = st.next_reissue;
                st.next_reissue += interval(mean, rng);
            }
            st.dirty = true;
            st.cert = None;
        }
    }
}

fn retire_ip(st: &mut DevState, pool: &mut IpPool) {
    if let Some(old) = st.ip.take() {
        pool.release(old);
    }
    if let Some(old) = st.ip2.take() {
        pool.release(old);
    }
    st.prev_ip = None;
    st.lease_until = i64::MIN;
}

/// Intern a device certificate (deduplicating baked firmware certs) and
/// record ground truth. `class` was computed by the parallel build pass;
/// it only matters (and the sink only fires) when the fingerprint is new.
fn intern_device_cert(
    builder: &mut DatasetBuilder,
    truth: &mut GroundTruth,
    cert: &Certificate,
    class: Classification,
    device: &Device,
    profile: &VendorProfile,
    sink: &mut dyn FnMut(&Certificate),
) -> CertId {
    let id = intern_streamed(builder, sink, cert, class);
    truth.record(id, device.id);
    truth.device_vendor.insert(device.id, profile.tag);
    id
}

/// Intern `cert`, streaming it to `sink` only when its fingerprint is
/// new: the sink sees each interned certificate once, in `CertId` order.
fn intern_streamed(
    builder: &mut DatasetBuilder,
    sink: &mut dyn FnMut(&Certificate),
    cert: &Certificate,
    class: Classification,
) -> CertId {
    match builder.cert_id(&cert.fingerprint()) {
        Some(id) => id,
        None => {
            sink(cert);
            builder.intern_cert(CertMeta::from_certificate(cert, class))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silentcert_core::compare;

    fn run_tiny() -> SimOutput {
        simulate(&ScaleConfig::tiny())
    }

    #[test]
    fn produces_nonempty_dataset() {
        let out = run_tiny();
        let d = &out.dataset;
        assert_eq!(d.scans.len(), 18); // 12 UMich + 6 Rapid7
        assert!(d.certs.len() > 500, "{} certs", d.certs.len());
        assert!(d.len() > 5_000, "{} observations", d.len());
        assert!(out.stats.observations > 0);
        assert!(out.stats.blacklisted_observations > 0);
    }

    #[test]
    fn invalid_certs_dominate() {
        let out = run_tiny();
        let h = compare::headline(&out.dataset);
        assert!(
            (0.70..=0.97).contains(&h.overall_invalid_fraction()),
            "invalid fraction {}",
            h.overall_invalid_fraction()
        );
        // Self-signed dominates the invalid population.
        assert!(
            h.self_signed_fraction > 0.7,
            "self-signed {}",
            h.self_signed_fraction
        );
        assert!(
            h.untrusted_fraction > 0.03,
            "untrusted {}",
            h.untrusted_fraction
        );
        // Per-scan fraction sits well below the overall fraction (§4.2).
        assert!(h.per_scan_invalid_mean < h.overall_invalid_fraction());
    }

    #[test]
    fn truth_covers_device_certs() {
        let out = run_tiny();
        let mut with_truth = 0;
        for id in out.dataset.cert_ids() {
            if !out.truth.devices_of(id).is_empty() {
                with_truth += 1;
            }
        }
        // All invalid (device) certs have truth; valid site certs do not.
        let invalid = out.dataset.certs.iter().filter(|c| !c.is_valid()).count();
        assert_eq!(with_truth, invalid);
    }

    #[test]
    fn deterministic() {
        let a = run_tiny();
        let b = run_tiny();
        assert_eq!(a.dataset.certs.len(), b.dataset.certs.len());
        assert_eq!(a.dataset.observations, b.dataset.observations);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn routing_resolves_most_observations() {
        let out = run_tiny();
        let d = &out.dataset;
        let mut resolved = 0usize;
        for obs in &d.observations {
            if d.routing.lookup_asn(d.scan_day(obs.scan), obs.ip).is_some() {
                resolved += 1;
            }
        }
        assert_eq!(
            resolved,
            d.len(),
            "all assigned IPs come from announced prefixes"
        );
    }
}
