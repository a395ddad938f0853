//! The shared routing view: ring membership + per-shard health.
//!
//! A [`Directory`] is the single source of truth for "who owns this key
//! right now". The supervisor writes lifecycle transitions (spawned,
//! up, crashed, ejected), the fleet aggregator's scrape round writes
//! health verdicts ([`Directory::apply_verdict`]), and the router reads
//! it per request. All state sits behind one mutex — membership changes
//! are rare (crashes, restarts) and lookups are a binary search, so
//! contention is negligible next to the TCP round trip each lookup
//! precedes.
//!
//! Since the live-reconfiguration work (DESIGN.md §15) the directory
//! holds an [`EpochRing`] rather than a bare ring, and distinguishes
//! two kinds of membership change:
//!
//! * **Crash-path** transitions (`set_down`, `set_starting`, `set_up`
//!   for a restarted shard, `eject`, a health verdict) mutate the
//!   current ring in place. The ring's minimal-movement and
//!   byte-identical-restore properties make failover routing
//!   self-consistent without any epoch machinery.
//! * **Administrative** transitions (`begin_drain`, a `set_up` that
//!   completes an [`expect_join`]) are epoch *cutovers*: the old ring
//!   is retained to finish routing requests admitted before the change
//!   (each request is stamped with [`Directory::admit`]), the new ring
//!   takes fresh keys, and the topology epoch advances by one. The
//!   supervisor retires the old ring once the in-flight count for
//!   pre-cutover epochs reaches zero.
//!
//! A shard in `Draining` health is the hinge between the two rings: it
//! is out of the current ring (no fresh keys) but still addressable, so
//! in-flight keys from the previous epoch can finish against it before
//! it is told to exit.
//!
//! [`expect_join`]: Directory::expect_join

use silentcert_net::EpochRing;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Where a shard is in its lifecycle, as routing sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Spawned, handshake not yet seen: not in the ring.
    Starting,
    /// Serving: in the ring, address known.
    Up,
    /// Administrative drain in progress: out of the *current* ring (no
    /// fresh keys) but still addressable for in-flight keys routed via
    /// the previous epoch's ring.
    Draining,
    /// Crashed or failing health checks: out of the ring, restart
    /// possible.
    Down,
    /// Restart budget spent: out of the ring permanently.
    Ejected,
}

impl ShardHealth {
    pub fn as_str(self) -> &'static str {
        match self {
            ShardHealth::Starting => "starting",
            ShardHealth::Up => "up",
            ShardHealth::Draining => "draining",
            ShardHealth::Down => "down",
            ShardHealth::Ejected => "ejected",
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    addr: Option<String>,
    health: ShardHealth,
    generation: u64,
    /// Set by [`Directory::expect_join`]: the next `set_up` for this
    /// shard is an administrative join and must cut the ring over to a
    /// new epoch instead of mutating it in place.
    join_cutover: bool,
}

/// One shard's row in a [`Directory::snapshot`].
#[derive(Debug, Clone)]
pub struct ShardView {
    pub id: u32,
    pub health: ShardHealth,
    pub addr: Option<String>,
    pub generation: u64,
}

struct Inner {
    ring: EpochRing,
    shards: BTreeMap<u32, Entry>,
    /// Requests admitted per topology epoch and not yet answered. The
    /// supervisor's reconfiguration state machine waits for all counts
    /// below the cutover epoch to reach zero before it SIGTERMs a
    /// draining shard or retires the old ring.
    inflight: BTreeMap<u64, usize>,
}

/// The cluster's routing directory. Cheap to share (`Arc`), internally
/// synchronized.
pub struct Directory {
    inner: Mutex<Inner>,
}

impl Directory {
    /// An empty directory whose ring gives each shard `replicas`
    /// virtual points.
    pub fn new(replicas: u32) -> Directory {
        Directory {
            inner: Mutex::new(Inner {
                ring: EpochRing::new(replicas),
                shards: BTreeMap::new(),
                inflight: BTreeMap::new(),
            }),
        }
    }

    fn fresh_entry(generation: u64) -> Entry {
        Entry {
            addr: None,
            health: ShardHealth::Starting,
            generation,
            join_cutover: false,
        }
    }

    /// Announce a shard that is being spawned (not yet routable).
    pub fn register(&self, shard: u32) {
        let mut g = self.inner.lock().unwrap();
        g.shards
            .entry(shard)
            .or_insert_with(|| Self::fresh_entry(0));
    }

    /// Mark `shard` so its next `set_up` joins the ring via an epoch
    /// cutover (administrative add or rolling-restart rejoin) instead of
    /// the in-place insert a crash restart uses. Registers the shard if
    /// it is new.
    pub fn expect_join(&self, shard: u32) {
        let mut g = self.inner.lock().unwrap();
        let e = g
            .shards
            .entry(shard)
            .or_insert_with(|| Self::fresh_entry(0));
        e.join_cutover = true;
    }

    /// The shard finished its handshake: routable at `addr`.
    pub fn set_up(&self, shard: u32, addr: &str, generation: u64) {
        let mut g = self.inner.lock().unwrap();
        let e = g
            .shards
            .entry(shard)
            .or_insert_with(|| Self::fresh_entry(generation));
        if e.health == ShardHealth::Ejected {
            return; // ejection is permanent; a stray handshake loses
        }
        e.addr = Some(addr.to_string());
        e.health = ShardHealth::Up;
        e.generation = generation;
        let cutover = std::mem::take(&mut e.join_cutover);
        if cutover {
            g.ring.cutover(|r| r.insert(shard));
        } else {
            g.ring.bootstrap(|r| r.insert(shard));
        }
    }

    /// The shard crashed or exited: unroutable until restarted.
    pub fn set_down(&self, shard: u32) {
        let mut g = self.inner.lock().unwrap();
        if let Some(e) = g.shards.get_mut(&shard) {
            if e.health != ShardHealth::Ejected {
                e.health = ShardHealth::Down;
            }
        }
        g.ring.bootstrap(|r| r.remove(shard));
    }

    /// Back to Starting (a restart is in flight).
    pub fn set_starting(&self, shard: u32) {
        let mut g = self.inner.lock().unwrap();
        if let Some(e) = g.shards.get_mut(&shard) {
            if e.health != ShardHealth::Ejected {
                e.health = ShardHealth::Starting;
            }
        }
        g.ring.bootstrap(|r| r.remove(shard));
    }

    /// Apply a health verdict measured on `row`, a [`Directory::snapshot`]
    /// row: an Up shard that failed its checks goes Down, a Down shard
    /// that answered is reinstated in place. The verdict lands only if the
    /// shard still has the health, generation and address it was measured
    /// on — a restart in between makes it stale. A pending
    /// [`expect_join`](Directory::expect_join) stays pending: the join is
    /// the supervisor's `set_up`. Returns whether the shard changed.
    pub fn apply_verdict(&self, row: &ShardView, healthy: bool) -> bool {
        let mut g = self.inner.lock().expect("a directory update panicked");
        let Some(e) = g.shards.get_mut(&row.id) else {
            return false;
        };
        if e.health != row.health || e.generation != row.generation || e.addr != row.addr {
            return false;
        }
        match (row.health, healthy) {
            (ShardHealth::Up, false) => {
                e.health = ShardHealth::Down;
                g.ring.bootstrap(|r| r.remove(row.id));
            }
            (ShardHealth::Down, true) => {
                e.health = ShardHealth::Up;
                g.ring.bootstrap(|r| r.insert(row.id));
            }
            _ => return false,
        }
        true
    }

    /// Permanently remove the shard (restart budget spent).
    pub fn eject(&self, shard: u32) {
        let mut g = self.inner.lock().unwrap();
        if let Some(e) = g.shards.get_mut(&shard) {
            e.health = ShardHealth::Ejected;
        }
        g.ring.bootstrap(|r| r.remove(shard));
    }

    /// Begin an administrative drain of an Up shard: cut the ring over
    /// to a new epoch without it (fresh keys route elsewhere) while the
    /// shard stays addressable in `Draining` health for in-flight keys.
    /// Returns the new topology epoch, or `None` when the shard is not
    /// Up.
    pub fn begin_drain(&self, shard: u32) -> Option<u64> {
        let mut g = self.inner.lock().unwrap();
        match g.shards.get_mut(&shard) {
            Some(e) if e.health == ShardHealth::Up => e.health = ShardHealth::Draining,
            _ => return None,
        }
        Some(g.ring.cutover(|r| r.remove(shard)))
    }

    /// Retire the previous epoch's ring once its in-flight keys have
    /// drained. Returns whether a cutover was actually live.
    pub fn retire_epoch(&self) -> bool {
        self.inner.lock().unwrap().ring.retire()
    }

    /// Administratively remove a shard from the directory entirely —
    /// the clean end of `remove-shard`, distinct from [`eject`], which
    /// records a *failed* shard forever. The caller has already drained
    /// the shard and replayed its journal.
    ///
    /// [`eject`]: Directory::eject
    pub fn remove(&self, shard: u32) {
        let mut g = self.inner.lock().unwrap();
        g.shards.remove(&shard);
        g.ring.bootstrap(|r| r.remove(shard));
    }

    /// The current topology epoch (advances on every admin cutover).
    pub fn topology_epoch(&self) -> u64 {
        self.inner.lock().unwrap().ring.epoch()
    }

    /// Stamp one admitted request with the current topology epoch; the
    /// router calls this on admission and [`complete`] when the
    /// response line is filled, so drains can wait for pre-cutover
    /// requests precisely.
    ///
    /// [`complete`]: Directory::complete
    pub fn admit(&self) -> u64 {
        let mut g = self.inner.lock().unwrap();
        let epoch = g.ring.epoch();
        *g.inflight.entry(epoch).or_insert(0) += 1;
        epoch
    }

    /// The request admitted at `epoch` has been answered.
    pub fn complete(&self, epoch: u64) {
        let mut g = self.inner.lock().unwrap();
        if let Some(n) = g.inflight.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                g.inflight.remove(&epoch);
            }
        }
    }

    /// In-flight requests admitted before `epoch` (the drain barrier).
    pub fn inflight_before(&self, epoch: u64) -> usize {
        let g = self.inner.lock().unwrap();
        g.inflight.range(..epoch).map(|(_, n)| n).sum()
    }

    /// The Up shard owning `key` in the current topology.
    pub fn route(&self, key: &[u8]) -> Option<(u32, String)> {
        let g = self.inner.lock().unwrap();
        Self::route_fresh(&g, key)
    }

    fn route_fresh(g: &Inner, key: &[u8]) -> Option<(u32, String)> {
        let shard = g.ring.lookup_fresh(key)?;
        let e = g.shards.get(&shard)?;
        if e.health != ShardHealth::Up {
            return None;
        }
        Some((shard, e.addr.clone()?))
    }

    /// The shard owning `key` as of the topology epoch the request was
    /// admitted at. A key admitted before a live cutover routes via the
    /// previous ring — possibly to a `Draining` shard, which is exactly
    /// the two-ring handoff contract. Falls back to fresh routing when
    /// the old owner is no longer addressable.
    pub fn route_at(&self, key: &[u8], epoch: u64) -> Option<(u32, String)> {
        let g = self.inner.lock().unwrap();
        if let Some(shard) = g.ring.lookup_at(key, epoch) {
            if let Some(e) = g.shards.get(&shard) {
                if matches!(e.health, ShardHealth::Up | ShardHealth::Draining) {
                    if let Some(addr) = e.addr.clone() {
                        return Some((shard, addr));
                    }
                }
            }
        }
        Self::route_fresh(&g, key)
    }

    /// The first ring successor of `key` not in `exclude` — the hedge /
    /// failover target. Successors always come from the current ring:
    /// a retry should land where post-reconfiguration routing points,
    /// never on a shard that is on its way out.
    pub fn route_successor(&self, key: &[u8], exclude: &[u32]) -> Option<(u32, String)> {
        let g = self.inner.lock().unwrap();
        let shard = g.ring.current().successor(key, exclude)?;
        let e = g.shards.get(&shard)?;
        if e.health != ShardHealth::Up {
            return None;
        }
        Some((shard, e.addr.clone()?))
    }

    /// Every registered shard's current view.
    pub fn snapshot(&self) -> Vec<ShardView> {
        let g = self.inner.lock().unwrap();
        g.shards
            .iter()
            .map(|(&id, e)| ShardView {
                id,
                health: e.health,
                addr: e.addr.clone(),
                generation: e.generation,
            })
            .collect()
    }

    /// `(up, total)` shard counts (total excludes nothing — ejected
    /// shards still count toward the fleet they failed out of, though
    /// administratively removed shards do not).
    pub fn counts(&self) -> (usize, usize) {
        let g = self.inner.lock().unwrap();
        let up = g
            .shards
            .values()
            .filter(|e| e.health == ShardHealth::Up)
            .count();
        (up, g.shards.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_transitions_gate_routing() {
        let d = Directory::new(16);
        d.register(0);
        d.register(1);
        assert_eq!(d.route(b"k"), None, "starting shards are unroutable");
        d.set_up(0, "127.0.0.1:1000", 1);
        d.set_up(1, "127.0.0.1:1001", 1);
        let (primary, _) = d.route(b"k").unwrap();
        d.set_down(primary);
        let (next, _) = d.route(b"k").unwrap();
        assert_ne!(primary, next);
        // Restart restores the original assignment (ring restore).
        d.set_up(primary, "127.0.0.1:2000", 2);
        assert_eq!(d.route(b"k").unwrap().0, primary);
    }

    #[test]
    fn a_verdict_lands_only_on_the_generation_it_was_measured_on() {
        let d = Directory::new(16);
        d.set_up(0, "127.0.0.1:1000", 1);
        d.set_up(1, "127.0.0.1:1001", 1);
        let up_gen1 = d.snapshot()[0].clone();
        d.set_down(0);
        let down_gen1 = d.snapshot()[0].clone();
        // The supervisor restarts the shard on a new address.
        d.set_starting(0);
        d.set_up(0, "127.0.0.1:2000", 2);
        let keys: Vec<u32> = (0..64)
            .map(|i| d.route(format!("k{i}").as_bytes()).unwrap().0)
            .collect();
        assert!(!d.apply_verdict(&up_gen1, false), "stale Down verdict");
        assert!(!d.apply_verdict(&down_gen1, true), "stale reinstatement");
        let row = d.snapshot()[0].clone();
        assert_eq!(
            (row.health, row.generation, row.addr.as_deref()),
            (ShardHealth::Up, 2, Some("127.0.0.1:2000"))
        );
        for (i, owner) in keys.iter().enumerate() {
            assert_eq!(d.route(format!("k{i}").as_bytes()).unwrap().0, *owner);
        }
        // A verdict on the current row lands, both ways.
        assert!(d.apply_verdict(&row, false));
        assert_eq!(d.snapshot()[0].health, ShardHealth::Down);
        assert!(d.apply_verdict(&d.snapshot()[0].clone(), true));
        assert_eq!(d.snapshot()[0].health, ShardHealth::Up);
    }

    #[test]
    fn a_reinstatement_leaves_a_pending_join_pending() {
        let d = Directory::new(16);
        d.set_up(0, "127.0.0.1:1000", 1);
        d.set_down(0);
        d.expect_join(0);
        assert!(d.apply_verdict(&d.snapshot()[0].clone(), true));
        assert_eq!(d.topology_epoch(), 0, "a reinstatement is no cutover");
        d.set_up(0, "127.0.0.1:2000", 2);
        assert_eq!(d.topology_epoch(), 1, "the join is still a cutover");
    }

    #[test]
    fn ejection_is_permanent() {
        let d = Directory::new(16);
        d.set_up(3, "127.0.0.1:1003", 1);
        d.eject(3);
        assert_eq!(d.route(b"k"), None);
        d.set_up(3, "127.0.0.1:1003", 2);
        assert_eq!(d.route(b"k"), None, "set_up after eject must not revive");
        assert_eq!(d.counts(), (0, 1));
    }

    #[test]
    fn successor_excludes_the_primary() {
        let d = Directory::new(16);
        for s in 0..3 {
            d.set_up(s, &format!("127.0.0.1:{}", 1000 + s), 1);
        }
        let (primary, _) = d.route(b"fingerprint").unwrap();
        let (succ, _) = d.route_successor(b"fingerprint", &[primary]).unwrap();
        assert_ne!(primary, succ);
    }

    #[test]
    fn crash_restart_does_not_advance_the_epoch() {
        let d = Directory::new(16);
        for s in 0..3 {
            d.set_up(s, &format!("127.0.0.1:{}", 1000 + s), 1);
        }
        assert_eq!(d.topology_epoch(), 0);
        d.set_down(1);
        d.set_starting(1);
        d.set_up(1, "127.0.0.1:2001", 2);
        assert_eq!(d.topology_epoch(), 0, "crash path is not a cutover");
    }

    #[test]
    fn drain_cuts_fresh_routing_over_but_keeps_old_epoch_keys() {
        let d = Directory::new(64);
        for s in 0..3 {
            d.set_up(s, &format!("127.0.0.1:{}", 1000 + s), 1);
        }
        let keys: Vec<Vec<u8>> = (0..200).map(|i| format!("k{i}").into_bytes()).collect();
        let victim = d.route(&keys[0]).unwrap().0;
        let owned_before: Vec<u32> = keys.iter().map(|k| d.route(k).unwrap().0).collect();

        let old_epoch = d.topology_epoch();
        let epoch = d.begin_drain(victim).unwrap();
        assert_eq!(epoch, old_epoch + 1);
        assert_eq!(d.begin_drain(victim), None, "drain of a Draining shard");

        for (k, before) in keys.iter().zip(&owned_before) {
            // Fresh keys never land on the draining shard...
            let (fresh, _) = d.route(k).unwrap();
            assert_ne!(fresh, victim);
            // ...and keys not owned by it keep their assignment.
            if *before != victim {
                assert_eq!(fresh, *before);
            }
            // In-flight keys from the old epoch still see the old owner.
            assert_eq!(d.route_at(k, old_epoch).unwrap().0, *before);
            // Successors (failover) never point at the draining shard.
            if let Some((succ, _)) = d.route_successor(k, &[fresh]) {
                assert_ne!(succ, victim);
            }
        }

        assert!(d.retire_epoch());
        for k in &keys {
            // Old-epoch tags now fall through to fresh routing.
            assert_eq!(d.route_at(k, old_epoch).unwrap().0, d.route(k).unwrap().0);
        }
    }

    #[test]
    fn expect_join_makes_the_next_set_up_a_cutover() {
        let d = Directory::new(64);
        for s in 0..2 {
            d.set_up(s, &format!("127.0.0.1:{}", 1000 + s), 1);
        }
        assert_eq!(d.topology_epoch(), 0);
        d.expect_join(2);
        d.set_up(2, "127.0.0.1:1002", 1);
        assert_eq!(d.topology_epoch(), 1, "admin join is a cutover");
        // Old-epoch keys route as if the new shard were absent.
        let keys: Vec<Vec<u8>> = (0..200).map(|i| format!("k{i}").into_bytes()).collect();
        for k in &keys {
            let old = d.route_at(k, 0).unwrap().0;
            assert!(old < 2, "epoch-0 key routed to the epoch-1 joiner");
        }
        // And the flag is one-shot: a later crash restart is in-place.
        d.retire_epoch();
        d.set_down(2);
        d.set_up(2, "127.0.0.1:2002", 2);
        assert_eq!(d.topology_epoch(), 1);
    }

    #[test]
    fn admit_complete_track_inflight_per_epoch() {
        let d = Directory::new(16);
        d.set_up(0, "127.0.0.1:1000", 1);
        d.set_up(1, "127.0.0.1:1001", 1);
        let e0 = d.admit();
        let e0b = d.admit();
        assert_eq!((e0, e0b), (0, 0));
        d.begin_drain(1).unwrap();
        let e1 = d.admit();
        assert_eq!(e1, 1);
        assert_eq!(d.inflight_before(1), 2);
        d.complete(e0);
        d.complete(e0b);
        assert_eq!(d.inflight_before(1), 0);
        assert_eq!(d.inflight_before(2), 1, "epoch-1 admit still open");
        d.complete(e1);
        assert_eq!(d.inflight_before(2), 0);
    }

    #[test]
    fn remove_deletes_the_entry_without_the_eject_stigma() {
        let d = Directory::new(16);
        for s in 0..2 {
            d.set_up(s, &format!("127.0.0.1:{}", 1000 + s), 1);
        }
        assert_eq!(d.counts(), (2, 2));
        d.begin_drain(1).unwrap();
        d.retire_epoch();
        d.remove(1);
        assert_eq!(d.counts(), (1, 1));
        assert!(d.snapshot().iter().all(|s| s.id != 1));
    }
}
