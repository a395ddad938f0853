//! Drain-on-signal: SIGTERM/SIGINT start a graceful drain.
//!
//! The cluster supervisor (and any init system) stops a shard with a
//! signal, not a `shutdown` frame — the shard must treat that as "drain
//! and exit cleanly", never as an abrupt death. The handler itself only
//! flips an `AtomicBool` (the async-signal-safe subset); a watcher
//! thread polls the flag and triggers the daemon's normal drain path,
//! so signal shutdown and `shutdown`-frame shutdown share every drain
//! invariant (backlog finishes, journal flushes, force-shed deadline).
//!
//! The FFI is a single `signal(2)` declaration rather than a libc crate
//! dependency: the build environment is offline and the workspace is
//! std-only, and `signal` with a `SIG_DFL`-style handler address is
//! available on every Unix libc.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the signal handler; read by the watcher thread.
static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

mod ffi {
    extern "C" {
        /// `sighandler_t signal(int signum, sighandler_t handler)` —
        /// the handler travels as a raw function address.
        pub fn signal(signum: i32, handler: usize) -> usize;
    }
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
}

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: one relaxed-free store.
    DRAIN_REQUESTED.store(true, Ordering::SeqCst);
}

/// Install the SIGTERM/SIGINT handlers. Idempotent.
pub fn install_drain_handler() {
    unsafe {
        ffi::signal(ffi::SIGTERM, on_signal as *const () as usize);
        ffi::signal(ffi::SIGINT, on_signal as *const () as usize);
    }
}

/// Whether a drain-requesting signal has arrived.
pub fn drain_requested() -> bool {
    DRAIN_REQUESTED.load(Ordering::SeqCst)
}

/// Spawn the watcher: when a signal arrives, run `drain` (typically
/// [`crate::ServerHandle::drainer`]'s closure) and exit. The thread also
/// exits once `done` reports true so it never outlives the daemon.
pub fn watch(drain: impl Fn() + Send + 'static, done: impl Fn() -> bool + Send + 'static) {
    let _ = std::thread::Builder::new()
        .name("serve-signal-watch".to_string())
        .spawn(move || loop {
            if drain_requested() {
                drain();
                return;
            }
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watcher_fires_drain_once_flag_is_set() {
        install_drain_handler();
        let fired = std::sync::Arc::new(AtomicBool::new(false));
        let fired2 = std::sync::Arc::clone(&fired);
        watch(move || fired2.store(true, Ordering::SeqCst), || false);
        // Simulate signal delivery by poking the handler directly (a
        // real kill would race other tests in this binary).
        on_signal(ffi::SIGTERM);
        for _ in 0..100 {
            if fired.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("watcher never fired the drain");
    }
}
