//! Raw `epoll` + `eventfd` syscall wrappers (Linux only, std-only FFI).
//!
//! The serve tier's readiness loop (DESIGN.md §14) needs exactly four
//! kernel facilities: an epoll instance, interest registration, a
//! blocking wait with a millisecond timeout, and a cross-thread waker.
//! Pulling in `libc`/`mio` for that would break the workspace's
//! no-new-dependencies rule, so — like the `signal(2)` shim in
//! `silentcert_serve::signal` — the handful of symbols is declared
//! directly. Everything here is a thin, safe-on-top wrapper; the only
//! `unsafe` is the FFI boundary itself.
//!
//! Portability note: `epoll_event` is `packed` on x86-64 (12 bytes) and
//! naturally aligned everywhere else; getting this wrong corrupts every
//! event's `data` field, so the layout is pinned by a test below.

use std::io;
use std::os::unix::io::RawFd;
use std::sync::Arc;

/// Readable (or a peer half-close with `RDHUP`).
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never registered).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported, never registered).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write side.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x8_0000;
const EFD_CLOEXEC: i32 = 0x8_0000;
const EFD_NONBLOCK: i32 = 0x800;

/// The kernel's `struct epoll_event`. x86-64 is the one ABI where it is
/// packed; everywhere else it uses natural alignment.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// One readiness report, with the registration's token copied back out
/// of the kernel's `data` field.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// `EPOLLERR` / `EPOLLHUP` / `EPOLLRDHUP` — the peer is gone or
    /// going; a read on the fd will report the details.
    pub closing: bool,
}

/// The epoll file descriptor, closed when the last owner drops.
struct EpollFd(RawFd);

impl Drop for EpollFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe { close(self.0) };
    }
}

/// An epoll instance plus its reusable event buffer.
pub struct Poller {
    reg: Registrar,
    buf: Vec<EpollEvent>,
}

/// A cloneable handle that edits a [`Poller`]'s interest set from
/// outside the thread that waits on it. It keeps the epoll instance
/// open while it lives, so a registration can never land on a reused
/// fd number.
#[derive(Clone)]
pub struct Registrar {
    epfd: Arc<EpollFd>,
}

impl Registrar {
    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.epfd.0, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with the given interest mask; `token` comes back in
    /// every [`Event`] for it.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change an existing registration's interest mask.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Remove a registration (must happen before the fd is closed, or a
    /// reused fd number inherits the stale interest).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            reg: Registrar {
                epfd: Arc::new(EpollFd(epfd)),
            },
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    /// A handle for changing this poller's interest set from elsewhere.
    pub fn registrar(&self) -> Registrar {
        self.reg.clone()
    }

    /// Register `fd` with the given interest mask; `token` comes back in
    /// every [`Event`] for it.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.reg.add(fd, interest, token)
    }

    /// Change an existing registration's interest mask.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.reg.modify(fd, interest, token)
    }

    /// Remove a registration (must happen before the fd is closed, or a
    /// reused fd number inherits the stale interest).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.reg.delete(fd)
    }

    /// Wait up to `timeout_ms` (`0` polls, `-1` blocks forever) and
    /// append the ready set to `out`. `EINTR` is reported as zero events.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `buf` is a live, correctly sized array of EpollEvent.
        let n = unsafe {
            epoll_wait(
                self.reg.epfd.0,
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        let n = n as usize;
        for slot in &self.buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let events = { slot.events };
            let token = { slot.data };
            out.push(Event {
                token,
                readable: events & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: events & EPOLLOUT != 0,
                closing: events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

/// A nonblocking `eventfd` used to wake a [`Poller`] from other threads.
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    pub fn new() -> io::Result<WakeFd> {
        // SAFETY: plain syscall.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakeFd { fd })
    }

    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Make the next (or current) `epoll_wait` return. Signal-safe and
    /// callable from any thread; failures are ignored — an eventfd write
    /// only fails if the counter would overflow, which still wakes.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: 8 readable bytes, as eventfd requires.
        unsafe { write(self.fd, std::ptr::addr_of!(one).cast(), 8) };
    }

    /// Reset the counter so the fd stops reporting readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: 8 writable bytes, as eventfd requires.
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe { close(self.fd) };
    }
}

// SAFETY: both types are plain fd owners; every syscall here is
// thread-safe per the kernel's own contract.
unsafe impl Send for WakeFd {}
unsafe impl Sync for WakeFd {}
unsafe impl Send for Poller {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn epoll_event_layout_matches_the_abi() {
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
            assert_eq!(std::mem::align_of::<EpollEvent>(), 1);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
        }
    }

    #[test]
    fn wakefd_wakes_and_drains() {
        let mut poller = Poller::new().unwrap();
        let wake = WakeFd::new().unwrap();
        poller.add(wake.raw(), EPOLLIN, 7).unwrap();

        let mut out = Vec::new();
        // Nothing pending: a zero-timeout wait reports nothing.
        assert_eq!(poller.wait(&mut out, 0).unwrap(), 0);
        wake.wake();
        wake.wake(); // coalesces into one readable event
        assert_eq!(poller.wait(&mut out, 1000).unwrap(), 1);
        assert_eq!(out[0].token, 7);
        assert!(out[0].readable);
        wake.drain();
        out.clear();
        assert_eq!(poller.wait(&mut out, 0).unwrap(), 0);
    }

    #[test]
    fn socket_readiness_round_trip() {
        use std::os::unix::io::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), EPOLLIN, 1).unwrap();

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut out = Vec::new();
        poller.wait(&mut out, 2000).unwrap();
        assert!(out.iter().any(|e| e.token == 1 && e.readable));

        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller
            .add(server.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 2)
            .unwrap();
        client.write_all(b"ping").unwrap();
        out.clear();
        poller.wait(&mut out, 2000).unwrap();
        assert!(out.iter().any(|e| e.token == 2 && e.readable));
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 4);

        // Peer hangup surfaces as a closing event.
        drop(client);
        out.clear();
        poller.wait(&mut out, 2000).unwrap();
        assert!(out.iter().any(|e| e.token == 2 && e.closing));
        poller.delete(server.as_raw_fd()).unwrap();
    }
}
