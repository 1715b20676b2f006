//! A minimal readiness reactor: level-triggered I/O multiplexing over
//! nonblocking sockets, std-only.
//!
//! The daemon's event loop needs one thing from the OS: "which of these
//! sockets can make progress right now?"  On Linux that is `epoll`, on the
//! BSD family `kqueue`.  Neither is exposed by `std`, and this workspace has
//! no crates.io access, so the handful of syscalls are declared here
//! directly (`std` already links the platform libc, so the symbols resolve
//! at link time without any extra dependency).
//!
//! Scope is deliberately tiny — exactly what the server's event loop
//! consumes:
//!
//! * [`Reactor::register`] / [`Reactor::modify`] / [`Reactor::deregister`]
//!   attach a file descriptor with a caller-chosen `usize` token and an
//!   [`Interest`] (readable, writable, or both).
//! * [`Reactor::poll`] blocks until something is ready (or a timeout) and
//!   fills a caller-owned `Vec<Event>`.
//! * [`Reactor::waker`] hands out a cheaply cloneable [`Waker`] that any
//!   thread can use to make a concurrent `poll` return immediately — how
//!   the exec workers tell the loop "a response is ready to send".  The
//!   waker is a `std` Unix socketpair, not more FFI: writing one byte to
//!   the registered read side is a readiness event like any other, drained
//!   internally and never surfaced to the caller.
//!
//! Events are **level-triggered**: a socket with unread bytes keeps
//! reporting readable on every poll.  The server leans on this — it may
//! defer reading a connection while a response is in flight and pick the
//! data up on a later tick without any re-arm bookkeeping.

use std::io;
use std::io::{Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// Which readiness directions a registration listens for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or a peer hangup to observe).
    pub readable: bool,
    /// Wake when the fd's send buffer can accept bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-side interest only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-side interest only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report from [`Reactor::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// The fd can be read without blocking.
    pub readable: bool,
    /// The fd can be written without blocking.
    pub writable: bool,
    /// The peer closed or the fd errored (`EPOLLHUP`/`EPOLLERR`/`EV_EOF`).
    /// The owner should read to EOF / drop the connection.
    pub closed: bool,
}

/// Reserved kernel-side token for the internal waker registration; never
/// reported to callers, so user tokens may use the full `usize` range below
/// this sentinel.
const WAKER_TOKEN: u64 = u64::MAX;

/// Cross-thread wake handle for a [`Reactor`]; see [`Reactor::waker`].
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Makes the reactor's current (or next) [`Reactor::poll`] return
    /// immediately.  Wakes coalesce: the socketpair buffer filling up means
    /// a wake is already pending, which is all a wake means.
    pub fn wake(&self) {
        match (&*self.tx).write(&[1u8]) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {} // already pending
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                let _ = (&*self.tx).write(&[1u8]);
            }
            Err(_) => {} // reactor gone; nothing left to wake
        }
    }
}

/// A level-triggered readiness multiplexer (epoll on Linux, kqueue on the
/// BSD family) with a built-in cross-thread [`Waker`].
pub struct Reactor {
    selector: sys::Selector,
    waker_tx: Arc<UnixStream>,
    waker_rx: UnixStream,
}

impl Reactor {
    /// Opens the OS selector and wires up the internal waker pair.
    pub fn new() -> io::Result<Reactor> {
        let selector = sys::Selector::new()?;
        let (waker_tx, waker_rx) = UnixStream::pair()?;
        waker_tx.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        selector.register(waker_rx.as_raw_fd(), WAKER_TOKEN, Interest::READABLE)?;
        Ok(Reactor {
            selector,
            waker_tx: Arc::new(waker_tx),
            waker_rx,
        })
    }

    /// Starts watching `fd` under `token`.  The fd must outlive the
    /// registration (deregister before closing it).
    pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.selector.register(fd, token as u64, interest)
    }

    /// Replaces the interest set of an already registered fd.
    pub fn modify(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.selector.modify(fd, token as u64, interest)
    }

    /// Stops watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.selector.deregister(fd)
    }

    /// A cheaply cloneable handle that interrupts [`Reactor::poll`] from any
    /// thread.
    pub fn waker(&self) -> Waker {
        Waker {
            tx: Arc::clone(&self.waker_tx),
        }
    }

    /// Blocks until at least one registered fd is ready, the waker fires, or
    /// `timeout` elapses (`None` blocks indefinitely); clears and fills
    /// `events`.  Returning with `events` empty means timeout or wake — the
    /// caller's drain loops simply find nothing to do.  `EINTR` retries
    /// internally.
    pub fn poll(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.selector.poll(events, timeout)?;
        let mut woken = false;
        events.retain(|event| {
            if event.token as u64 == WAKER_TOKEN {
                woken = true;
                false
            } else {
                true
            }
        });
        if woken {
            // Drain the pending wake bytes so level-triggering quiesces; more
            // wakes may race in after the drain, which just means one extra
            // (harmless) pass through the caller's loop.
            let mut buf = [0u8; 64];
            while matches!(self.waker_rx.read(&mut buf), Ok(n) if n > 0) {}
        }
        Ok(())
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("selector", &self.selector)
            .finish()
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! epoll backend.  Constants and the `epoll_event` layout follow
    //! `<sys/epoll.h>`; the struct is packed on x86 (the kernel ABI there)
    //! and naturally aligned elsewhere.

    use super::{Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;

    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub struct Selector {
        epfd: i32,
        /// Kernel-filled buffer reused across polls.
        buf: std::sync::Mutex<Vec<EpollEvent>>,
    }

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            // SAFETY: no pointer crosses the call, only an integer flag.  A
            // failure returns -1 with errno set, which `cvt` turns into an
            // `io::Error` before any fd is stored; a success hands back a
            // fresh fd that only this `Selector` holds and `Drop` closes.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Selector {
                epfd,
                buf: std::sync::Mutex::new(vec![EpollEvent { events: 0, data: 0 }; 256]),
            })
        }

        fn mask(interest: Interest) -> u32 {
            let mut events = EPOLLRDHUP;
            if interest.readable {
                events |= EPOLLIN;
            }
            if interest.writable {
                events |= EPOLLOUT;
            }
            events
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: Self::mask(interest),
                data: token,
            };
            // SAFETY: `event` is a live `EpollEvent` with the kernel's
            // layout (packed on x86, see the struct) on this stack frame for
            // the whole call, and the kernel only reads it.  `self.epfd` is
            // open: it is owned by `self` and closed only in `Drop`.  `fd` is
            // the caller's; a stale or foreign one is refused by the kernel
            // (EBADF / EEXIST / ENOENT), which `cvt` returns as an error —
            // no memory is touched on that path.
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut event) }).map(|_| ())
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut event = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl`.  `EPOLL_CTL_DEL` ignores the event, but
            // kernels before 2.6.9 require a valid pointer, so a live one is
            // passed; an fd that is not registered is an errno (ENOENT) that
            // `cvt` returns.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut event) }).map(|_| ())
        }

        pub fn poll(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
            };
            let mut buf = self.buf.lock().expect("selector poisoned");
            let n = loop {
                // SAFETY: the guard gives this thread the only access to
                // `buf`, whose `len()` initialised entries (256, well inside
                // `i32`) are all writable; the kernel writes at most
                // `maxevents = buf.len()` of them and returns how many.  Only
                // the first `n` of a non-negative return are read below; -1
                // is an errno `cvt` returns (EINTR retries) and reads none.
                let ret = unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
                };
                match cvt(ret) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for raw in buf.iter().take(n) {
                let (events, data) = (raw.events, raw.data);
                out.push(Event {
                    token: data as usize,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    closed: events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Selector {
        fn drop(&mut self) {
            // SAFETY: `epfd` came from a successful `epoll_create1`, is
            // owned by this `Selector` alone (never handed out or
            // duplicated) and `Drop` runs once, so this closes that fd and
            // no other.  The result is ignored: on Linux the fd is released
            // even when `close` reports an error, so there is nothing to
            // retry.
            unsafe {
                close(self.epfd);
            }
        }
    }

    impl std::fmt::Debug for Selector {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Selector(epoll)")
                .field("epfd", &self.epfd)
                .finish()
        }
    }
}

#[cfg(any(target_os = "macos", target_os = "ios", target_os = "freebsd"))]
mod sys {
    //! kqueue backend.  Read and write filters are separate kernel
    //! registrations, so an [`Interest`] maps to up to two kevents.

    use super::{Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::ptr;
    use std::time::Duration;

    const EVFILT_READ: i16 = -1;
    const EVFILT_WRITE: i16 = -2;
    const EV_ADD: u16 = 0x0001;
    const EV_DELETE: u16 = 0x0002;
    const EV_EOF: u16 = 0x8000;
    const EV_ERROR: u16 = 0x4000;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    #[cfg(any(target_os = "macos", target_os = "ios"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct KEvent {
        ident: usize,
        filter: i16,
        flags: u16,
        fflags: u32,
        data: isize,
        udata: u64,
    }

    #[cfg(target_os = "freebsd")]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct KEvent {
        ident: usize,
        filter: i16,
        flags: u16,
        fflags: u32,
        data: i64,
        udata: u64,
        ext: [u64; 4],
    }

    extern "C" {
        fn kqueue() -> i32;
        fn kevent(
            kq: i32,
            changelist: *const KEvent,
            nchanges: i32,
            eventlist: *mut KEvent,
            nevents: i32,
            timeout: *const Timespec,
        ) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    #[cfg(any(target_os = "macos", target_os = "ios"))]
    fn kev(fd: RawFd, filter: i16, flags: u16, token: u64) -> KEvent {
        KEvent {
            ident: fd as usize,
            filter,
            flags,
            fflags: 0,
            data: 0,
            udata: token,
        }
    }

    #[cfg(target_os = "freebsd")]
    fn kev(fd: RawFd, filter: i16, flags: u16, token: u64) -> KEvent {
        KEvent {
            ident: fd as usize,
            filter,
            flags,
            fflags: 0,
            data: 0,
            udata: token,
            ext: [0; 4],
        }
    }

    pub struct Selector {
        kq: i32,
        buf: std::sync::Mutex<Vec<KEvent>>,
    }

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            // SAFETY: no arguments.  A failure is -1 with errno set, which
            // `cvt` returns before any fd is stored; a success is a fresh fd
            // that only this `Selector` holds and `Drop` closes.
            let kq = cvt(unsafe { kqueue() })?;
            Ok(Selector {
                kq,
                buf: std::sync::Mutex::new(vec![kev(0, 0, 0, 0); 256]),
            })
        }

        fn apply(&self, changes: &[KEvent]) -> io::Result<()> {
            // SAFETY: `changes` is a borrowed slice of `KEvent`s laid out as
            // the platform's `struct kevent` (per-OS definitions above),
            // valid for the whole call; the kernel reads exactly
            // `nchanges = changes.len()` of them (at most 2).  The event
            // list is null with a count of 0, so nothing is written, and a
            // null timeout is allowed.  `self.kq` is open until `Drop`.  A
            // rejected change (EBADF, ENOENT) is an errno `cvt` returns.
            cvt(unsafe {
                kevent(
                    self.kq,
                    changes.as_ptr(),
                    changes.len() as i32,
                    ptr::null_mut(),
                    0,
                    ptr::null(),
                )
            })
            .map(|_| ())
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut changes = Vec::with_capacity(2);
            if interest.readable {
                changes.push(kev(fd, EVFILT_READ, EV_ADD, token));
            }
            if interest.writable {
                changes.push(kev(fd, EVFILT_WRITE, EV_ADD, token));
            }
            self.apply(&changes)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            // kqueue has no MOD: re-add the wanted filters, delete the rest
            // (a delete of an absent filter fails with ENOENT; ignore it by
            // issuing deletes one by one).
            let mut adds = Vec::with_capacity(2);
            if interest.readable {
                adds.push(kev(fd, EVFILT_READ, EV_ADD, token));
            } else {
                let _ = self.apply(&[kev(fd, EVFILT_READ, EV_DELETE, token)]);
            }
            if interest.writable {
                adds.push(kev(fd, EVFILT_WRITE, EV_ADD, token));
            } else {
                let _ = self.apply(&[kev(fd, EVFILT_WRITE, EV_DELETE, token)]);
            }
            self.apply(&adds)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let _ = self.apply(&[kev(fd, EVFILT_READ, EV_DELETE, 0)]);
            let _ = self.apply(&[kev(fd, EVFILT_WRITE, EV_DELETE, 0)]);
            Ok(())
        }

        pub fn poll(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let ts;
            let ts_ptr = match timeout {
                None => ptr::null(),
                Some(d) => {
                    ts = Timespec {
                        tv_sec: d.as_secs().min(i64::MAX as u64) as i64,
                        tv_nsec: d.subsec_nanos() as i64,
                    };
                    &ts as *const Timespec
                }
            };
            let mut buf = self.buf.lock().expect("selector poisoned");
            let n = loop {
                // SAFETY: no changes are passed (null, 0).  The guard gives
                // this thread the only access to `buf`, whose `len()`
                // initialised entries (256) are all writable; the kernel
                // writes at most `nevents = buf.len()` and returns how many,
                // and only the first `n` of a non-negative return are read
                // below.  `ts_ptr` is null or points at `ts`, which lives to
                // the end of this function.  -1 is an errno `cvt` returns
                // (EINTR retries) and reads none.
                let ret = unsafe {
                    kevent(
                        self.kq,
                        ptr::null(),
                        0,
                        buf.as_mut_ptr(),
                        buf.len() as i32,
                        ts_ptr,
                    )
                };
                match cvt(ret) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for raw in buf.iter().take(n) {
                out.push(Event {
                    token: raw.udata as usize,
                    readable: raw.filter == EVFILT_READ,
                    writable: raw.filter == EVFILT_WRITE,
                    closed: raw.flags & (EV_EOF | EV_ERROR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Selector {
        fn drop(&mut self) {
            // SAFETY: `kq` came from a successful `kqueue`, is owned by this
            // `Selector` alone and `Drop` runs once, so this closes that fd
            // and no other.  The result is ignored: there is nothing to
            // retry on an fd that is going away.
            unsafe {
                close(self.kq);
            }
        }
    }

    impl std::fmt::Debug for Selector {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Selector(kqueue)")
                .field("kq", &self.kq)
                .finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn waker_interrupts_an_indefinite_poll() {
        let mut reactor = Reactor::new().unwrap();
        let waker = reactor.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        // Blocks until the waker fires; the waker event itself is filtered.
        reactor.poll(&mut events, None).unwrap();
        assert!(events.is_empty());
        handle.join().unwrap();
    }

    #[test]
    fn wakes_coalesce_and_drain() {
        let mut reactor = Reactor::new().unwrap();
        let waker = reactor.waker();
        for _ in 0..1000 {
            waker.wake();
        }
        let mut events = Vec::new();
        reactor
            .poll(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        assert!(events.is_empty());
        // All pending wakes were drained: the next poll times out quietly.
        let start = std::time::Instant::now();
        reactor
            .poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn reports_accept_readiness_and_data_readiness_by_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut reactor = Reactor::new().unwrap();
        reactor
            .register(listener.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();

        let mut client = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        reactor
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "listener must report accept readiness, got {events:?}"
        );

        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        reactor
            .register(server_side.as_raw_fd(), 8, Interest::BOTH)
            .unwrap();
        client.write_all(b"ping").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut saw_readable = false;
        while std::time::Instant::now() < deadline && !saw_readable {
            reactor
                .poll(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            saw_readable = events.iter().any(|e| e.token == 8 && e.readable);
        }
        assert!(saw_readable, "connection data must surface on token 8");
        reactor.deregister(server_side.as_raw_fd()).unwrap();
        reactor.deregister(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn modify_toggles_interest_directions() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut reactor = Reactor::new().unwrap();
        reactor
            .register(server_side.as_raw_fd(), 3, Interest::WRITABLE)
            .unwrap();
        let mut events = Vec::new();
        reactor
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 3 && e.writable),
            "idle socket must be writable, got {events:?}"
        );

        // Flip to read-only interest: writability must stop reporting, so a
        // poll with nothing to read times out empty.
        reactor
            .modify(server_side.as_raw_fd(), 3, Interest::READABLE)
            .unwrap();
        reactor
            .poll(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        assert!(
            events.iter().all(|e| !e.writable),
            "writable interest was dropped, got {events:?}"
        );
        drop(client);
    }

    #[test]
    fn peer_hangup_reports_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut reactor = Reactor::new().unwrap();
        reactor
            .register(server_side.as_raw_fd(), 9, Interest::READABLE)
            .unwrap();
        drop(client);
        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut saw_closed = false;
        while std::time::Instant::now() < deadline && !saw_closed {
            reactor
                .poll(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            saw_closed = events.iter().any(|e| e.token == 9 && e.closed);
        }
        assert!(saw_closed, "peer hangup must report closed");
    }
}
