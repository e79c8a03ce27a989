//! Readiness polling over raw syscalls: a minimal epoll + eventfd +
//! `SO_REUSEPORT` wrapper with zero new dependencies.
//!
//! The event-driven server needs exactly four OS facilities: an
//! interest list with edge reporting (`epoll`), a cross-thread wakeup
//! fd (`eventfd`), non-blocking sockets (already in `std`), and
//! kernel-sharded accept (`SO_REUSEPORT` before `bind`). None of them
//! are reachable through `std`, so this module declares the handful of
//! C entry points the platform libc already exports (the same pattern
//! [`crate::server::sigint_flag`] uses for `signal`) instead of pulling
//! in the `libc` crate.
//!
//! Everything here is Linux-only and compiled out elsewhere; there the
//! crate still builds, but [`crate::Server::start`] returns
//! `Unsupported`.

#[cfg(target_os = "linux")]
pub use linux::{bind_reuseport, Event, Poller, Waker};

#[cfg(target_os = "linux")]
mod linux {
    use std::net::{SocketAddr, TcpListener};
    use std::os::raw::{c_int, c_uint, c_void};
    use std::os::unix::io::{FromRawFd, RawFd};

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const c_void, addrlen: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0x80000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: c_int = 0x80000;
    const EFD_NONBLOCK: c_int = 0x800;
    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0x80000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_REUSEPORT: c_int = 15;
    const EINTR: i32 = 4;

    // The kernel ABI packs epoll_event on x86 so the 64-bit data field
    // sits straight after the 32-bit mask; other architectures use
    // natural alignment.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    fn cvt(ret: c_int) -> std::io::Result<c_int> {
        if ret < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// One readiness report from [`Poller::wait`].
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        /// The token the fd was registered with.
        pub token: u64,
        /// The fd is readable (or has pending accepts).
        pub readable: bool,
        /// The fd is writable.
        pub writable: bool,
        /// The peer closed or the fd errored; the owner should read to
        /// EOF/error and drop it.
        pub hangup: bool,
    }

    /// An epoll instance. Level-triggered (the default), so a handler
    /// that cannot finish a buffer in one pass is simply re-woken.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// Creates the epoll instance.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_create1` failure.
        pub fn new() -> std::io::Result<Poller> {
            // SAFETY: plain syscall, no pointers.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
            let mut ev = EpollEvent { events, data: token };
            let evp = if op == EPOLL_CTL_DEL { std::ptr::null_mut() } else { &mut ev };
            // SAFETY: `ev` outlives the call; DEL ignores the pointer.
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, evp) })?;
            Ok(())
        }

        fn mask(readable: bool, writable: bool) -> u32 {
            let mut m = EPOLLRDHUP;
            if readable {
                m |= EPOLLIN;
            }
            if writable {
                m |= EPOLLOUT;
            }
            m
        }

        /// Registers `fd` under `token` with the given interests.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failure.
        pub fn add(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Self::mask(readable, writable), token)
        }

        /// Replaces the interests of an already-registered `fd`.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failure.
        pub fn modify(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Self::mask(readable, writable), token)
        }

        /// Removes `fd` from the interest list (dropping the fd would do
        /// it too; explicit removal keeps the bookkeeping obvious).
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failure.
        pub fn delete(&self, fd: RawFd) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks up to `timeout_ms` (-1 = forever) and appends ready
        /// events to `out`. EINTR is retried internally.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_wait` failure.
        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> std::io::Result<()> {
            const CAP: usize = 256;
            let mut buf = [EpollEvent { events: 0, data: 0 }; CAP];
            let n = loop {
                // SAFETY: `buf` is a valid array of CAP events.
                let r =
                    unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), CAP as c_int, timeout_ms) };
                if r >= 0 {
                    break r as usize;
                }
                let err = std::io::Error::last_os_error();
                if err.raw_os_error() != Some(EINTR) {
                    return Err(err);
                }
            };
            for ev in &buf[..n] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: fd is owned by this Poller and closed exactly once.
            unsafe { close(self.epfd) };
        }
    }

    /// A cross-thread wakeup handle over `eventfd`: any thread calls
    /// [`Waker::wake`], the poller owning the read side gets an
    /// [`Event`] on the waker's token.
    #[derive(Debug)]
    pub struct Waker {
        fd: RawFd,
    }

    impl Waker {
        /// Creates the eventfd (non-blocking, close-on-exec).
        ///
        /// # Errors
        ///
        /// Propagates `eventfd` failure.
        pub fn new() -> std::io::Result<Waker> {
            // SAFETY: plain syscall, no pointers.
            let fd = cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
            Ok(Waker { fd })
        }

        /// The fd to register with a [`Poller`] (readable when woken).
        pub fn fd(&self) -> RawFd {
            self.fd
        }

        /// Wakes the poller. Never blocks: an eventfd counter at
        /// `u64::MAX - 1` would refuse the write, which only means a
        /// wakeup is already pending.
        pub fn wake(&self) {
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a valid u64.
            unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }

        /// Clears pending wakeups so level-triggered polling goes back
        /// to sleep.
        pub fn drain(&self) {
            let mut val: u64 = 0;
            // SAFETY: reads 8 bytes into a valid u64.
            unsafe { read(self.fd, (&mut val as *mut u64).cast(), 8) };
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            // SAFETY: fd is owned by this Waker and closed exactly once.
            unsafe { close(self.fd) };
        }
    }

    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    #[repr(C)]
    struct SockaddrIn6 {
        sin6_family: u16,
        sin6_port: u16,
        sin6_flowinfo: u32,
        sin6_addr: [u8; 16],
        sin6_scope_id: u32,
    }

    /// Binds a listener with `SO_REUSEPORT` set *before* `bind`, which
    /// `std::net::TcpListener` cannot do — every reactor shard binds
    /// the same address and the kernel hash-distributes incoming
    /// connections across their accept queues.
    ///
    /// # Errors
    ///
    /// Propagates socket/bind/listen failure (e.g. another process
    /// holding the port without `SO_REUSEPORT`).
    pub fn bind_reuseport(addr: SocketAddr) -> std::io::Result<TcpListener> {
        let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0) })?;
        // Wrap immediately so every early return closes the fd.
        // SAFETY: `fd` is a fresh socket owned by this listener.
        let listener = unsafe { TcpListener::from_raw_fd(fd) };
        let on: c_int = 1;
        for opt in [SO_REUSEADDR, SO_REUSEPORT] {
            // SAFETY: optval points at a valid c_int of the given size.
            cvt(unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    opt,
                    (&on as *const c_int).cast(),
                    std::mem::size_of::<c_int>() as u32,
                )
            })?;
        }
        match addr {
            SocketAddr::V4(v4) => {
                let sa = SockaddrIn {
                    sin_family: AF_INET as u16,
                    sin_port: v4.port().to_be(),
                    sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                    sin_zero: [0; 8],
                };
                // SAFETY: `sa` is a valid sockaddr_in of the given size.
                cvt(unsafe {
                    bind(
                        fd,
                        (&sa as *const SockaddrIn).cast(),
                        std::mem::size_of::<SockaddrIn>() as u32,
                    )
                })?;
            }
            SocketAddr::V6(v6) => {
                let sa = SockaddrIn6 {
                    sin6_family: AF_INET6 as u16,
                    sin6_port: v6.port().to_be(),
                    sin6_flowinfo: v6.flowinfo(),
                    sin6_addr: v6.ip().octets(),
                    sin6_scope_id: v6.scope_id(),
                };
                // SAFETY: `sa` is a valid sockaddr_in6 of the given size.
                cvt(unsafe {
                    bind(
                        fd,
                        (&sa as *const SockaddrIn6).cast(),
                        std::mem::size_of::<SockaddrIn6>() as u32,
                    )
                })?;
            }
        }
        // SAFETY: plain syscall on the owned fd.
        cvt(unsafe { listen(fd, 1024) })?;
        Ok(listener)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::{Read, Write};
        use std::net::TcpStream;
        use std::os::unix::io::AsRawFd;

        #[test]
        fn poller_reports_read_readiness_and_waker_wakes() {
            let poller = Poller::new().unwrap();
            let listener = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
            let addr = listener.local_addr().unwrap();
            listener.set_nonblocking(true).unwrap();
            poller.add(listener.as_raw_fd(), 1, true, false).unwrap();

            let waker = Waker::new().unwrap();
            poller.add(waker.fd(), 2, true, false).unwrap();

            // Nothing ready yet: a zero-timeout wait returns empty.
            let mut events = Vec::new();
            poller.wait(&mut events, 0).unwrap();
            assert!(events.iter().all(|e| e.token != 1 && e.token != 2));

            // A connection makes the listener readable.
            let mut client = TcpStream::connect(addr).unwrap();
            events.clear();
            poller.wait(&mut events, 2_000).unwrap();
            assert!(events.iter().any(|e| e.token == 1 && e.readable), "{events:?}");
            let (mut srv, _) = listener.accept().unwrap();

            // Data makes the accepted stream readable under its token.
            srv.set_nonblocking(true).unwrap();
            poller.add(srv.as_raw_fd(), 3, true, false).unwrap();
            client.write_all(b"ping").unwrap();
            events.clear();
            poller.wait(&mut events, 2_000).unwrap();
            assert!(events.iter().any(|e| e.token == 3 && e.readable), "{events:?}");
            let mut buf = [0u8; 8];
            assert_eq!(srv.read(&mut buf).unwrap(), 4);

            // The waker fires from another thread, and drains clean.
            let waker = std::sync::Arc::new(waker);
            let w2 = std::thread::spawn({
                let waker = std::sync::Arc::clone(&waker);
                move || waker.wake()
            });
            events.clear();
            poller.wait(&mut events, 2_000).unwrap();
            assert!(events.iter().any(|e| e.token == 2 && e.readable), "{events:?}");
            waker.drain();
            events.clear();
            poller.wait(&mut events, 0).unwrap();
            assert!(!events.iter().any(|e| e.token == 2), "drained waker must sleep");
            w2.join().unwrap();

            poller.delete(srv.as_raw_fd()).unwrap();
        }

        #[test]
        fn reuseport_allows_two_listeners_on_one_port() {
            let first = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
            let addr = first.local_addr().unwrap();
            let second = bind_reuseport(addr).expect("second SO_REUSEPORT bind on same port");
            assert_eq!(second.local_addr().unwrap(), addr);
            // A client reaches one of them.
            let _client = TcpStream::connect(addr).unwrap();
            first.set_nonblocking(true).unwrap();
            second.set_nonblocking(true).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(50));
            let hit = first.accept().is_ok() || second.accept().is_ok();
            assert!(hit, "the connection must land in one accept queue");
        }
    }
}
