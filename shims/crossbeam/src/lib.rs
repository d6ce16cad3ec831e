//! Offline stand-in for `crossbeam` (the `channel` module only).
//!
//! A straightforward MPMC channel over `Mutex<VecDeque>` + `Condvar`:
//! clonable senders *and* receivers, bounded/unbounded flavours, and
//! timeout-aware receive — the surface `esds-wire`'s TCP node uses.
//! Throughput is far below real crossbeam's lock-free queues, but
//! correctness semantics match.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    /// Sending half; clonable.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// Receiving half; clonable (MPMC, each message delivered once).
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    struct Chan<T> {
        inner: Mutex<Inner<T>>,
        /// Signalled when a message arrives or the last receiver leaves.
        recv_ready: Condvar,
        /// Signalled when capacity frees up or the last receiver leaves.
        send_ready: Condvar,
        cap: Option<usize>,
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Creates a channel with unlimited buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// Creates a channel buffering at most `cap` in-flight messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap.max(1)))
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            recv_ready: Condvar::new(),
            send_ready: Condvar::new(),
            cap,
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    impl<T> Sender<T> {
        /// Blocks while the channel is full; errors when every receiver
        /// is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.chan.inner.lock().unwrap();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.chan.cap {
                    Some(cap) if inner.queue.len() >= cap => {
                        inner = self.chan.send_ready.wait(inner).unwrap();
                    }
                    _ => break,
                }
            }
            inner.queue.push_back(value);
            drop(inner);
            self.chan.recv_ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.chan.inner.lock().unwrap();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    drop(inner);
                    self.chan.send_ready.notify_one();
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _timed_out) = self
                    .chan
                    .recv_ready
                    .wait_timeout(inner, deadline - now)
                    .unwrap();
                inner = guard;
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.inner.lock().unwrap().senders += 1;
            Sender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.inner.lock().unwrap().receivers += 1;
            Receiver {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut inner = self.chan.inner.lock().unwrap();
                inner.senders -= 1;
                inner.senders
            };
            if remaining == 0 {
                self.chan.recv_ready.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut inner = self.chan.inner.lock().unwrap();
                inner.receivers -= 1;
                inner.receivers
            };
            if remaining == 0 {
                self.chan.send_ready.notify_all();
                self.chan.recv_ready.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvTimeoutError};
    use std::time::Duration;

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn unbounded_roundtrip_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv_timeout(WAIT).unwrap(), 1);
        assert_eq!(rx.recv_timeout(WAIT).unwrap(), 2);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn timeout_fires() {
        let (tx, rx) = unbounded::<i32>();
        let got = rx.recv_timeout(Duration::from_millis(5));
        assert_eq!(got, Err(RecvTimeoutError::Timeout));
        drop(tx);
    }

    #[test]
    fn bounded_blocks_then_drains() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let t = std::thread::spawn(move || tx.send(3).map_err(|_| ()));
        assert_eq!(rx.recv_timeout(WAIT).unwrap(), 1);
        t.join().unwrap().unwrap();
        assert_eq!(rx.recv_timeout(WAIT).unwrap(), 2);
        assert_eq!(rx.recv_timeout(WAIT).unwrap(), 3);
    }

    #[test]
    fn cloned_receiver_shares_stream() {
        let (tx, rx1) = unbounded();
        let rx2 = rx1.clone();
        tx.send(10).unwrap();
        tx.send(20).unwrap();
        let a = rx1.recv_timeout(WAIT).unwrap();
        let b = rx2.recv_timeout(WAIT).unwrap();
        assert_eq!(a + b, 30);
    }
}
