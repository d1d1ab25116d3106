//! Bounded job queue between the protocol front-end and the worker pool.
//!
//! A plain `Mutex<VecDeque>` + `Condvar` channel with a hard depth
//! bound: `push` never blocks — at capacity it returns
//! [`PushError::Busy`] and the daemon answers the client with a typed
//! `busy` response (backpressure is the client's problem, by design).
//! `pop` blocks until an item arrives or the queue is closed and
//! drained. The queue carries job *ids*; job state lives in
//! [`crate::job::JobTable`]. The dequeue/cancel interleaving is
//! explored by protocol model P4 in `pulsar-check`.

use crate::lock_clean;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at its depth bound; retry later.
    Busy,
    /// The queue is closed (daemon shutting down); never retry.
    Closed,
}

struct QueueState {
    items: VecDeque<u64>,
    closed: bool,
}

/// Bounded MPMC queue of job ids.
pub struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    depth: usize,
}

impl JobQueue {
    /// Creates a queue holding at most `depth` queued jobs.
    pub fn new(depth: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Enqueues a job id. Never blocks.
    ///
    /// # Errors
    ///
    /// [`PushError::Busy`] at the depth bound, [`PushError::Closed`]
    /// after [`close`](Self::close).
    pub fn push(&self, id: u64) -> Result<(), PushError> {
        let mut st = lock_clean(&self.state);
        if st.closed {
            return Err(PushError::Closed);
        }
        if st.items.len() >= self.depth {
            return Err(PushError::Busy);
        }
        st.items.push_back(id);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues the next job id, blocking while the queue is open and
    /// empty. Returns `None` once the queue is closed and drained —
    /// the worker's signal to exit.
    pub fn pop(&self) -> Option<u64> {
        let mut st = lock_clean(&self.state);
        loop {
            if let Some(id) = st.items.pop_front() {
                return Some(id);
            }
            if st.closed {
                return None;
            }
            st = match self.ready.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Closes the queue: future pushes fail, blocked poppers drain the
    /// backlog and then observe `None`.
    pub fn close(&self) {
        let mut st = lock_clean(&self.state);
        st.closed = true;
        drop(st);
        self.ready.notify_all();
    }

    /// Number of jobs currently queued (racy; for stats only).
    pub fn len(&self) -> usize {
        lock_clean(&self.state).items.len()
    }

    /// True when nothing is queued (racy; for stats only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bounded_push_reports_busy_then_drains() {
        let q = JobQueue::new(2);
        assert_eq!(q.push(1), Ok(()));
        assert_eq!(q.push(2), Ok(()));
        assert_eq!(q.push(3), Err(PushError::Busy));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.push(3), Ok(()));
        q.close();
        assert_eq!(q.push(4), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(JobQueue::new(4));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || q.pop()));
        }
        q.push(9).expect("push");
        q.close();
        let got: Vec<Option<u64>> = handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect();
        assert_eq!(got.iter().filter(|g| g.is_some()).count(), 1);
        assert_eq!(got.iter().filter(|g| g.is_none()).count(), 2);
    }
}
