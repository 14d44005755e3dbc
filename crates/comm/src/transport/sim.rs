//! The in-process simulated backend: a re-wirable unbounded channel mesh.
//!
//! PR-8 made the mesh *elastic*: every channel pair lives in a shared
//! registry ([`SimMesh`]) so a rank whose endpoint died (thread exit or
//! panic) can be re-wired back in with [`SimMesh::rejoin`]. Surviving
//! endpoints notice the registry's generation counter tick and refresh
//! their cached channel halves lazily — the steady-state hot path costs
//! one relaxed atomic load on top of the original channel operation.

use super::Transport;
use crate::{CommError, Message, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One directed channel slot of the mesh. The sender half stays
/// resident (it is `Clone`); the receiver half sits in the slot until
/// the owning rank *takes* it — channel receivers cannot be cloned, and
/// a channel has exactly one consumer anyway.
type ChanSlot = Option<(Sender<Message>, Option<Receiver<Message>>)>;

/// An endpoint's cached channel halves: `senders[d]` delivers to rank
/// `d`, `receivers[s]` yields messages sent by rank `s`.
type EndpointCaches = (Vec<Option<Sender<Message>>>, Vec<Option<Receiver<Message>>>);

/// Registry state: one channel per ordered rank pair, plus an
/// incarnation counter per rank so a late `Drop` of a replaced endpoint
/// cannot tear down its successor's wiring.
struct MeshInner {
    /// `chan[s][d]` carries messages from rank `s` to rank `d`; `None`
    /// on the diagonal and for retired (dead, not-yet-rejoined) ranks.
    chan: Vec<Vec<ChanSlot>>,
    /// Bumped by [`SimMesh::rejoin`]; endpoints stamp their own value at
    /// construction and only retire the wiring if it still matches.
    incarnation: Vec<u64>,
}

struct MeshShared {
    inner: Mutex<MeshInner>,
    /// Bumped on every retire/rejoin; endpoints compare against their
    /// cached value to decide whether to re-read the registry.
    generation: AtomicU64,
}

/// Handle to the mesh registry. Cloneable; kept by the test/driver side
/// to re-wire crashed ranks while the surviving endpoints keep running.
#[derive(Clone)]
pub struct SimMesh {
    shared: Arc<MeshShared>,
    size: usize,
}

impl SimMesh {
    /// Number of ranks the mesh was built for.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Re-wires `rank` into the mesh with fresh channels in both
    /// directions and returns its new endpoint. Survivors pick the new
    /// wiring up automatically (lazily, at their next transport call).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= size`.
    pub fn rejoin(&self, rank: usize) -> SimTransport {
        assert!(rank < self.size, "rank {rank} out of range");
        let mut inner = self.shared.inner.lock().unwrap();
        for d in 0..self.size {
            if d != rank {
                let (tx, rx) = channel();
                inner.chan[rank][d] = Some((tx, Some(rx)));
                let (tx, rx) = channel();
                inner.chan[d][rank] = Some((tx, Some(rx)));
            }
        }
        inner.incarnation[rank] += 1;
        let incarnation = inner.incarnation[rank];
        let (senders, receivers) = endpoint_caches(&mut inner, rank, self.size);
        drop(inner);
        let gen = self.shared.generation.fetch_add(1, Ordering::AcqRel) + 1;
        SimTransport {
            rank,
            size: self.size,
            incarnation,
            gen,
            senders,
            receivers,
            mesh: Arc::clone(&self.shared),
        }
    }
}

/// Clones the sender halves and *takes* the pending receiver halves of
/// every channel touching `rank` — the endpoint being built is the
/// channel's one consumer.
fn endpoint_caches(inner: &mut MeshInner, rank: usize, size: usize) -> EndpointCaches {
    let senders = (0..size)
        .map(|d| inner.chan[rank][d].as_ref().map(|(tx, _)| tx.clone()))
        .collect();
    let receivers = (0..size)
        .map(|s| {
            inner.chan[s][rank]
                .as_mut()
                .and_then(|(_, slot)| slot.take())
        })
        .collect();
    (senders, receivers)
}

/// One endpoint of the in-process channel mesh — the transport the
/// simulated [`Cluster`](crate::Cluster) wires up.
///
/// Semantics are exactly those of the pre-trait communicator: sends are
/// unbounded enqueues that never block, a peer whose endpoint is dropped
/// (thread exit or panic) is observed as
/// [`CommError::Disconnected`], and `recv(src, None)` blocks without
/// limit (the simulated clock, not wall time, models waiting). On drop
/// the endpoint retires its wiring from the registry so peers see the
/// disconnect even though the registry itself outlives it.
pub struct SimTransport {
    rank: usize,
    size: usize,
    incarnation: u64,
    /// Registry generation the caches below were read at.
    gen: u64,
    /// `senders[d]` delivers to rank `d`; `None` at `d == rank`.
    senders: Vec<Option<Sender<Message>>>,
    /// `receivers[s]` yields messages sent by rank `s`.
    receivers: Vec<Option<Receiver<Message>>>,
    mesh: Arc<MeshShared>,
}

impl SimTransport {
    /// Builds the full `size × size` channel mesh and returns one
    /// endpoint per rank, in rank order.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn mesh(size: usize) -> Vec<SimTransport> {
        Self::mesh_with_handle(size).1
    }

    /// [`SimTransport::mesh`] plus the [`SimMesh`] handle that can
    /// re-wire crashed ranks back in.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn mesh_with_handle(size: usize) -> (SimMesh, Vec<SimTransport>) {
        assert!(size > 0, "mesh needs at least one rank");
        let mut chan: Vec<Vec<ChanSlot>> = (0..size)
            .map(|_| (0..size).map(|_| None).collect())
            .collect();
        for (s, row) in chan.iter_mut().enumerate() {
            for (d, slot) in row.iter_mut().enumerate() {
                if s != d {
                    let (tx, rx) = channel();
                    *slot = Some((tx, Some(rx)));
                }
            }
        }
        let inner = MeshInner {
            chan,
            incarnation: vec![0; size],
        };
        let shared = Arc::new(MeshShared {
            inner: Mutex::new(inner),
            generation: AtomicU64::new(0),
        });
        let ends = {
            let mut inner = shared.inner.lock().unwrap();
            (0..size)
                .map(|rank| {
                    let (senders, receivers) = endpoint_caches(&mut inner, rank, size);
                    SimTransport {
                        rank,
                        size,
                        incarnation: 0,
                        gen: 0,
                        senders,
                        receivers,
                        mesh: Arc::clone(&shared),
                    }
                })
                .collect()
        };
        (SimMesh { shared, size }, ends)
    }

    /// Re-reads cached channel halves if the registry moved on (a rank
    /// retired or rejoined). Registry entries that are `None` (retired
    /// peers) or whose receiver was already taken leave the existing
    /// cache in place: the old half keeps draining buffered messages and
    /// then reports the disconnect.
    fn refresh(&mut self) {
        let gen = self.mesh.generation.load(Ordering::Acquire);
        if gen == self.gen {
            return;
        }
        let mut inner = self.mesh.inner.lock().unwrap();
        for d in 0..self.size {
            if d == self.rank {
                continue;
            }
            if let Some((tx, _)) = inner.chan[self.rank][d].as_ref() {
                self.senders[d] = Some(tx.clone());
            }
            if let Some(rx) = inner.chan[d][self.rank]
                .as_mut()
                .and_then(|(_, slot)| slot.take())
            {
                self.receivers[d] = Some(rx);
            }
        }
        self.gen = gen;
    }

    fn rx(&self, src: usize) -> &Receiver<Message> {
        self.receivers[src]
            .as_ref()
            .expect("receiver endpoint present for valid peer")
    }
}

impl Drop for SimTransport {
    fn drop(&mut self) {
        // Close the inbound halves before anything outbound: a peer learns
        // of this death when its receive finds no sender left, and a send
        // it makes after that must already fail. (Field order would drop
        // `senders` first and leave a window where that send succeeds.)
        self.receivers.clear();
        let mut inner = self.mesh.inner.lock().unwrap();
        // A replaced endpoint (its rank already rejoined) must not tear
        // down its successor's fresh wiring.
        if inner.incarnation[self.rank] != self.incarnation {
            return;
        }
        for d in 0..self.size {
            inner.chan[self.rank][d] = None;
            inner.chan[d][self.rank] = None;
        }
        drop(inner);
        self.mesh.generation.fetch_add(1, Ordering::AcqRel);
    }
}

impl Transport for SimTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, dest: usize, msg: Message) -> Result<()> {
        self.refresh();
        self.senders[dest]
            .as_ref()
            .expect("sender endpoint present for valid peer")
            .send(msg)
            .map_err(|_| CommError::Disconnected { peer: dest })
    }

    fn recv(&mut self, src: usize, cap: Option<Duration>) -> Result<Message> {
        self.refresh();
        match cap {
            None => self
                .rx(src)
                .recv()
                .map_err(|_| CommError::Disconnected { peer: src }),
            Some(cap) => match self.rx(src).recv_timeout(cap) {
                Ok(m) => Ok(m),
                Err(RecvTimeoutError::Disconnected) => Err(CommError::Disconnected { peer: src }),
                Err(RecvTimeoutError::Timeout) => Err(CommError::Timeout {
                    peer: src,
                    attempts: 1,
                    elapsed_ms: cap.as_secs_f64() * 1e3,
                }),
            },
        }
    }

    fn try_recv(&mut self, src: usize) -> Option<Message> {
        self.refresh();
        self.rx(src).try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Payload;

    fn msg(src: usize, tag: u32) -> Message {
        Message {
            src,
            tag,
            payload: Payload::Scalar(f64::from(tag)),
            arrival_ms: 0.0,
        }
    }

    #[test]
    fn mesh_delivers_in_order() {
        let mut ends = SimTransport::mesh(2);
        let mut b = ends.pop().unwrap();
        let mut a = ends.pop().unwrap();
        for i in 0..10u32 {
            a.send(1, msg(0, i)).unwrap();
        }
        for i in 0..10u32 {
            assert_eq!(b.recv(0, None).unwrap().tag, i);
        }
    }

    #[test]
    fn dropped_endpoint_is_disconnected() {
        let mut ends = SimTransport::mesh(2);
        let mut b = ends.pop().unwrap();
        drop(ends); // rank 0's endpoint (holds the sender into rank 1)
        assert!(matches!(
            b.recv(0, None),
            Err(CommError::Disconnected { peer: 0 })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_mesh_rejected() {
        let _ = SimTransport::mesh(0);
    }

    #[test]
    fn rejoin_restores_connectivity_both_ways() {
        let (mesh, mut ends) = SimTransport::mesh_with_handle(3);
        let mut c = ends.pop().unwrap();
        let b = ends.pop().unwrap();
        let mut a = ends.pop().unwrap();

        // Rank 1 dies: both directions go dark for the survivors.
        drop(b);
        assert!(matches!(
            a.send(1, msg(0, 7)),
            Err(CommError::Disconnected { peer: 1 })
        ));
        assert!(matches!(
            c.recv(1, Some(Duration::from_millis(5))),
            Err(CommError::Disconnected { peer: 1 })
        ));

        // Re-wire it: fresh channels in both directions, for everyone.
        let mut b2 = mesh.rejoin(1);
        a.send(1, msg(0, 42)).unwrap();
        assert_eq!(b2.recv(0, None).unwrap().tag, 42);
        b2.send(2, msg(1, 43)).unwrap();
        assert_eq!(c.recv(1, None).unwrap().tag, 43);
    }

    #[test]
    fn stale_drop_does_not_kill_the_successor() {
        let (mesh, mut ends) = SimTransport::mesh_with_handle(2);
        let mut b = ends.pop().unwrap();
        let a = ends.pop().unwrap();

        // Rank 0 is replaced while its old endpoint is still alive
        // (a hung thread); dropping the stale endpoint afterwards must
        // leave the successor's wiring intact.
        let mut a2 = mesh.rejoin(0);
        drop(a);
        a2.send(1, msg(0, 9)).unwrap();
        assert_eq!(b.recv(0, None).unwrap().tag, 9);
    }

    #[test]
    fn survivor_messages_survive_a_refresh() {
        let (mesh, mut ends) = SimTransport::mesh_with_handle(3);
        let mut c = ends.pop().unwrap();
        let b = ends.pop().unwrap();
        let mut a = ends.pop().unwrap();

        // Buffered survivor traffic must not be lost when the registry
        // generation moves underneath the receiver.
        a.send(2, msg(0, 5)).unwrap();
        drop(b);
        let _b2 = mesh.rejoin(1);
        assert_eq!(c.recv(0, None).unwrap().tag, 5);
    }
}
