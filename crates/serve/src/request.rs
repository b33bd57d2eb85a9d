//! Query requests, results, and batch execution against one snapshot.
//!
//! [`execute_batch`] is the *pure* core of the service: given a
//! [`SnapshotData`] and a batch of requests it produces responses with
//! no clocks, queues, or threads involved. The replay tests lean on
//! this purity — the same snapshot and batch always yield bit-identical
//! responses, which is what makes pinned-epoch serving auditable.

use crate::error::ServeError;
use crate::snapshot::SnapshotData;
use paratreet_geometry::{BoundingBox, Vec3};
use paratreet_tree::query::{
    ball_query_with, entry_subtree, knn_query_with, range_query_with, raycast_with,
};
use paratreet_tree::{Data, Neighbor, QueryScratch, RayHit};
use std::time::{Duration, Instant};

/// The query classes the service answers, used to key latency
/// histograms and traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// k nearest neighbours of a point.
    Knn,
    /// Everything within a radius of a point.
    Ball,
    /// Everything inside an axis-aligned box.
    Range,
    /// First particle along a ray.
    Ray,
}

impl QueryClass {
    /// All classes, in histogram-index order.
    pub const ALL: [QueryClass; 4] =
        [QueryClass::Knn, QueryClass::Ball, QueryClass::Range, QueryClass::Ray];

    /// Stable metric-name segment.
    pub fn label(self) -> &'static str {
        match self {
            QueryClass::Knn => "knn",
            QueryClass::Ball => "ball",
            QueryClass::Range => "range",
            QueryClass::Ray => "ray",
        }
    }

    /// Index into per-class arrays (matches [`QueryClass::ALL`]).
    pub fn index(self) -> usize {
        match self {
            QueryClass::Knn => 0,
            QueryClass::Ball => 1,
            QueryClass::Range => 2,
            QueryClass::Ray => 3,
        }
    }
}

/// One spatial query.
#[derive(Clone, Copy, Debug)]
pub enum Query {
    /// The `k` nearest particles to `pos`.
    Knn {
        /// Query point.
        pos: Vec3,
        /// Neighbour count.
        k: usize,
    },
    /// Every particle within `radius` of `center`.
    Ball {
        /// Ball center.
        center: Vec3,
        /// Ball radius.
        radius: f64,
    },
    /// Ids of every particle inside `bbox`.
    Range {
        /// Query box.
        bbox: BoundingBox,
    },
    /// The first particle within `radius` of the ray.
    Ray {
        /// Ray origin.
        origin: Vec3,
        /// Ray direction (normalized by the kernel).
        dir: Vec3,
        /// Capture radius around the ray.
        radius: f64,
        /// Maximum ray parameter.
        t_max: f64,
    },
}

impl Query {
    /// The class this query is accounted under.
    pub fn class(&self) -> QueryClass {
        match self {
            Query::Knn { .. } => QueryClass::Knn,
            Query::Ball { .. } => QueryClass::Ball,
            Query::Range { .. } => QueryClass::Range,
            Query::Ray { .. } => QueryClass::Ray,
        }
    }

    /// The point the batcher groups by: where the query's first descent
    /// enters the forest.
    pub fn anchor(&self) -> Vec3 {
        match self {
            Query::Knn { pos, .. } => *pos,
            Query::Ball { center, .. } => *center,
            Query::Range { bbox, .. } => bbox.center(),
            Query::Ray { origin, .. } => *origin,
        }
    }
}

/// A query's answer.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResult {
    /// kNN / ball answers: neighbours ascending by distance.
    Neighbors(Vec<Neighbor>),
    /// Range answers: particle ids ascending.
    Ids(Vec<u64>),
    /// Raycast answer.
    Hit(Option<RayHit>),
}

impl QueryResult {
    /// Number of particles in the answer.
    pub fn len(&self) -> usize {
        match self {
            QueryResult::Neighbors(v) => v.len(),
            QueryResult::Ids(v) => v.len(),
            QueryResult::Hit(h) => h.is_some() as usize,
        }
    }

    /// True when the answer holds no particles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An order-sensitive FNV fold over the result's ids and distance
    /// bit patterns. Two results are replay-identical iff their
    /// checksums (and lengths) agree — the serving tests' equality
    /// currency.
    pub fn checksum(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x100_0000_01b3)
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        match self {
            QueryResult::Neighbors(v) => {
                for n in v {
                    h = mix(h, n.id);
                    h = mix(h, n.dist_sq.to_bits());
                }
            }
            QueryResult::Ids(v) => {
                for id in v {
                    h = mix(h, *id);
                }
            }
            QueryResult::Hit(None) => h = mix(h, 0),
            QueryResult::Hit(Some(hit)) => {
                h = mix(h, hit.id);
                h = mix(h, hit.t.to_bits());
            }
        }
        h
    }
}

/// One client request in flight.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Issuing client.
    pub client: u32,
    /// Client-local sequence number.
    pub seq: u32,
    /// The query.
    pub query: Query,
    /// Submission instant — the latency histograms measure from here,
    /// so queue wait counts against the service.
    pub submitted_at: Instant,
    /// Optional completion deadline: workers drop the request at pop
    /// time if it has already passed (answering
    /// [`ServeError::DeadlineExceeded`] instead of doing useless work).
    /// `None` = no deadline.
    pub deadline: Option<Instant>,
}

impl Request {
    /// A request stamped "now", with no deadline.
    pub fn new(client: u32, seq: u32, query: Query) -> Request {
        Request { client, seq, query, submitted_at: Instant::now(), deadline: None }
    }

    /// A request stamped "now" that must complete within `budget`.
    pub fn with_deadline(client: u32, seq: u32, query: Query, budget: Duration) -> Request {
        let now = Instant::now();
        Request { client, seq, query, submitted_at: now, deadline: Some(now + budget) }
    }

    /// The request id used in span links and histogram exemplars:
    /// `client << 32 | seq`, unique per request in a run.
    pub fn id(&self) -> u64 {
        ((self.client as u64) << 32) | self.seq as u64
    }
}

/// One answered request. `result` is a `Result`: the service answers
/// every admitted request, and failures (deadline expiry in queue, a
/// panicked worker) arrive as structured [`ServeError`]s rather than
/// silence or an abort.
#[derive(Clone, Debug)]
pub struct Response {
    /// Issuing client (copied from the request).
    pub client: u32,
    /// Client-local sequence number (copied from the request).
    pub seq: u32,
    /// The snapshot epoch the answer was computed against (0 for
    /// error responses that never reached a snapshot).
    pub epoch: u64,
    /// The answer, or why there is none.
    pub result: Result<QueryResult, ServeError>,
}

/// Runs one query against a forest.
pub fn execute<D: Data>(
    trees: &[paratreet_tree::BuiltTree<D>],
    query: &Query,
    scratch: &mut QueryScratch,
) -> QueryResult {
    match *query {
        Query::Knn { pos, k } => QueryResult::Neighbors(knn_query_with(trees, pos, k, scratch)),
        Query::Ball { center, radius } => {
            QueryResult::Neighbors(ball_query_with(trees, center, radius, scratch))
        }
        Query::Range { bbox } => QueryResult::Ids(range_query_with(trees, &bbox, scratch)),
        Query::Ray { origin, dir, radius, t_max } => {
            QueryResult::Hit(raycast_with(trees, origin, dir, radius, t_max, scratch))
        }
    }
}

/// Answers a batch against one pinned snapshot, grouped by entry
/// subtree: queries whose first descent enters the same Subtree run
/// back-to-back, so the batch walks each arena while it is cache-warm
/// and shares one scratch allocation. The grouping is a stable sort —
/// deterministic for a given snapshot and batch.
pub fn execute_batch<D: Data>(
    snapshot: &SnapshotData<D>,
    requests: &[Request],
    scratch: &mut QueryScratch,
) -> Vec<Response> {
    execute_batch_observed(snapshot, requests, scratch, None)
}

/// Per-request execution observer: called after each request in a batch
/// runs, with `(request index, entry subtree, started, finished)`.
/// Request tracing hooks in here; `None` keeps the pure clock-free path.
pub type ExecObserver<'a> = &'a mut dyn FnMut(usize, usize, Instant, Instant);

/// [`execute_batch`] with an optional per-request observer. The answers
/// are identical with or without one — the observer only *watches* the
/// same entry-subtree-grouped execution order.
pub fn execute_batch_observed<D: Data>(
    snapshot: &SnapshotData<D>,
    requests: &[Request],
    scratch: &mut QueryScratch,
    mut observer: Option<ExecObserver<'_>>,
) -> Vec<Response> {
    let trees = &snapshot.trees;
    let mut order: Vec<(usize, usize)> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| (entry_subtree(trees, r.query.anchor()), i))
        .collect();
    order.sort();
    // Execute in entry-subtree order (cache-warm arenas), but return
    // responses in *request* order so `responses[i]` answers
    // `requests[i]` — callers account per-request without a join.
    let mut out: Vec<Option<Response>> = (0..requests.len()).map(|_| None).collect();
    for (subtree, i) in order {
        let r = &requests[i];
        let started = observer.is_some().then(Instant::now);
        let result = execute(trees, &r.query, scratch);
        if let (Some(obs), Some(t0)) = (observer.as_mut(), started) {
            obs(i, subtree, t0, Instant::now());
        }
        out[i] = Some(Response {
            client: r.client,
            seq: r.seq,
            epoch: snapshot.epoch,
            result: Ok(result),
        });
    }
    out.into_iter().map(|r| r.expect("every request answered")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_particles::gen;
    use paratreet_tree::{CountData, TreeBuilder, TreeType};

    fn snapshot(n: usize, seed: u64) -> SnapshotData<CountData> {
        let ps = gen::clustered(n, 3, seed, 1.0, 1.0);
        let universe = BoundingBox::around(ps.iter().map(|p| p.pos));
        let tree = TreeBuilder::new(TreeType::Octree).bucket_size(8).build(ps, universe);
        SnapshotData::new(0, vec![tree], universe)
    }

    #[test]
    fn batch_answers_match_singles_and_keep_identity() {
        let snap = snapshot(500, 3);
        let mut scratch = QueryScratch::default();
        let c = snap.universe.center();
        let reqs = vec![
            Request::new(1, 0, Query::Knn { pos: c, k: 5 }),
            Request::new(2, 7, Query::Ball { center: c, radius: 0.3 }),
            Request::new(3, 1, Query::Range { bbox: BoundingBox::cube(c, 0.2) }),
            Request::new(
                4,
                2,
                Query::Ray {
                    origin: snap.universe.lo,
                    dir: c - snap.universe.lo,
                    radius: 0.05,
                    t_max: 10.0,
                },
            ),
        ];
        let responses = execute_batch(&snap, &reqs, &mut scratch);
        assert_eq!(responses.len(), reqs.len());
        for resp in &responses {
            let req = reqs
                .iter()
                .find(|r| r.client == resp.client && r.seq == resp.seq)
                .expect("response keeps request identity");
            let single = execute(&snap.trees, &req.query, &mut scratch);
            assert_eq!(*resp.result.as_ref().unwrap(), single);
            assert_eq!(resp.epoch, 0);
        }
    }

    #[test]
    fn batch_execution_is_deterministic() {
        let snap = snapshot(400, 9);
        let reqs: Vec<Request> = (0..50)
            .map(|i| {
                let f = i as f64 / 50.0;
                Request::new(
                    i,
                    0,
                    Query::Knn {
                        pos: snap.universe.lo + (snap.universe.hi - snap.universe.lo) * f,
                        k: 4,
                    },
                )
            })
            .collect();
        let a = execute_batch(&snap, &reqs, &mut QueryScratch::default());
        let b = execute_batch(&snap, &reqs, &mut QueryScratch::default());
        let ka: Vec<u64> = a.iter().map(|r| r.result.as_ref().unwrap().checksum()).collect();
        let kb: Vec<u64> = b.iter().map(|r| r.result.as_ref().unwrap().checksum()).collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn checksum_distinguishes_results() {
        let a = QueryResult::Ids(vec![1, 2, 3]);
        let b = QueryResult::Ids(vec![1, 2, 4]);
        let c = QueryResult::Ids(vec![2, 1, 3]);
        assert_ne!(a.checksum(), b.checksum());
        assert_ne!(a.checksum(), c.checksum(), "checksum is order-sensitive");
        assert_eq!(a.checksum(), QueryResult::Ids(vec![1, 2, 3]).checksum());
    }
}
