//! Seeded input generator. Everything a workload feeds the program is made
//! here from the run's seed: the domain graph with its decoys, the user
//! population with pre-signed credentials, and the adaptation goals. The
//! same seed always yields byte-identical inputs.

use psf_drbac::{
    DelegationBuilder, DiscoveryTag, Entity, EntityName, EntityRegistry, Repository, RoleName,
    SignedDelegation, Subject,
};
use std::sync::Arc;

/// SplitMix64: small, fast, and good enough to draw benchmark inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `n` draws from `0..k` in shuffled blocks that each hold every value
    /// once, so any seed yields the same mix: seeds vary the order, not
    /// the proportions.
    pub fn balanced(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n + k);
        while out.len() < n {
            let mut block: Vec<usize> = (0..k).collect();
            self.shuffle(&mut block);
            out.extend(block);
        }
        out.truncate(n);
        out
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// Domains per layer of the role graph.
pub const WIDTH: usize = 6;
/// Role layers `L1..=L7`; a user entering at layer `s` has a chain of
/// `9 - s` edges (user edge, `7 - s` role hops, the final service edge).
pub const LAYERS: usize = 7;
pub const MIN_DEPTH: usize = 2;
pub const MAX_DEPTH: usize = 8;

/// The three views the service's ACL can grant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViewKind {
    Gold,
    Member,
    Guest,
}

impl ViewKind {
    pub fn name(self) -> &'static str {
        match self {
            ViewKind::Gold => "View_Gold",
            ViewKind::Member => "View_Member",
            ViewKind::Guest => "View_Guest",
        }
    }

    pub fn from_name(name: &str) -> Option<ViewKind> {
        [ViewKind::Gold, ViewKind::Member, ViewKind::Guest]
            .into_iter()
            .find(|v| v.name() == name)
    }

    /// The per-view byte the view's method bodies mix into every reply.
    pub fn key(self) -> u8 {
        match self {
            ViewKind::Gold => 0xa5,
            ViewKind::Member => 0x5a,
            ViewKind::Guest => 0x3c,
        }
    }
}

/// The service side of the trust graph plus the layered domain roles that
/// lead to it.
pub struct Graph {
    /// Owns `Svc.Client` (what the handshake demands) and `Svc.Gold`.
    pub svc: Entity,
    /// The server's own identity, holding `Svc.Host`.
    pub host: Entity,
    pub host_cred: SignedDelegation,
    /// `domains[j]` owns the roles `L1..L7` of column `j`.
    pub domains: Vec<Entity>,
    /// Owners of dead-end decoy roles.
    pub decoy_domains: Vec<Entity>,
    /// `next[l][j]`: role `L(l+1)` of column `j` delegates to role
    /// `L(l+2)` of column `next[l][j]` (0-based layers).
    pub next: Vec<[usize; WIDTH]>,
    /// Whether column `j`'s `L7` also maps to `Svc.Gold`.
    pub gold: [bool; WIDTH],
    /// Every role-to-role edge, decoy and service edge (published).
    pub edges: Vec<SignedDelegation>,
    /// `hop[l][j]`: index in `edges` of the edge leaving layer `l` column
    /// `j` on the path to the service.
    hop: Vec<[usize; WIDTH]>,
    /// `svc_edge[j]`: index in `edges` of `L7(j) -> Svc.Client`.
    svc_edge: [usize; WIDTH],
}

pub fn role(domain: &Entity, layer: usize) -> RoleName {
    domain.role(format!("L{}", layer + 1))
}

impl Graph {
    pub fn generate(seed: u64) -> Graph {
        let mut rng = Rng::new(seed, 1);
        let tag = format!("perfbench-{seed}");
        let svc = Entity::with_seed("Svc", tag.as_bytes());
        let host = Entity::with_seed("SvcHost", tag.as_bytes());
        let host_cred = DelegationBuilder::new(&svc)
            .subject_entity(&host)
            .role(svc.role("Host"))
            .sign();
        let domains: Vec<Entity> = (0..WIDTH)
            .map(|j| Entity::with_seed(format!("Dom{j}"), tag.as_bytes()))
            .collect();
        let decoy_domains: Vec<Entity> = (0..3)
            .map(|j| Entity::with_seed(format!("Decoy{j}"), tag.as_bytes()))
            .collect();
        // Each layer maps onto the next by a seeded permutation, so every
        // role has one way in and one way out whatever the seed.
        let mut next = Vec::with_capacity(LAYERS - 1);
        for _ in 0..LAYERS - 1 {
            let mut row: [usize; WIDTH] = std::array::from_fn(|j| j);
            rng.shuffle(&mut row);
            next.push(row);
        }
        // A third of the columns lead to Svc.Gold as well.
        let mut columns: [usize; WIDTH] = std::array::from_fn(|j| j);
        rng.shuffle(&mut columns);
        let mut gold = [false; WIDTH];
        for &j in &columns[..WIDTH / 3] {
            gold[j] = true;
        }

        let mut edges = Vec::new();
        let mut hop = Vec::with_capacity(LAYERS - 1);
        for (l, row) in next.iter().enumerate() {
            let mut idx = [0usize; WIDTH];
            for j in 0..WIDTH {
                let to = &domains[row[j]];
                idx[j] = edges.len();
                edges.push(
                    DelegationBuilder::new(to)
                        .subject_role(role(&domains[j], l))
                        .role(role(to, l + 1))
                        .sign(),
                );
            }
            hop.push(idx);
        }
        let mut svc_edge = [0usize; WIDTH];
        for j in 0..WIDTH {
            let last = role(&domains[j], LAYERS - 1);
            svc_edge[j] = edges.len();
            edges.push(
                DelegationBuilder::new(&svc)
                    .subject_role(last.clone())
                    .role(svc.role("Client"))
                    .sign(),
            );
            if gold[j] {
                edges.push(
                    DelegationBuilder::new(&svc)
                        .subject_role(last)
                        .role(svc.role("Gold"))
                        .sign(),
                );
            }
        }
        // Decoys: every role has one dead-end branch two hops deep, owned
        // by a seeded decoy domain, so proof search expands nodes that lead
        // nowhere.
        for l in 0..LAYERS {
            for (j, domain) in domains.iter().enumerate() {
                let owner = &decoy_domains[rng.below(3) as usize];
                let dead = owner.role(format!("Dead{l}_{j}"));
                edges.push(
                    DelegationBuilder::new(owner)
                        .subject_role(role(domain, l))
                        .role(dead.clone())
                        .sign(),
                );
                edges.push(
                    DelegationBuilder::new(owner)
                        .subject_role(dead)
                        .role(owner.role(format!("Deeper{l}_{j}")))
                        .sign(),
                );
            }
        }
        Graph {
            svc,
            host,
            host_cred,
            domains,
            decoy_domains,
            next,
            gold,
            edges,
            hop,
            svc_edge,
        }
    }

    pub fn register(&self, registry: &EntityRegistry) {
        registry.register(&self.svc);
        registry.register(&self.host);
        for d in self.domains.iter().chain(&self.decoy_domains) {
            registry.register(d);
        }
    }

    pub fn publish(&self, repository: &Repository) {
        for e in &self.edges {
            repository.publish(e.body.issuer.clone(), e.clone(), DiscoveryTag::Both);
        }
    }

    /// Follow the graph from `(layer, column)` to the service: the view
    /// the ACL must grant and the role edges on the way (service edge
    /// last).
    pub fn path(&self, layer: usize, column: usize) -> (ViewKind, Vec<SignedDelegation>) {
        let mut j = column;
        let mut out = Vec::new();
        for l in layer..LAYERS - 1 {
            out.push(self.edges[self.hop[l][j]].clone());
            j = self.next[l][j];
        }
        out.push(self.edges[self.svc_edge[j]].clone());
        let view = if self.gold[j] {
            ViewKind::Gold
        } else {
            ViewKind::Member
        };
        (view, out)
    }
}

/// One generated user: identity, the delegation that admits it to the
/// graph, what it presents in the hello, and the view it must be granted.
pub struct User {
    pub entity: Entity,
    /// `[ user -> L(s) ] Dom(j)`.
    pub cred: SignedDelegation,
    /// Empty for users that rely on repository discovery.
    pub presented: Vec<SignedDelegation>,
    pub view: ViewKind,
    /// Edges on the user's chain (user edge included).
    pub depth: usize,
}

/// Seeded (chain depth, entry column) pairs with every depth in
/// `MIN_DEPTH..=MAX_DEPTH` and every column equally often.
fn entries(rng: &mut Rng, n: usize) -> Vec<(usize, usize)> {
    let depths = rng.balanced(n, MAX_DEPTH - MIN_DEPTH + 1);
    let columns = rng.balanced(n, WIDTH);
    depths
        .into_iter()
        .zip(columns)
        .map(|(d, c)| (MIN_DEPTH + d, c))
        .collect()
}

/// One user with a chain of `depth` edges entering at `column`.
/// `present` decides whether the chain travels in the hello. Users that
/// rely on discovery must have `cred` published by the caller.
fn user(
    graph: &Graph,
    name: String,
    key_seed: &[u8],
    (depth, column): (usize, usize),
    present: bool,
) -> User {
    let layer = LAYERS + 1 - depth; // 0-based entry layer
    let entity = Entity::with_seed(name, key_seed);
    let cred = DelegationBuilder::new(&graph.domains[column])
        .subject_entity(&entity)
        .role(role(&graph.domains[column], layer))
        .sign();
    let (view, chain) = graph.path(layer, column);
    let presented = if present {
        std::iter::once(cred.clone()).chain(chain).collect()
    } else {
        Vec::new()
    };
    User {
        entity,
        cred,
        presented,
        view,
        depth,
    }
}

/// A population of `n` users, a seeded `present_pct` percent of which
/// present their chain in the hello.
pub fn population(graph: &Graph, seed: u64, n: usize, present_pct: u64) -> Vec<Arc<User>> {
    let mut rng = Rng::new(seed, 2);
    let key_seed = format!("perfbench-users-{seed}");
    let presents = rng.balanced(n, 100);
    entries(&mut rng, n)
        .into_iter()
        .zip(presents)
        .enumerate()
        .map(|(i, (entry, p))| {
            Arc::new(user(
                graph,
                format!("User{i}"),
                key_seed.as_bytes(),
                entry,
                (p as u64) < present_pct,
            ))
        })
        .collect()
}

/// Publish the delegations of users that rely on discovery.
pub fn publish_discovery(users: &[Arc<User>], repository: &Repository) {
    for u in users.iter().filter(|u| u.presented.is_empty()) {
        repository.publish(
            u.cred.body.issuer.clone(),
            u.cred.clone(),
            DiscoveryTag::Both,
        );
    }
}

/// One writer input for the durable workload: a new user's delegation,
/// signed ahead of time.
pub struct Grant {
    pub home: EntityName,
    pub subject: Subject,
    pub cred: SignedDelegation,
    pub id: String,
    pub view: ViewKind,
}

/// `n` pre-signed grants for new users, signed on two threads. The users
/// share one key pair (only their names differ): the publish path never
/// looks at a subject's key, and sharing it halves generation time.
pub fn grants(graph: &Graph, seed: u64, n: usize) -> Vec<Grant> {
    let template = Entity::with_seed("Writer", format!("perfbench-writer-{seed}").as_bytes());
    let draws: Vec<(usize, usize)> = entries(&mut Rng::new(seed, 3), n)
        .into_iter()
        .map(|(depth, column)| (LAYERS + 1 - depth, column))
        .collect();
    let sign = |range: std::ops::Range<usize>| -> Vec<Grant> {
        range
            .map(|i| {
                let (layer, column) = draws[i];
                let mut user = template.clone();
                user.name = EntityName(format!("Writer{i}"));
                let domain = &graph.domains[column];
                let cred = DelegationBuilder::new(domain)
                    .subject_entity(&user)
                    .role(role(domain, layer))
                    .sign();
                Grant {
                    home: domain.name.clone(),
                    subject: user.as_subject(),
                    id: cred.id(),
                    cred,
                    view: graph.path(layer, column).0,
                }
            })
            .collect()
    };
    let half = n / 2;
    std::thread::scope(|s| {
        let second = s.spawn(|| sign(half..n));
        let mut out = sign(0..half);
        out.extend(second.join().expect("grant signer panicked"));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Graph::generate(5);
        let b = Graph::generate(5);
        assert_eq!(a.edges.len(), b.edges.len());
        for (x, y) in a.edges.iter().zip(&b.edges) {
            assert_eq!(x.id(), y.id());
        }
        let pa = population(&a, 5, 20, 50);
        let pb = population(&b, 5, 20, 50);
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.cred.id(), y.cred.id());
            assert_eq!(x.view, y.view);
        }
    }

    #[test]
    fn chains_span_two_to_eight_edges() {
        let g = Graph::generate(9);
        let users = population(&g, 9, 200, 100);
        for u in &users {
            assert!((MIN_DEPTH..=MAX_DEPTH).contains(&u.depth));
            assert_eq!(u.presented.len(), u.depth);
        }
        let depths: std::collections::BTreeSet<usize> = users.iter().map(|u| u.depth).collect();
        assert_eq!(depths.len(), MAX_DEPTH - MIN_DEPTH + 1);
    }
}
