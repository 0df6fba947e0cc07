//! `adapt_mail`: one closed-loop thread adapting the paper's three-site
//! mail application. Each operation plans the service for a seeded goal,
//! preflights the plan, executes it (VIG generation, component
//! credentials, Switchboard channels over the simulated network) and
//! tears the deployment down again.
//!
//! Oracle: the plan must preflight clean, the deployment must open one
//! channel per cross-node hop of the plan, and teardown must close every
//! channel and return every CPU reservation.

use crate::gen::Rng;
use crate::stats::Hist;
use crate::trace::Tracer;
use crate::{Config, Phase, Tally, Workload};
use psf_core::{Goal, PlanStep};
use psf_mail::MailWorld;
use psf_netsim::NodeId;
use psf_switchboard::ChannelStatus;
use std::time::{Duration, Instant};

/// Goals the planner can satisfy on `MailWorld::build(2)`: (site, node
/// index within the site, kind). Kind 0: private delivery; 1: cache view
/// within 10 ms; 2: plaintext delivery with no privacy demand.
const GOALS: &[(&str, usize, u8)] = &[
    ("ny", 1, 0),
    ("sd", 0, 0),
    ("sd", 0, 1),
    ("sd", 0, 2),
    ("sd", 1, 0),
    ("sd", 1, 1),
    ("sd", 1, 2),
    ("se", 0, 0),
    ("se", 0, 2),
    ("se", 1, 0),
    ("se", 1, 2),
];
/// Length of the seeded goal sequence each phase walks from its start;
/// every goal appears once in each run of `GOALS.len()` operations.
const SEQUENCE: usize = 4096;
/// Planner counts are averaged over this many leading operations of a
/// phase: the same goals every run, so the counts repeat exactly.
const COUNTED_OPS: usize = 64;

pub struct AdaptMail {
    sequence: Vec<usize>,
    leak_channels: bool,
}

impl AdaptMail {
    pub fn new(cfg: &Config) -> AdaptMail {
        let mut rng = Rng::new(cfg.seed, 8);
        AdaptMail {
            sequence: rng.balanced(SEQUENCE, GOALS.len()),
            leak_channels: cfg.inject_fault,
        }
    }
}

pub struct World {
    mail: MailWorld,
    goals: Vec<Goal>,
    nodes: Vec<NodeId>,
    cpu_baseline: Vec<u32>,
    /// Failures of the set-up's warm-up pass, reported with the run.
    warm_failures: Vec<String>,
}

fn goal(mail: &MailWorld, site: &str, index: usize, kind: u8) -> Goal {
    let node = match site {
        "ny" => mail.sites.ny[index],
        "sd" => mail.sites.sd[index],
        _ => mail.sites.se[index],
    };
    match kind {
        0 => Goal::private("MailI", node),
        k => Goal {
            iface: "MailI".into(),
            client_node: node,
            max_latency_ms: (k == 1).then_some(10.0),
            require_privacy: false,
            require_plaintext_delivery: true,
        },
    }
}

fn cpu_available(mail: &MailWorld, nodes: &[NodeId]) -> Vec<u32> {
    nodes
        .iter()
        .map(|&n| mail.sites.network.node(n).map_or(0, |s| s.cpu_available()))
        .collect()
}

/// Per-operation planner counts, kept for the leading operations.
#[derive(Default, Clone, Copy)]
struct Counts {
    expanded: f64,
    generated: f64,
    memo_pruned: f64,
    channels: f64,
}

impl Workload for AdaptMail {
    type World = World;

    fn setup(&self, _cfg: &Config) -> World {
        let mail = MailWorld::build(2);
        let goals = GOALS
            .iter()
            .map(|&(site, index, kind)| goal(&mail, site, index, kind))
            .collect();
        let nodes = mail.sites.network.node_ids();
        let cpu_baseline = cpu_available(&mail, &nodes);
        let mut world = World {
            mail,
            goals,
            nodes,
            cpu_baseline,
            warm_failures: Vec::new(),
        };
        // Warm-up: adapt once to every goal, so lazy state (VIG output,
        // credential and proof caches) is built before timing starts.
        for goal in &world.goals {
            if let Err(e) = self.adapt(&world, goal, 0, None) {
                world.warm_failures.push(format!("warm-up: {e}"));
            }
        }
        world
    }

    fn run(&self, w: &World, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        let tally = Tally::default();
        let cpu_before = crate::stats::cpu_time_us();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let mut adapt_us = Hist::default();
        let mut round_us = Hist::default();
        let mut counts = Vec::with_capacity(COUNTED_OPS);
        let mut n = 0usize;
        while Instant::now() < deadline {
            let r0 = Instant::now();
            for _ in 0..GOALS.len() {
                let goal = &w.goals[self.sequence[n % SEQUENCE]];
                n += 1;
                tally.attempt();
                let t0 = Instant::now();
                match self.adapt(w, goal, n as u64, tracer) {
                    Ok(c) => {
                        adapt_us.record(t0.elapsed().as_secs_f64() * 1e6);
                        if counts.len() < COUNTED_OPS {
                            counts.push(c);
                        }
                    }
                    Err(e) => tally.fail(e),
                }
            }
            round_us.record(r0.elapsed().as_secs_f64() * 1e6);
        }
        // Goal costs differ tenfold, so the median of single adaptations
        // jumps between goal clusters from run to run. The primary
        // operation is a round over every goal once.
        let mut phase = Phase::new(tally, round_us, started, cpu_before);
        phase.named = vec![
            ("adapt_p50_ms", "ms", adapt_us.quantile(0.5) / 1e3),
            ("adapt_p99_ms", "ms", adapt_us.quantile(0.99) / 1e3),
        ];
        if tracer.is_some() {
            let mean = |f: fn(&Counts) -> f64| {
                counts.iter().map(f).sum::<f64>() / counts.len().max(1) as f64
            };
            let layer = &mut phase.layer;
            layer.insert("core.planner.expanded", mean(|c| c.expanded));
            layer.insert("core.planner.generated", mean(|c| c.generated));
            layer.insert("core.planner.memo_pruned", mean(|c| c.memo_pruned));
            layer.insert("core.deploy.channels", mean(|c| c.channels));
        }
        phase
    }

    fn finish(&self, w: World) -> Vec<String> {
        w.warm_failures
    }
}

impl AdaptMail {
    /// Plan → preflight → execute → teardown, with the oracle's checks.
    fn adapt(
        &self,
        w: &World,
        goal: &Goal,
        req: u64,
        tracer: Option<&Tracer>,
    ) -> Result<Counts, String> {
        let mail = &w.mail;
        let t0 = Instant::now();
        let (plan, stats) = mail.plan_service(goal).map_err(|e| format!("plan: {e}"))?;
        let t1 = Instant::now();
        let violations = mail.deployer.preflight(&mail.registrar, &plan, goal);
        let t2 = Instant::now();
        if let Some(v) = violations.first() {
            return Err(format!(
                "preflight: {} violation(s), first {v:?}",
                violations.len()
            ));
        }
        let mut deployment = mail
            .deployer
            .execute(&plan, goal)
            .map_err(|e| format!("execute: {e}"))?;
        let t3 = Instant::now();
        let hops = plan
            .steps
            .iter()
            .filter(|s| matches!(s, PlanStep::Move { from, to, .. } if from != to))
            .count();
        let opened = deployment.channel_count();
        let watched: Vec<_> = deployment.channels.iter().map(|(c, _)| c.clone()).collect();
        let leaked = if self.leak_channels {
            std::mem::take(&mut deployment.channels)
        } else {
            Vec::new()
        };
        let t4 = Instant::now();
        deployment.teardown(Some(&mail.sites.network), &mail.ny_guard);
        let t5 = Instant::now();
        if let Some(t) = tracer {
            let root = t.span("adapt", 0, req, t.at(t0), t.now());
            t.span("core.planner.plan", root, req, t.at(t0), t.at(t1));
            t.span("core.preflight", root, req, t.at(t1), t.at(t2));
            t.span("core.deploy.execute", root, req, t.at(t2), t.at(t3));
            t.span("core.deploy.teardown", root, req, t.at(t4), t.at(t5));
        }
        let open = watched
            .iter()
            .filter(|c| c.status() != ChannelStatus::Closed)
            .count();
        for (client, server) in &leaked {
            client.close();
            server.close();
        }
        if opened != hops {
            return Err(format!(
                "deployment opened {opened} channel(s) for {hops} cross-node hop(s)"
            ));
        }
        if open > 0 {
            return Err(format!("teardown left {open} of {opened} channel(s) open"));
        }
        if cpu_available(mail, &w.nodes) != w.cpu_baseline {
            return Err("teardown did not return every CPU reservation".into());
        }
        Ok(Counts {
            expanded: stats.expanded as f64,
            generated: stats.generated as f64,
            memo_pruned: stats.memo_pruned as f64,
            channels: opened as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(inject_fault: bool) -> Config {
        Config {
            workload: "adapt_mail".into(),
            seed: 2,
            seconds: 0.6,
            trace: true,
            inject_fault,
            run_dir: std::path::PathBuf::from(".bench_run/test"),
        }
    }

    #[test]
    fn adaptations_are_correct_and_a_leaked_channel_is_caught() {
        let c = cfg(false);
        let m = crate::measure(&c, &AdaptMail::new(&c));
        assert_eq!(m.failed(), 0, "{:?}", m.plain.errors);
        assert!(m.attempted() > 10);
        let c = cfg(true);
        let m = crate::measure(&c, &AdaptMail::new(&c));
        assert!(m.failed() > 0, "channels left open by teardown must fail");
    }
}
