//! The workloads' traffic. Every request a client sends is a pure
//! function of `(workload, seed, client, index)`, so a run's trace can
//! be regenerated exactly for the replays that check and trace it.

use msoc_analog::paper_cores;
use msoc_core::MixedSignalSoc;
use msoc_itc02::synth::{random_soc, RandomSocParams};
use msoc_net::wire::WireEdit;
use msoc_net::{tenant_shard, Request, WireAnalogCore, WireJob, WireSoc, WireSocRef, WireSpec};
use msoc_tam::Effort;

/// Closed-loop client connections (one per core of the 2-core host).
pub const CLIENTS: usize = 2;
/// Tenant shards msocd is started with.
pub const SHARDS: usize = 4;
/// TAM widths every workload plans at.
pub const WIDTHS: [u32; 3] = [16, 24, 32];
/// SOCs each warm-hot tenant registers.
pub const WARM_FLEET: usize = 1000;
/// Registered SOCs warm-hot traffic concentrates on.
pub const HOT_SET: usize = 64;
/// Zipf exponent of warm-hot popularity: skewed, but mild enough that
/// the scored prefix's summed makespan does not hinge on one SOC.
const ZIPF_EXPONENT: f64 = 0.8;
/// Fixture SOCs each revise-reboot tenant seeds (150 in all).
pub const REBOOT_FLEET: usize = 75;
/// Requests per revise-reboot cycle.
const REBOOT_CYCLE: usize = 5;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh inline SOCs at Standard effort: planner search and packing.
    ColdPlan,
    /// Registered hot set, all schedule hits: wire, routing, caches.
    WarmHot,
    /// Boot over a persisted fixture, then register, plan, revise, replan.
    ReviseReboot,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "cold-plan" => Some(Workload::ColdPlan),
            "warm-hot" => Some(Workload::WarmHot),
            "revise-reboot" => Some(Workload::ReviseReboot),
            _ => None,
        }
    }

    /// Daemon boots per run. Each pays the workload's set-up and
    /// `setup_s` is their median; a cold-plan boot is only a process
    /// start, so it takes more of them to steady the median.
    pub fn setups(self) -> usize {
        match self {
            Workload::ColdPlan => 21,
            _ => 3,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPlan => "cold-plan",
            Workload::WarmHot => "warm-hot",
            Workload::ReviseReboot => "revise-reboot",
        }
    }
}

/// The SOC a submitted job plans.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// Carried inline in the job.
    Inline(WireSoc),
    /// The client's `n`-th registration (its server id is learned from
    /// the `Registered` reply).
    Slot(usize),
}

/// One request in a client's stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Register an SOC; it becomes the client's next slot.
    Register(WireSoc),
    /// Submit one Standard-effort job.
    Submit(Target, WireSpec),
    /// Apply one edit to a registered slot.
    Revise(usize, WireEdit),
}

impl Step {
    /// The wire request, with slots resolved through `ids` (slot → the
    /// id the serving side returned for that registration).
    pub fn request(&self, tenant: &str, ids: &[u64]) -> Request {
        let tenant = tenant.to_string();
        match self {
            Step::Register(soc) => Request::Register { tenant, soc: soc.clone() },
            Step::Submit(target, spec) => {
                let soc = match target {
                    Target::Inline(soc) => WireSocRef::Inline(soc.clone()),
                    Target::Slot(slot) => WireSocRef::Registered(ids[*slot]),
                };
                let mut job = WireJob::new(soc, spec.clone());
                job.effort = Effort::Standard;
                Request::Submit { tenant, jobs: vec![job] }
            }
            Step::Revise(slot, edit) => {
                Request::Revise { tenant, soc_id: ids[*slot], edits: vec![edit.clone()] }
            }
        }
    }
}

/// splitmix64 finalizer folded over `parts`.
pub fn mix(parts: &[u64]) -> u64 {
    parts.iter().fold(0x243f_6a88_85a3_08d3u64, |acc, &p| {
        let mut z = (acc ^ p).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

/// Digital cores of registered fleets. Their ranges are narrower than
/// `RandomSocParams::default()`, so the cost of a few dozen popular SOCs
/// does not swing a run's figures by seed, and the analog cores set
/// every makespan, so `test_cycles_sum` barely moves between seeds.
/// `cores` is set per SOC.
const FLEET_CORES: RandomSocParams = RandomSocParams {
    cores: 0,
    chains: (2, 8),
    chain_len: (50, 300),
    patterns: (40, 200),
    terminals: (8, 80),
};
/// Digital cores of cold-plan SOCs: enough test data that digital
/// packing sets the makespan of many plans, so `test_cycles_sum` sees
/// packing quality on the workload that exercises the packer.
const COLD_CORES: RandomSocParams =
    RandomSocParams { chain_len: (80, 400), patterns: (100, 500), ..FLEET_CORES };

/// A synthetic mixed-signal SOC: 6–16 digital cores (cycled by `index`
/// so every run sees the same size mix) plus the five paper analog
/// cores. Distinct `content_seed`s give distinct SOCs.
fn synthetic_soc(content_seed: u64, index: usize, tag: &str, cores: RandomSocParams) -> WireSoc {
    let params = RandomSocParams { cores: 6 + index % 11, ..cores };
    let digital = random_soc(content_seed, params);
    let name = format!("{tag}{index}-{content_seed:016x}");
    WireSoc::from_soc(&MixedSignalSoc::new(name, digital, paper_cores()))
}

/// The two tenant names: the first `tenant-<i>` names that msocd's
/// tenant map puts on different shards, so the two clients never share
/// a service.
pub fn tenants() -> [String; CLIENTS] {
    let first = String::from("tenant-0");
    let shard = tenant_shard(&first, SHARDS);
    let second = (1..)
        .map(|i| format!("tenant-{i}"))
        .find(|t| tenant_shard(t, SHARDS) != shard)
        .expect("some tenant name lands on another shard");
    [first, second]
}

/// One client's deterministic request stream.
#[derive(Debug, Clone)]
pub struct Stream {
    workload: Workload,
    seed: u64,
    client: u64,
    /// The SOCs this client registers (warm-hot) or seeds (revise-reboot).
    fleet: Vec<WireSoc>,
    /// Cumulative warm-hot popularity over hot-set ranks.
    popularity: Vec<f64>,
}

impl Stream {
    /// The stream of client `client` under `seed`.
    pub fn new(workload: Workload, seed: u64, client: usize) -> Self {
        let client = client as u64;
        let (size, tag) = match workload {
            Workload::ColdPlan => (0, ""),
            Workload::WarmHot => (WARM_FLEET, "warm"),
            Workload::ReviseReboot => (REBOOT_FLEET, "fixture"),
        };
        let fleet = (0..size)
            .map(|i| {
                let tag = format!("{tag}{client}-");
                synthetic_soc(mix(&[seed, client, i as u64, 1]), i, &tag, FLEET_CORES)
            })
            .collect();
        let weights: Vec<f64> =
            (0..HOT_SET).map(|rank| (rank as f64 + 1.0).powf(-ZIPF_EXPONENT)).collect();
        let total: f64 = weights.iter().sum();
        let popularity = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Stream { workload, seed, client, fleet, popularity }
    }

    /// The fixture a seeding daemon plans before revise-reboot boots
    /// (empty for the other workloads).
    pub fn seeding(&self) -> Vec<Step> {
        match self.workload {
            Workload::ReviseReboot => self
                .fleet
                .iter()
                .map(|soc| {
                    Step::Submit(
                        Target::Inline(soc.clone()),
                        WireSpec::Table { widths: WIDTHS.to_vec() },
                    )
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Set-up traffic before the timed phase: warm-hot registers its
    /// fleet and plans the hot set at every width.
    pub fn setup(&self) -> Vec<Step> {
        match self.workload {
            Workload::WarmHot => {
                let register = self.fleet.iter().map(|soc| Step::Register(soc.clone()));
                let warm = (0..HOT_SET).flat_map(|rank| {
                    WIDTHS.iter().map(move |&width| {
                        Step::Submit(Target::Slot(hot_slot(rank)), WireSpec::Single { width })
                    })
                });
                register.chain(warm).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Requests every run must complete, whatever `--seconds` says; the
    /// plans among them make up `test_cycles_sum`.
    pub fn scored(&self) -> usize {
        match self.workload {
            Workload::ColdPlan => 800,
            Workload::WarmHot => 2000,
            Workload::ReviseReboot => 100 * REBOOT_CYCLE,
        }
    }

    /// The `i`-th request of the timed phase.
    pub fn timed(&self, i: usize) -> Step {
        match self.workload {
            Workload::ColdPlan => {
                // The spec mix and widths cycle with `i` rather than being
                // drawn, so every seed and run length gets the same mix;
                // only SOC content comes from the seed. One request in 8 is
                // a table, so p90 lands inside the table population rather
                // than on its edge.
                let soc = synthetic_soc(
                    mix(&[self.seed, self.client, i as u64, 3]),
                    i,
                    &format!("cold{}-", self.client),
                    COLD_CORES,
                );
                let spec = match i % 8 {
                    0 => WireSpec::Table { widths: WIDTHS.to_vec() },
                    4 => WireSpec::BestWidth { widths: WIDTHS.to_vec() },
                    _ => WireSpec::Single { width: WIDTHS[i % WIDTHS.len()] },
                };
                Step::Submit(Target::Inline(soc), spec)
            }
            Workload::WarmHot => {
                let r = mix(&[self.seed, self.client, i as u64, 2]);
                let width = WIDTHS[(r >> 40) as usize % WIDTHS.len()];
                let u = (r >> 11) as f64 / (1u64 << 53) as f64;
                let rank = self.popularity.iter().position(|&c| u < c).unwrap_or(HOT_SET - 1);
                Step::Submit(Target::Slot(hot_slot(rank)), WireSpec::Single { width })
            }
            Workload::ReviseReboot => {
                // Cycle `c` registers slot `c`, plans it warm at two widths,
                // revises one analog core and plans the revision. Two
                // unchanged plans keep p50 inside the warm-plan population
                // rather than on the edge of the cheap register/revise one.
                let cycle = i / REBOOT_CYCLE;
                let c = mix(&[self.seed, self.client, cycle as u64, 4]);
                let soc = &self.fleet[c as usize % self.fleet.len()];
                let width = |k: usize| WIDTHS[((c >> 40) as usize + k) % WIDTHS.len()];
                match i % REBOOT_CYCLE {
                    0 => Step::Register(soc.clone()),
                    1 => Step::Submit(Target::Slot(cycle), WireSpec::Single { width: width(0) }),
                    2 => Step::Submit(Target::Slot(cycle), WireSpec::Single { width: width(1) }),
                    3 => {
                        let index = (c >> 20) as usize % soc.analog.len();
                        let mut core: WireAnalogCore = soc.analog[index].clone();
                        core.tests[0].4 += 1 + (c >> 48) % 4096;
                        Step::Revise(cycle, WireEdit::ReplaceAnalog { index: index as u64, core })
                    }
                    _ => Step::Submit(Target::Slot(cycle), WireSpec::Single { width: width(0) }),
                }
            }
        }
    }
}

/// Fleet slot of the hot SOC with popularity `rank` (spread over the
/// registry rather than its first entries).
fn hot_slot(rank: usize) -> usize {
    (rank * 15 + 7) % WARM_FLEET
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(stream: &Stream, n: usize) -> Vec<Step> {
        (0..n).map(|i| stream.timed(i)).collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        for workload in [Workload::ColdPlan, Workload::WarmHot, Workload::ReviseReboot] {
            let a = Stream::new(workload, 7, 0);
            let b = Stream::new(workload, 7, 0);
            assert_eq!(a.seeding(), b.seeding());
            assert_eq!(a.setup(), b.setup());
            assert_eq!(prefix(&a, 64), prefix(&b, 64), "{}", workload.name());
            let other_seed = Stream::new(workload, 8, 0);
            assert_ne!(prefix(&a, 64), prefix(&other_seed, 64), "{}", workload.name());
            let other_client = Stream::new(workload, 7, 1);
            assert_ne!(prefix(&a, 64), prefix(&other_client, 64), "{}", workload.name());
        }
    }

    #[test]
    fn cold_plan_never_repeats_an_soc_and_keeps_the_mix() {
        let stream = Stream::new(Workload::ColdPlan, 3, 0);
        let steps = prefix(&stream, 400);
        let mut names = std::collections::HashSet::new();
        let (mut single, mut other) = (0, 0);
        for step in &steps {
            let Step::Submit(Target::Inline(soc), spec) = step else { panic!("{step:?}") };
            assert!(names.insert(soc.name.clone()), "repeated SOC {}", soc.name);
            let digital = soc.modules.iter().filter(|m| m.level > 0).count();
            assert!((6..=16).contains(&digital), "{digital} digital cores");
            assert_eq!(soc.analog.len(), 5);
            match spec {
                WireSpec::Single { .. } => single += 1,
                _ => other += 1,
            }
        }
        assert_eq!((single, other), (300, 100));
    }

    #[test]
    fn revise_reboot_cycles_register_plan_revise_plan() {
        let stream = Stream::new(Workload::ReviseReboot, 5, 1);
        let steps = prefix(&stream, 8 * REBOOT_CYCLE);
        for (cycle, steps) in steps.chunks(REBOOT_CYCLE).enumerate() {
            assert!(matches!(steps[0], Step::Register(_)));
            assert!(matches!(steps[1], Step::Submit(Target::Slot(s), _) if s == cycle));
            assert!(matches!(steps[2], Step::Submit(Target::Slot(s), _) if s == cycle));
            assert_ne!(steps[1], steps[2], "the two unchanged plans use different widths");
            assert!(matches!(steps[3], Step::Revise(s, _) if s == cycle));
            assert_eq!(steps[1], steps[4], "the revision plans the first width again");
        }
        assert_eq!(stream.seeding().len(), REBOOT_FLEET);
    }

    #[test]
    fn tenants_land_on_different_shards() {
        let [a, b] = tenants();
        assert_ne!(tenant_shard(&a, SHARDS), tenant_shard(&b, SHARDS));
    }
}
