//! Circuit-wide fault campaigns: run §5 test generation over *every*
//! candidate fault site of a netlist and aggregate the result into the
//! numbers a test engineer needs — how many sites are testable, with what
//! pattern count, and what defect-resistance coverage the pattern set
//! achieves. This is the "large combinational networks" application the
//! paper's conclusion points to.

use crate::checkpoint::{decode_f64, encode_f64, Checkpoint, CheckpointSpec, CheckpointValue};
use crate::durable::{resolve, Completeness};
use crate::error::CoreError;
use crate::resilience::{error_kind, ResilienceConfig};
use crate::testgen::{PathTestPlan, SitePlanner, TestgenConfig, R_REL_TOL};
use pulsar_analog::{FaultPlan, Polarity};
use pulsar_logic::{collapsed_fault_sites, GateId, InputVector, Netlist, Path, PathStep, SignalId};
use pulsar_mc::{MonteCarlo, SampleOutcome, Summary};
use pulsar_obs::json::{json_str, Json};
use pulsar_obs::{config_digest, CancelToken, Counter as ObsCounter, Event, Phase, Recorder};
use pulsar_timing::TimingLibrary;
use std::fmt::Write as _;

/// A campaign over all (or a stride-sampled subset of) fault sites of a
/// netlist.
///
/// Fault sites are the external-ROP locations: every gate output and
/// every primary input (a resistive via on the net's fan-out branch).
/// With `collapse` enabled, path-equivalent sites are grouped first
/// (see [`collapsed_fault_sites`]) and only the group representatives are
/// planned — same coverage, fewer runs.
///
/// # Example
///
/// ```
/// use pulsar_core::Campaign;
/// use pulsar_logic::c17;
/// use pulsar_timing::TimingLibrary;
///
/// # fn main() -> Result<(), pulsar_core::CoreError> {
/// let nl = c17();
/// let report = Campaign::default().run(&nl, &TimingLibrary::generic())?;
/// assert!(report.planned > 0);
/// // Huge opens are always caught by the planned sites' tests.
/// assert!(report.coverage_at(1e6) > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Test-generation knobs applied per site.
    pub cfg: TestgenConfig,
    /// Probe every `stride`-th site (1 = exhaustive).
    pub stride: usize,
    /// Worker threads (`None` = all cores).
    pub threads: Option<usize>,
    /// Collapse path-equivalent sites before planning.
    pub collapse: bool,
    /// Test-only deterministic fault plan, keyed by *probed site index*
    /// (after collapsing and striding). A due fault fails that site's
    /// planning with the planned error — campaign planning never reaches
    /// the analog solver, so the plan is honored at this level. `None`
    /// in production.
    pub fault_plan: Option<FaultPlan>,
    /// Observability recorder for the campaign. Disabled by default;
    /// enabled, it times site enumeration, counts per-site outcomes, and
    /// journals one `"site"` event per probed site.
    pub obs: Recorder,
    /// Resilience knobs honored by both entry points ([`Campaign::run`],
    /// [`Campaign::run_durable`]): `deadline` truncates the run at a site
    /// boundary, `contain_panics` converts a panicking site into a
    /// [`SiteOutcome::Failed`]. A site gets one attempt and no per-site
    /// timeout, so `max_attempts` and `sample_timeout` do not apply, and
    /// failed sites are recorded, so neither does `failure_budget`.
    pub resilience: ResilienceConfig,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign {
            cfg: TestgenConfig::default(),
            stride: 1,
            threads: None,
            collapse: true,
            fault_plan: None,
            obs: Recorder::disabled(),
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Outcome of one site inside a campaign.
#[derive(Debug, Clone)]
pub enum SiteOutcome {
    /// A ranked plan exists; carries the best one.
    Planned(PathTestPlan),
    /// No path through the site could be sensitized.
    Unsensitizable,
    /// Test generation failed for another reason (kept for the report).
    Failed(CoreError),
}

/// Checkpoint payload for one campaign site: the durable subset of
/// [`SiteOutcome`]. `Failed` is deliberately *not* representable — a
/// failed site re-plans deterministically on resume instead of having its
/// error serialized.
#[derive(Debug, Clone)]
pub enum SitePlanRecord {
    /// The site's best plan.
    Planned(PathTestPlan),
    /// No path through the site could be sensitized.
    Unsensitizable,
}

/// Decodes the `"planned"` shape; `None` on any mismatch.
fn decode_planned(v: &Json) -> Option<SitePlanRecord> {
    let from = SignalId::from_index(crate::checkpoint::as_usize(v.get("from")?)?);
    let steps = match v.get("steps")? {
        Json::Arr(items) => {
            let mut steps = Vec::with_capacity(items.len());
            for it in items {
                let Json::Arr(pair) = it else { return None };
                if pair.len() != 2 {
                    return None;
                }
                steps.push(PathStep {
                    gate: GateId::from_index(crate::checkpoint::as_usize(&pair[0])?),
                    pin: crate::checkpoint::as_usize(&pair[1])?,
                });
            }
            steps
        }
        _ => return None,
    };
    let mut values = Vec::new();
    for c in v.get("vector")?.as_str()?.chars() {
        values.push(match c {
            '1' => Some(true),
            '0' => Some(false),
            'x' => None,
            _ => return None,
        });
    }
    let polarity = match v.get("polarity")?.as_str()? {
        "positive" => Polarity::PositiveGoing,
        "negative" => Polarity::NegativeGoing,
        _ => return None,
    };
    let w_in = decode_f64(v.get("w_in")?)?;
    let w_th = decode_f64(v.get("w_th")?)?;
    let r_min = match v.get("r_min")? {
        Json::Null => None,
        other => Some(decode_f64(other)?),
    };
    Some(SitePlanRecord::Planned(PathTestPlan {
        path: Path { from, steps },
        vector: InputVector { values },
        polarity,
        w_in,
        w_th,
        r_min,
    }))
}

impl CheckpointValue for SitePlanRecord {
    const TAG: &'static str = "site-plan";

    fn encode_json(&self) -> String {
        let p = match self {
            SitePlanRecord::Unsensitizable => {
                return "{\"site\":\"unsensitizable\"}".to_owned();
            }
            SitePlanRecord::Planned(p) => p,
        };
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"site\":\"planned\",\"from\":{},\"steps\":[",
            p.path.from.index()
        );
        for (i, st) in p.path.steps.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[{},{}]", st.gate.index(), st.pin);
        }
        // The input vector as a trit string: '0' / '1' / 'x' (don't-care),
        // indexed by signal id like the vector itself.
        let mut trits = String::with_capacity(p.vector.values.len());
        for v in &p.vector.values {
            trits.push(match v {
                Some(true) => '1',
                Some(false) => '0',
                None => 'x',
            });
        }
        let pol = match p.polarity {
            Polarity::PositiveGoing => "positive",
            Polarity::NegativeGoing => "negative",
        };
        let _ = write!(
            s,
            "],\"vector\":{},\"polarity\":{},\"w_in\":{},\"w_th\":{},\"r_min\":",
            json_str(&trits),
            json_str(pol),
            encode_f64(p.w_in),
            encode_f64(p.w_th)
        );
        match p.r_min {
            Some(r) => s.push_str(&encode_f64(r)),
            None => s.push_str("null"),
        }
        s.push('}');
        s
    }

    fn decode_json(v: &Json) -> Option<Self> {
        match v.get("site")?.as_str()? {
            "unsensitizable" => Some(SitePlanRecord::Unsensitizable),
            "planned" => decode_planned(v),
            _ => None,
        }
    }
}

/// Aggregated campaign result.
#[derive(Debug)]
pub struct CampaignReport {
    /// Per-site outcomes, in site order. In a durable run truncated by a
    /// deadline or interrupt, only the *done* sites appear — see
    /// [`CampaignReport::completeness`].
    pub sites: Vec<(SignalId, SiteOutcome)>,
    /// Number of sites with a usable plan.
    pub planned: usize,
    /// Number of unsensitizable sites.
    pub unsensitizable: usize,
    /// Number of sites that errored.
    pub failed: usize,
    /// How much of the campaign actually ran: complete unless a deadline
    /// or interrupt cut the run, in which case it reports honest partial
    /// progress.
    pub completeness: Completeness,
}

impl CampaignReport {
    /// Builds a report from per-site outcomes, deriving the counts.
    fn from_parts(sites: Vec<(SignalId, SiteOutcome)>, completeness: Completeness) -> Self {
        let planned = sites
            .iter()
            .filter(|(_, o)| matches!(o, SiteOutcome::Planned(_)))
            .count();
        let unsensitizable = sites
            .iter()
            .filter(|(_, o)| matches!(o, SiteOutcome::Unsensitizable))
            .count();
        let failed = sites
            .iter()
            .filter(|(_, o)| matches!(o, SiteOutcome::Failed(_)))
            .count();
        CampaignReport {
            sites,
            planned,
            unsensitizable,
            failed,
            completeness,
        }
    }
    /// All best plans, in site order.
    pub fn plans(&self) -> impl Iterator<Item = (&SignalId, &PathTestPlan)> {
        self.sites.iter().filter_map(|(s, o)| match o {
            SiteOutcome::Planned(p) => Some((s, p)),
            _ => None,
        })
    }

    /// Summary of the minimum detectable resistance across planned sites
    /// (only sites detectable inside the bracket contribute).
    ///
    /// Returns `None` when no site was detectable.
    pub fn r_min_summary(&self) -> Option<Summary> {
        let rmins: Vec<f64> = self.plans().filter_map(|(_, p)| p.r_min).collect();
        if rmins.is_empty() {
            None
        } else {
            Some(Summary::of(&rmins))
        }
    }

    /// Site-level fault coverage as a function of defect resistance: the
    /// fraction of *probed, sensitizable* sites whose best plan detects a
    /// defect of resistance `r` or larger (`r_min ≤ r`).
    pub fn coverage_at(&self, r: f64) -> f64 {
        let planned: Vec<_> = self.plans().collect();
        if planned.is_empty() {
            return 0.0;
        }
        let detected = planned
            .iter()
            .filter(|(_, p)| p.r_min.map(|m| m <= r).unwrap_or(false))
            .count();
        detected as f64 / planned.len() as f64
    }

    /// The campaign's pattern count: one (vector, pulse) pair per planned
    /// site — the "small amount of test data" argument of the paper's §1.
    pub fn pattern_count(&self) -> usize {
        self.planned
    }

    /// The sites whose test generation errored, with their errors, in
    /// site order. Unsensitizable sites are *not* failures — they are an
    /// expected outcome of real netlists and are counted separately.
    pub fn failures(&self) -> impl Iterator<Item = (&SignalId, &CoreError)> {
        self.sites.iter().filter_map(|(s, o)| match o {
            SiteOutcome::Failed(e) => Some((s, e)),
            _ => None,
        })
    }

    /// Human-readable multi-line summary: site counts, pattern count,
    /// `R_min` statistics, and every failed site with its error.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "sites probed = {}, planned = {}, unsensitizable = {}, failed = {}",
            self.sites.len(),
            self.planned,
            self.unsensitizable,
            self.failed
        );
        if let Some(why) = self.completeness.truncated {
            let _ = writeln!(
                s,
                "TRUNCATED ({why}): {}/{} sites done ({} restored from checkpoint)",
                self.completeness.done, self.completeness.requested, self.completeness.resumed
            );
        }
        let _ = writeln!(s, "pattern count = {}", self.pattern_count());
        if let Some(r) = self.r_min_summary() {
            let _ = writeln!(
                s,
                "R_min over planned sites: min {:.3e}, mean {:.3e}, max {:.3e} ohm",
                r.min, r.mean, r.max
            );
        }
        for (site, e) in self.failures() {
            let _ = writeln!(s, "failed site {site:?}: {e}");
        }
        s
    }

    /// The canonical `pulsar campaign` report text: site counts,
    /// checkpoint/truncation accounting, pattern and compacted-session
    /// counts, `R_min` statistics, and the fixed coverage ladder. The
    /// one-shot CLI and the serve daemon both render through here, so an
    /// identical config digest yields byte-identical report text
    /// regardless of the entry point. `resumed_from` names the
    /// checkpoint the run restored sites from, when it did.
    pub fn render_report(&self, nl: &Netlist, resumed_from: Option<&str>) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} sites probed: {} planned, {} unsensitizable, {} failed",
            self.sites.len(),
            self.planned,
            self.unsensitizable,
            self.failed
        );
        if self.completeness.resumed > 0 {
            let _ = writeln!(
                out,
                "checkpoint: {} of {} sites restored from {}",
                self.completeness.resumed,
                self.completeness.done,
                resumed_from.unwrap_or("-"),
            );
        }
        if let Some(why) = self.completeness.truncated {
            let _ = writeln!(
                out,
                "TRUNCATED ({why}): {} of {} sites done",
                self.completeness.done, self.completeness.requested
            );
        }
        let _ = writeln!(out, "pattern count: {}", self.pattern_count());
        let plans: Vec<_> = self
            .sites
            .iter()
            .filter_map(|(_, o)| match o {
                SiteOutcome::Planned(p) => Some(p.clone()),
                _ => None,
            })
            .collect();
        let sessions = crate::compact_patterns(nl, &plans);
        let _ = writeln!(out, "compacted vector-load sessions: {}", sessions.len());
        if let Some(s) = self.r_min_summary() {
            let _ = writeln!(
                out,
                "R_min: min {:.3e}, mean {:.3e}, max {:.3e} ohm",
                s.min, s.mean, s.max
            );
        }
        for r in [1e3, 10e3, 100e3, 1e6] {
            let _ = writeln!(
                out,
                "site coverage at {:>9.0} ohm: {:.3}",
                r,
                self.coverage_at(r)
            );
        }
        out
    }
}

impl Campaign {
    /// Runs the campaign over `nl` using gate-kind models from `lib`: the
    /// uncheckpointed [`Campaign::run_durable`] under a fresh token, so
    /// [`Campaign::resilience`] applies here too.
    ///
    /// Sites that cannot be sensitized or whose generation fails are
    /// recorded, not fatal — a campaign must survive odd corners of real
    /// netlists.
    ///
    /// # Errors
    ///
    /// As for [`Campaign::run_durable`]; without a checkpoint that is
    /// only [`CoreError::InvalidPlan`] for an unusable
    /// [`TestgenConfig::r_bracket`].
    pub fn run(&self, nl: &Netlist, lib: &TimingLibrary) -> Result<CampaignReport, CoreError> {
        self.run_durable(nl, lib, &CancelToken::new(), None)
    }

    /// The deterministic probed-site list for `nl` under this campaign's
    /// collapse/stride settings. This ordering is also the checkpoint
    /// index space: site `i` here is record index `i` in a durable run's
    /// checkpoint file.
    fn probed_sites(&self, nl: &Netlist) -> Vec<SignalId> {
        // Candidate sites: PIs + gate outputs — collapsed to group
        // representatives when enabled — then stride-sampled.
        let sites: Vec<SignalId> = if self.collapse {
            collapsed_fault_sites(nl)
                .into_iter()
                .map(|g| g.representative)
                .collect()
        } else {
            let mut v: Vec<SignalId> = nl.inputs().to_vec();
            v.extend(nl.gates().iter().map(|g| g.output));
            v
        };
        sites.into_iter().step_by(self.stride.max(1)).collect()
    }

    /// Emits one `"site"` journal event and bumps the per-outcome counter.
    fn journal_site(&self, i: usize, site: SignalId, o: &SiteOutcome) {
        let mut ev = Event::new("site", i);
        ev.label = Some(format!("{site:?}"));
        match o {
            SiteOutcome::Planned(_) => {
                ev.outcome = "planned";
                self.obs.add(ObsCounter::SitesPlanned, 1);
            }
            SiteOutcome::Unsensitizable => {
                ev.outcome = "unsensitizable";
                self.obs.add(ObsCounter::SitesUnsensitizable, 1);
            }
            SiteOutcome::Failed(e) => {
                ev.outcome = "failed";
                ev.error_kind = Some(error_kind(e).to_owned());
                if let CoreError::Panic { message } = e {
                    ev.detail = Some(message.clone());
                }
                self.obs.add(ObsCounter::SitesFailed, 1);
            }
        }
        self.obs.event(ev);
    }

    /// The [`CheckpointSpec`] identifying a durable run of this campaign
    /// over `nl`: the config digest covers the testgen knobs, collapse,
    /// stride, *and* the resolved probed-site list, so a checkpoint can
    /// never be resumed against a different netlist or site ordering. It
    /// also names the `R_min` search and its tolerance, so a checkpoint
    /// written under another search, whose `R_min` differ in their low
    /// bits, is refused instead of mixed into one report.
    pub fn checkpoint_spec(&self, nl: &Netlist) -> CheckpointSpec {
        self.spec_for(&self.probed_sites(nl))
    }

    /// [`Campaign::checkpoint_spec`] of a netlist whose probed sites are
    /// `sites`.
    fn spec_for(&self, sites: &[SignalId]) -> CheckpointSpec {
        let digest = config_digest(&format!(
            "campaign cfg={:?} stride={} collapse={} sites={:?} rmin=illinois-{R_REL_TOL:e}",
            self.cfg, self.stride, self.collapse, sites
        ));
        CheckpointSpec {
            config_digest: digest,
            seed: 0,
            samples: sites.len(),
        }
    }

    /// Durable variant of [`Campaign::run`]: cooperative cancellation
    /// through `run_token`, the [`ResilienceConfig::deadline`] wall-clock
    /// budget, opt-in panic containment, and crash-consistent
    /// checkpoint/resume (per-site completion records; failed sites
    /// re-plan deterministically on resume).
    ///
    /// A cancelled or deadline-cut run returns the sites it finished —
    /// [`CampaignReport::completeness`] says how many and why it stopped —
    /// and the checkpoint (when given) holds everything needed to resume.
    /// Open it with [`Checkpoint::open`] under [`Campaign::checkpoint_spec`]:
    /// the same call starts a fresh durable run and resumes an interrupted
    /// one. An uninterrupted durable run is identical to [`Campaign::run`]
    /// outcome-for-outcome ([`Campaign::run`] is this call without a
    /// checkpoint).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidPlan`] for an unusable
    /// [`TestgenConfig::r_bracket`]; [`CoreError::Checkpoint`] when
    /// `checkpoint` belongs to a different campaign or a record append
    /// failed mid-run.
    pub fn run_durable(
        &self,
        nl: &Netlist,
        lib: &TimingLibrary,
        run_token: &CancelToken,
        checkpoint: Option<&Checkpoint<SitePlanRecord>>,
    ) -> Result<CampaignReport, CoreError> {
        let setup_span = self.obs.span(Phase::StudySetup);
        let sites = self.probed_sites(nl);
        drop(setup_span);
        if let Some(c) = checkpoint {
            c.expect_spec(&self.spec_for(&sites))?;
        }

        let driver = MonteCarlo::new(sites.len(), 0);
        let driver = self.threads.map_or(driver, |t| driver.with_threads(t));
        // One attempt per site, and a deadline-only watchdog: site
        // planning is deterministic and logic-level, with no inner
        // cancellation point, so neither a retry nor a per-site timeout
        // could change anything.
        let resilience = ResilienceConfig {
            max_attempts: 1,
            sample_timeout: None,
            ..self.resilience.clone()
        };
        // One planner per run: every site shares its per-path memo, which
        // goes when the run returns (DESIGN.md §5.14).
        let planner = SitePlanner::new(nl, lib, &self.cfg)?;
        let journal = self.obs.is_enabled();
        let slots = resolve(
            &driver,
            &resilience,
            0..sites.len(),
            0,
            run_token,
            checkpoint,
            |i, _attempt, _rng, _token| {
                // A planned fault for this probed-site index fails it
                // here: campaign planning is logic-level and never reaches
                // the analog solver, so the plan is honored at this level.
                if let Some((kind, _)) = self.fault_plan.as_ref().and_then(|p| p.due(i, 1)) {
                    if let Some(e) = kind.planned_outcome() {
                        return Err(CoreError::Analog(e));
                    }
                }
                match planner.plan(sites[i]) {
                    Ok(mut plans) => Ok(SitePlanRecord::Planned(plans.swap_remove(0))),
                    Err(CoreError::NoSensitizablePath { .. }) => Ok(SitePlanRecord::Unsensitizable),
                    Err(e) => Err(e),
                }
            },
            |i, o, cancelled| {
                let outcome = match o {
                    SampleOutcome::Ok(rec) | SampleOutcome::Recovered { value: rec, .. } => {
                        match rec {
                            SitePlanRecord::Planned(p) => SiteOutcome::Planned(p),
                            SitePlanRecord::Unsensitizable => SiteOutcome::Unsensitizable,
                        }
                    }
                    SampleOutcome::Failed { error, .. } => SiteOutcome::Failed(error),
                };
                if journal && !cancelled {
                    self.journal_site(i, sites[i], &outcome);
                }
                outcome
            },
        );
        self.obs
            .add(ObsCounter::ModelEvaluations, planner.model_evaluations());
        if let Some(c) = checkpoint {
            c.ensure_healthy()?;
        }
        let completeness = Completeness::of(&slots, checkpoint, run_token);
        let done_sites = sites
            .into_iter()
            .zip(slots)
            .filter_map(|(site, slot)| Some((site, slot?)))
            .collect();
        Ok(CampaignReport::from_parts(done_sites, completeness))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use pulsar_logic::{c432_like, GateKind, Netlist};

    #[test]
    fn campaign_covers_a_small_circuit_exhaustively() {
        // A clean 4-gate chain: every site sensitizable.
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g0 = nl.add_gate(GateKind::Nand, &[a, b], "g0").unwrap();
        let g1 = nl.add_gate(GateKind::Not, &[g0], "g1").unwrap();
        let g2 = nl.add_gate(GateKind::Not, &[g1], "g2").unwrap();
        nl.mark_output(g2);

        // Without collapsing: every net is its own site.
        let report = Campaign {
            collapse: false,
            ..Campaign::default()
        }
        .run(&nl, &TimingLibrary::generic())
        .unwrap();
        assert_eq!(report.sites.len(), 5); // 2 PIs + 3 gates
        assert_eq!(report.failed, 0);
        assert_eq!(report.planned + report.unsensitizable, 5);
        assert!(
            report.planned >= 4,
            "chain sites must be plannable: {report:?}"
        );
        assert_eq!(report.pattern_count(), report.planned);

        // With collapsing, the g0→g1→g2 inverter chain folds into one
        // group: a, b and the chain representative remain.
        let collapsed = Campaign::default()
            .run(&nl, &TimingLibrary::generic())
            .unwrap();
        assert_eq!(collapsed.sites.len(), 3, "{:?}", collapsed.sites);
    }

    #[test]
    fn coverage_profile_is_monotone_in_r() {
        let nl = c432_like();
        let campaign = Campaign {
            stride: 8,
            ..Campaign::default()
        };
        let report = campaign.run(&nl, &TimingLibrary::generic()).unwrap();
        assert!(report.planned > 0, "some sites must be plannable");
        let c_small = report.coverage_at(1e3);
        let c_mid = report.coverage_at(30e3);
        let c_big = report.coverage_at(2e6);
        assert!(
            c_small <= c_mid && c_mid <= c_big,
            "{c_small} {c_mid} {c_big}"
        );
        assert!(
            c_big > 0.9,
            "every planned site detects a huge open, got {c_big}"
        );
    }

    #[test]
    fn r_min_summary_aggregates_plans() {
        let nl = c432_like();
        let campaign = Campaign {
            stride: 10,
            ..Campaign::default()
        };
        let report = campaign.run(&nl, &TimingLibrary::generic()).unwrap();
        let s = report.r_min_summary().expect("detectable sites exist");
        assert!(s.min > 0.0 && s.max >= s.min);
    }

    #[test]
    fn fault_plan_fails_planned_sites_and_surfaces_in_failures() {
        use pulsar_analog::{FaultKind, FaultPlan};

        let nl = c432_like();
        let campaign = Campaign {
            stride: 8,
            fault_plan: Some(
                FaultPlan::new()
                    .fail_sample(1, FaultKind::NonConvergence, FaultPlan::ALWAYS)
                    .fail_sample(3, FaultKind::SingularMatrix, FaultPlan::ALWAYS),
            ),
            ..Campaign::default()
        };
        let report = campaign.run(&nl, &TimingLibrary::generic()).unwrap();
        assert_eq!(report.failed, 2, "exactly the two planned sites fail");
        let failures: Vec<_> = report.failures().collect();
        assert_eq!(failures.len(), 2);
        assert_eq!(*failures[0].0, report.sites[1].0);
        assert!(matches!(
            failures[0].1,
            CoreError::Analog(pulsar_analog::Error::NoConvergence { .. })
        ));
        assert!(matches!(
            failures[1].1,
            CoreError::Analog(pulsar_analog::Error::SingularMatrix { .. })
        ));

        // The summary names the failed sites.
        let s = report.summary();
        assert!(s.contains("failed = 2"), "{s}");
        assert!(s.contains("failed site"), "{s}");

        // The rest of the campaign is unaffected: same outcomes as a
        // plan-free run everywhere else.
        let clean = Campaign {
            stride: 8,
            ..Campaign::default()
        }
        .run(&nl, &TimingLibrary::generic())
        .unwrap();
        assert_eq!(clean.failed, 0);
        assert_eq!(
            clean.planned + clean.unsensitizable,
            report.planned + report.unsensitizable + 2,
            "the two failed sites resolve normally without the plan"
        );
        for (i, ((sa, oa), (sb, ob))) in clean.sites.iter().zip(&report.sites).enumerate() {
            assert_eq!(sa, sb);
            if i != 1 && i != 3 {
                assert_eq!(
                    matches!(oa, SiteOutcome::Planned(_)),
                    matches!(ob, SiteOutcome::Planned(_)),
                    "site {i} outcome changed"
                );
            }
        }
    }

    #[test]
    fn clean_campaign_reports_no_failures() {
        let nl = c432_like();
        let report = Campaign {
            stride: 16,
            ..Campaign::default()
        }
        .run(&nl, &TimingLibrary::generic())
        .unwrap();
        assert_eq!(report.failures().count(), 0);
        assert!(!report.summary().contains("failed site"));
    }

    #[test]
    fn stride_reduces_the_probed_set() {
        let nl = c432_like();
        let full_sites = nl.inputs().len() + nl.gate_count();
        let report = Campaign {
            stride: 4,
            threads: Some(2),
            collapse: false,
            ..Campaign::default()
        }
        .run(&nl, &TimingLibrary::generic())
        .unwrap();
        assert_eq!(report.sites.len(), full_sites.div_ceil(4));
    }

    /// Canonical per-site fingerprint: exact down to f64 bit patterns for
    /// planned sites, error kind for failures.
    fn fingerprint(o: &SiteOutcome) -> String {
        match o {
            SiteOutcome::Planned(p) => SitePlanRecord::Planned(p.clone()).encode_json(),
            SiteOutcome::Unsensitizable => "unsensitizable".to_owned(),
            SiteOutcome::Failed(e) => format!("failed:{}", error_kind(e)),
        }
    }

    fn report_fingerprints(r: &CampaignReport) -> Vec<(SignalId, String)> {
        r.sites.iter().map(|(s, o)| (*s, fingerprint(o))).collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pulsar-campaign-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{}.ckpt", name, std::process::id()))
    }

    #[test]
    fn durable_run_matches_plain_run_exactly() {
        let nl = c432_like();
        let campaign = Campaign {
            stride: 8,
            ..Campaign::default()
        };
        let lib = TimingLibrary::generic();
        let plain = campaign.run(&nl, &lib).unwrap();
        let durable = campaign
            .run_durable(&nl, &lib, &CancelToken::new(), None)
            .unwrap();
        assert_eq!(report_fingerprints(&plain), report_fingerprints(&durable));
        assert!(durable.completeness.is_complete());
        assert_eq!(durable.completeness.resumed, 0);
    }

    #[test]
    fn site_plan_records_round_trip_through_the_checkpoint() {
        let nl = c432_like();
        let campaign = Campaign {
            stride: 8,
            ..Campaign::default()
        };
        let lib = TimingLibrary::generic();
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);

        let spec = campaign.checkpoint_spec(&nl);
        let ck = Checkpoint::create(&path, spec).unwrap();
        let first = campaign
            .run_durable(&nl, &lib, &CancelToken::new(), Some(&ck))
            .unwrap();
        drop(ck);

        // Re-open: every site decodes back and the resumed run recomputes
        // nothing, yet reports bit-identical outcomes.
        let ck = Checkpoint::open(&path, spec).unwrap();
        assert_eq!(ck.resumed_count(), first.sites.len());
        let resumed = campaign
            .run_durable(&nl, &lib, &CancelToken::new(), Some(&ck))
            .unwrap();
        assert_eq!(report_fingerprints(&first), report_fingerprints(&resumed));
        assert_eq!(resumed.completeness.resumed, first.sites.len());
        assert!(resumed.completeness.is_complete());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_from_a_truncated_checkpoint_is_bit_identical() {
        let nl = c432_like();
        let campaign = Campaign {
            stride: 8,
            ..Campaign::default()
        };
        let lib = TimingLibrary::generic();
        let path = tmp("truncated");
        let _ = std::fs::remove_file(&path);

        let spec = campaign.checkpoint_spec(&nl);
        let ck = Checkpoint::create(&path, spec).unwrap();
        let full = campaign
            .run_durable(&nl, &lib, &CancelToken::new(), Some(&ck))
            .unwrap();
        drop(ck);

        // Chop the file mid-record — a kill can land on any byte.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();

        let ck = Checkpoint::open(&path, spec).unwrap();
        let resumed = campaign
            .run_durable(&nl, &lib, &CancelToken::new(), Some(&ck))
            .unwrap();
        assert_eq!(report_fingerprints(&full), report_fingerprints(&resumed));
        assert!(
            resumed.completeness.resumed < full.sites.len(),
            "truncation must have dropped some records"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cancelled_run_reports_honest_truncation() {
        let nl = c432_like();
        let campaign = Campaign {
            stride: 8,
            ..Campaign::default()
        };
        let token = CancelToken::new();
        token.cancel(pulsar_obs::CancelReason::User);
        let report = campaign
            .run_durable(&nl, &TimingLibrary::generic(), &token, None)
            .unwrap();
        assert_eq!(report.completeness.done, 0);
        assert_eq!(report.completeness.truncated, Some("interrupted"));
        assert!(!report.completeness.is_complete());
        assert!(
            report.summary().contains("TRUNCATED"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn checkpoint_from_a_different_campaign_is_rejected() {
        let nl = c432_like();
        let a = Campaign {
            stride: 8,
            ..Campaign::default()
        };
        let b = Campaign {
            stride: 16,
            ..Campaign::default()
        };
        let path = tmp("mismatch");
        let _ = std::fs::remove_file(&path);
        let ck = Checkpoint::create(&path, a.checkpoint_spec(&nl)).unwrap();
        let err = b
            .run_durable(
                &nl,
                &TimingLibrary::generic(),
                &CancelToken::new(),
                Some(&ck),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Checkpoint { .. }), "{err:?}");
        let _ = std::fs::remove_file(&path);
    }
}
