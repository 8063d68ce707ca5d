package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"mummi/internal/campaign"
	"mummi/internal/faults"
	"mummi/internal/telemetry"
)

// replay is one campaign-replay workload: its configuration as a function
// of the seed, and the invariants its Result must hold for every seed.
type replay struct {
	name       string
	config     func(seed int64) (campaign.Config, error)
	invariants func(res *campaign.Result) error
	// live names the work counters that justify the workload; each must
	// be above zero in the traced run.
	live []string
	// realizations is how many campaign seeds an untraced run cycles
	// through: step i replays subSeed(seed, i mod realizations), so that
	// the medians of a seed-sensitive workload average over several fault
	// realizations. Traced runs replay the seed itself.
	realizations int
}

// subSeed is the campaign seed of a run's i-th realization.
func subSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// paperReplay is the paper's Table 1 schedule at a tenth of its size, with
// every other setting at the paper-faithful default: three scales, sync
// low-ID-exhaustive scheduling, 35k-patch selector queues, one WM, no
// faults, feedback off.
var paperReplay = replay{
	name: "paper-replay",
	config: func(seed int64) (campaign.Config, error) {
		return campaign.Options{Scale: 0.1, Seed: seed}.Build()
	},
	invariants: func(res *campaign.Result) error {
		if len(res.Anomalies) > 0 {
			return fmt.Errorf("%d anomalies, first %q", len(res.Anomalies), res.Anomalies[0])
		}
		return nil
	},
	live:         []string{"dynim.rank_refreshes"},
	realizations: 1,
}

// fleetChaos runs a three-instance WM fleet with feedback every ten minutes
// under a fault plan seeded from the workload seed, with few candidates per
// snapshot so that the coordination layers rather than the selector kernel
// carry the load. Two knobs are set for steadiness (README.md, "Why these
// workloads"): WM crashes always hit instance 2, whose coupling a survivor
// adopts, and store operations fail transiently at 5 %. With unpinned
// crashes at 20 % the work of one replay varies by ±20 % from seed to seed.
var fleetChaos = replay{
	name: "fleet-chaos",
	config: func(seed int64) (campaign.Config, error) {
		cfg, err := campaign.Options{Seed: seed, FeedbackEvery: 10 * time.Minute, WMInstances: 3}.Build()
		if err != nil {
			return cfg, err
		}
		cfg.Runs = []campaign.RunSpec{{Nodes: 400, Wall: 12 * time.Hour, Count: 6}}
		cfg.PatchesPerSnapshot = 33
		cfg.FrameCandidateSubsample = 0.05
		cfg.Faults = &faults.Plan{Seed: seed, Rules: []faults.Rule{
			{Class: faults.WMCrash, Rate: 8, Instance: 2},
			{Class: faults.StoreTransient, Rate: 0.05},
			{Class: faults.StoreLatency, Rate: 0.05},
			{Class: faults.NodeCrash, Rate: 12, Recovery: 30 * time.Minute},
			{Class: faults.JobHang, Rate: 12},
		}}
		return cfg, nil
	},
	invariants: func(res *campaign.Result) error {
		for _, a := range res.Anomalies {
			if strings.Contains(a, "lost selections") {
				return fmt.Errorf("anomaly %q", a)
			}
		}
		if res.WMAdoptions == 0 {
			return fmt.Errorf("no WM adoptions: the fleet path did not run")
		}
		return nil
	},
	live:         []string{"wmfleet.adoptions", "datastore.retries", "faults.injected", "core.feedback_runs"},
	realizations: 4,
}

// ledger is the deterministic part of a campaign Result: everything a
// replay of the same seed must reproduce exactly.
type ledger struct {
	RunsDone          int      `json:"runs_done"`
	NodeHours         float64  `json:"node_hours"`
	MatcherVisits     int64    `json:"matcher_visits"`
	Snapshots         int      `json:"snapshots"`
	ContinuumTotalFs  int64    `json:"continuum_total_fs"`
	Patches           int64    `json:"patches"`
	CGSelected        int      `json:"cg_selected"`
	CGFrames          int64    `json:"cg_frames"`
	CGFrameCandidates int64    `json:"cg_frame_candidates"`
	AASelected        int      `json:"aa_selected"`
	CGTotalFs         int64    `json:"cg_total_fs"`
	AATotalFs         int64    `json:"aa_total_fs"`
	Files             int64    `json:"files"`
	Bytes             int64    `json:"bytes"`
	InjectedFailures  int      `json:"injected_failures"`
	NodeCrashes       int      `json:"node_crashes"`
	JobHangs          int      `json:"job_hangs"`
	WMRestarts        int      `json:"wm_restarts"`
	StorePutErrors    int      `json:"store_put_errors"`
	WMCrashes         int      `json:"wm_crashes"`
	WMAdoptions       int      `json:"wm_adoptions"`
	LeaseExpirations  int      `json:"lease_expirations"`
	Anomalies         []string `json:"anomalies"`
}

func ledgerOf(res *campaign.Result) ledger {
	return ledger{
		RunsDone: res.RunsDone, NodeHours: float64(res.TotalNodeHours), MatcherVisits: res.MatcherVisits,
		Snapshots: res.Snapshots, ContinuumTotalFs: res.ContinuumTotal.Femtoseconds(),
		Patches: res.Patches, CGSelected: res.CGSelected, CGFrames: res.CGFrames,
		CGFrameCandidates: res.CGFrameCandidates, AASelected: res.AASelected,
		CGTotalFs: res.CGTotal.Femtoseconds(), AATotalFs: res.AATotal.Femtoseconds(),
		Files: res.Files, Bytes: res.Bytes, InjectedFailures: res.InjectedFailures,
		NodeCrashes: res.NodeCrashes, JobHangs: res.JobHangs, WMRestarts: res.WMRestarts,
		StorePutErrors: res.StorePutErrors, WMCrashes: res.WMCrashes, WMAdoptions: res.WMAdoptions,
		LeaseExpirations: res.LeaseExpirations, Anomalies: res.Anomalies,
	}
}

func (l ledger) digest() (string, error) {
	b, err := json.Marshal(l)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), nil
}

// replayStep is one measured replay.
type replayStep struct {
	use       delta // Run
	nodeHours float64
	digest    string
}

// replayRun is one benchmark run of a replay workload.
type replayRun struct {
	*run
	w         replay
	seed      int64
	nodeHours float64 // the schedule's
	ref       reference
	digests   map[int64]string // first digest seen per campaign seed
}

// reference is a replay's committed output digest at one seed.
type reference struct {
	Seed   int64  `json:"seed"`
	Digest string `json:"digest"`
}

//go:embed reference.json
var referencesJSON []byte

func newReplayRun(w replay, seed int64) (*replayRun, error) {
	cfg, err := w.config(seed)
	if err != nil {
		return nil, err
	}
	var refs map[string]reference
	if err := json.Unmarshal(referencesJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	rr := &replayRun{run: newRun(), w: w, seed: seed, ref: refs[w.name], digests: map[int64]string{}}
	for _, spec := range cfg.Runs {
		rr.nodeHours += float64(spec.NodeHours())
	}
	return rr, nil
}

// setup is a replay's set-up: building the config plus NewCampaign.
func (rr *replayRun) setup(seed int64, tel *telemetry.Telemetry) (*campaign.Campaign, error) {
	cfg, err := rr.w.config(seed)
	if err != nil {
		return nil, err
	}
	cfg.Telemetry = tel
	return campaign.NewCampaign(cfg)
}

// errReplay marks a replay whose Run returned an error: a failed operation,
// as opposed to a benchmark that could not set up.
var errReplay = errors.New("replay failed")

// countFailure records a failed replay and reports whether err was one.
func (rr *replayRun) countFailure(err error) bool {
	if !errors.Is(err, errReplay) {
		return false
	}
	rr.attempted++
	rr.fail("%v", err)
	return true
}

// step builds, runs and checks one campaign. A non-nil tel makes it traced.
func (rr *replayRun) step(seed int64, tel *telemetry.Telemetry) (replayStep, *campaign.Result, error) {
	var st replayStep
	c, err := rr.setup(seed, tel)
	if err != nil {
		return st, nil, err
	}
	u := readUsage()
	res, err := c.Run()
	st.use = since(u)
	if err != nil {
		return st, nil, fmt.Errorf("%w: %v", errReplay, err)
	}
	st.nodeHours = float64(res.TotalNodeHours)
	if st.digest, err = ledgerOf(res).digest(); err != nil {
		return st, nil, err
	}
	rr.check(seed, st, res)
	return st, res, nil
}

// check applies the output checks to one replay of campaign seed seed:
// the schedule's node-hours, the workload's invariants, repeatability
// within the process, and the committed reference digest.
func (rr *replayRun) check(seed int64, st replayStep, res *campaign.Result) {
	rr.attempted++
	first, seen := rr.digests[seed]
	switch err := rr.w.invariants(res); {
	case math.Abs(st.nodeHours-rr.nodeHours) > 1e-6*rr.nodeHours:
		rr.fail("node-hours %.3f, schedule has %.3f", st.nodeHours, rr.nodeHours)
	case err != nil:
		rr.fail("seed %d: %v", seed, err)
	case seen && st.digest != first:
		rr.fail("seed %d: replay digest %s differs from the first replay's %s", seed, st.digest, first)
	case seed == rr.ref.Seed && st.digest != rr.ref.Digest:
		rr.fail("digest %s at seed %d, reference.json has %q", st.digest, seed, rr.ref.Digest)
	}
	if !seen {
		rr.digests[seed] = st.digest
	}
	if rr.digest == "" {
		rr.digest = st.digest
		rr.ledger = ledgerOf(res)
	}
}

// replayWorkload measures closed-loop replays: each starts when the
// previous one returns, until the budget is spent.
func replayWorkload(w replay) workload {
	return func(seed int64, limit time.Duration, traced bool) (*run, error) {
		rr, err := newReplayRun(w, seed)
		if err != nil {
			return nil, err
		}
		if traced {
			return rr.run, rr.traced(limit)
		}
		setup, err := timeSetups(func() (func(), error) {
			_, err := rr.setup(seed, nil)
			return nil, err
		})
		if err != nil {
			return nil, err
		}
		var rates, walls, cpus, allocB, allocN []float64
		for b, i := newBudget(limit), 0; b.more(); i++ {
			st, _, err := rr.step(subSeed(seed, i%w.realizations), nil)
			if rr.countFailure(err) {
				break // the run is incorrect; a failed seed fails again
			}
			if err != nil {
				return nil, err
			}
			walls = append(walls, st.use.wall.Seconds())
			rates = append(rates, st.nodeHours/st.use.wall.Seconds())
			cpus = append(cpus, st.use.cpu.Seconds())
			allocB = append(allocB, float64(st.use.allocB))
			allocN = append(allocN, float64(st.use.allocObjs))
		}
		rr.values["setup_s"] = setup
		rr.values["work_per_s"] = median(rates)
		rr.values["step_p50_ms"] = median(walls) * 1e3
		rr.values["cpu_s"] = median(cpus)
		rr.values["alloc_bytes"] = median(allocB)
		rr.values["alloc_objects"] = median(allocN)
		rr.values["max_rss_bytes"] = maxRSS()
		rr.samples["replays"] = len(walls)
		rr.samples["seeds"] = min(len(walls), w.realizations)
		rr.samples["setups"] = setupRuns
		return rr.run, nil
	}
}

// traced alternates untraced and traced replays. The traced ones run with
// campaign telemetry and a CPU profile; the untraced ones give the tracing
// overhead.
func (rr *replayRun) traced(limit time.Duration) error {
	var plain, traced []float64
	var cpu layerCPU
	var first map[string]float64
	var gcCycles uint64
	once := func(withTrace bool) error {
		if !withTrace {
			st, _, err := rr.step(rr.seed, nil)
			if err == nil {
				plain = append(plain, st.use.wall.Seconds())
			}
			return err
		}
		tel := telemetry.New(telemetry.Options{})
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		st, res, err := rr.step(rr.seed, tel)
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		traced = append(traced, st.use.wall.Seconds())
		gcCycles += st.use.gcCycles
		stacks, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return err
		}
		cpu.add(attribute(stacks))
		counts := workCounts(tel.Registry().Snapshot(), res)
		if first == nil {
			first = counts
		} else if !maps.Equal(first, counts) {
			rr.fail("work counts differ between traced replays of one seed")
		}
		return nil
	}
	for b, i := newBudget(limit), 0; b.more(); i++ {
		// Alternate which replay of a pair goes first, so that the warmer
		// process favours neither side of the overhead ratio.
		for _, withTrace := range [2]bool{i%2 == 1, i%2 == 0} {
			if err := once(withTrace); rr.countFailure(err) {
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	n := float64(len(traced))
	for k, v := range first {
		rr.values[k] = v
	}
	putLayerCPU(rr.run, cpu, n)
	rr.values["runtime.gc_cycles"] = float64(gcCycles) / n
	rr.values["trace.overhead_frac"] = median(traced)/median(plain) - 1
	rr.samples["replays_traced"] = len(traced)
	rr.samples["replays_untraced"] = len(plain)
	rr.samples["profile_ms"] = int(cpu.Total / int64(time.Millisecond))
	for _, name := range rr.w.live {
		if rr.values[name] <= 0 {
			rr.fail("liveness: %s is %v; the work this workload exists to measure did not run", name, rr.values[name])
		}
	}
	return nil
}

// putLayerCPU reports an attribution as CPU seconds per step.
func putLayerCPU(r *run, cpu layerCPU, steps float64) {
	for bucket, ns := range cpu.Exclusive {
		r.values[cpuMetric(bucket)] += float64(ns) / 1e9 / steps
	}
	r.values["dynim.refresh_cpu_s"] = float64(cpu.Refresh) / 1e9 / steps
	r.values["checkpoint.cpu_s"] = float64(cpu.Checkpoint) / 1e9 / steps
}

// cpuMetric names the metric a bucket is reported under. A module outside
// cpuLayers is reported with runtime.other, so that the reported CPU still
// sums to the profile total.
func cpuMetric(bucket string) string {
	switch {
	case bucket == gcBucket || bucket == otherBucket:
		return bucket + "_cpu_s"
	case slices.Contains(cpuLayers, bucket):
		return bucket + ".cpu_s"
	default:
		return otherBucket + "_cpu_s"
	}
}

// workCounts reads the host-independent per-layer counters of one traced
// replay from its telemetry registry and Result.
func workCounts(s telemetry.Snapshot, res *campaign.Result) map[string]float64 {
	c := map[string]float64{}
	for _, m := range s.Counters {
		base, _, _ := strings.Cut(m.Name, "{")
		c[base] += float64(m.Value)
	}
	h := map[string]float64{}
	for _, m := range s.Histograms {
		base, _, _ := strings.Cut(m.Name, "{")
		h[base] += float64(m.Count)
	}
	out := map[string]float64{
		"dynim.candidates":          float64(res.Patches + res.CGFrameCandidates),
		"dynim.selected":            c["dynim.selected_total"],
		"dynim.select_calls":        h["dynim.select_ms"],
		"dynim.rank_refreshes":      h["dynim.rank_refresh_ms"],
		"sched.submitted":           c["sched.submitted_total"],
		"sched.started":             c["sched.started_total"],
		"sched.completed":           c["sched.completed_total"],
		"sched.failed":              c["sched.failed_total"],
		"sched.canceled":            c["sched.canceled_total"],
		"sched.matches":             c["sched.matches_total"],
		"sched.match_blocked":       c["sched.match_blocked_total"],
		"sched.match_visits":        c["sched.match_visits_total"],
		"sched.match_success":       c["sched.matches_total"] - c["sched.match_blocked_total"],
		"core.polls":                c["wm.polls_total"],
		"core.sims_launched":        c["wm.sims_launched_total"],
		"core.sims_failed":          c["wm.sims_failed_total"],
		"core.setups_launched":      c["wm.setups_launched_total"],
		"core.feedback_runs":        c["wm.feedback_runs_total"],
		"core.feedback_skipped":     c["wm.feedback_skipped_total"],
		"core.feedback_failed":      c["wm.feedback_failed_total"],
		"datastore.ops":             c["store.ops_total"],
		"datastore.read_bytes":      c["store.read_bytes_total"],
		"datastore.write_bytes":     c["store.write_bytes_total"],
		"datastore.errors":          c["store.errors_total"],
		"datastore.retries":         c["store.retries_total"],
		"datastore.gaveup":          c["store.gaveup_total"],
		"faults.injected":           c["faults.injected_total"],
		"wmfleet.crashes":           c["wmfleet.wm_crashes_total"],
		"wmfleet.adoptions":         c["wmfleet.wm_adoptions_total"],
		"wmfleet.lease_acquired":    c["wmfleet.lease_acquired_total"],
		"wmfleet.lease_renewals":    c["wmfleet.lease_renewals_total"],
		"wmfleet.lease_expirations": c["wmfleet.lease_expirations_total"],
	}
	if cand := out["dynim.candidates"]; cand > 0 {
		out["dynim.select_yield"] = out["dynim.selected"] / cand
	}
	// Every attempt either reached the backend (an instrumented op) or
	// failed with an injected fault and was retried or given up on.
	if att := out["datastore.ops"] + out["datastore.retries"] + out["datastore.gaveup"]; att > 0 {
		out["datastore.useful_frac"] = out["datastore.ops"] / att
	}
	return out
}
