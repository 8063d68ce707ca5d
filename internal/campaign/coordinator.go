package campaign

import (
	"errors"
	"fmt"
	"math/rand"

	"mummi/internal/core"
	"mummi/internal/dynim"
	"mummi/internal/faults"
	"mummi/internal/maestro"
	"mummi/internal/sched"
	"mummi/internal/wmfleet"
)

// coordinator is one allocation's workflow-management layer as the
// allocation loop (runOne) drives it. Its two implementations share
// everything but the crash policy, how an injected wm-crash is survived:
//
//   - soloWM, the paper's single WM, restarts (§4.4): every live job is
//     cold-killed and a rebuilt manager on a fresh conductor restores the
//     crash-time checkpoint.
//   - fleetWM, a distributed fleet (Config.WMInstances > 1), adopts: the
//     victim instance dies with its own jobs, and a survivor takes over its
//     couplings once their store leases expire.
//
// A fleet of one is not a soloWM: instance seeds differ from the single
// WM's, lease and checkpoint traffic would shift the fault draws of the
// store, and a fleet refuses to crash its last instance.
type coordinator interface {
	// AddCandidate hands a coarse-scale candidate to a coupling (Task 1).
	AddCandidate(coupling string, p dynim.Point) error
	// Stats reports per-coupling progress in canonical order.
	Stats() []core.CouplingStats
	// Restore rehydrates the previous allocation's checkpoint; it must
	// precede Start.
	Restore(ckpt []byte) error
	Start() error
	// Stop ends coordination at allocation end: tickers halt and queued
	// submissions fail back into WM state; running jobs stay in the
	// scheduler for the loop to settle.
	Stop()
	// Checkpoint captures the state carried to the next allocation, in the
	// single-WM format whichever layer wrote it.
	Checkpoint() ([]byte, error)
	// onWMCrash applies the crash policy to one injected wm-crash.
	onWMCrash(r faults.Rule, rng *rand.Rand)
	// spanAttrs are the layer's extra allocation-span attributes.
	spanAttrs() []any
}

// newCoordinator builds the allocation's coordination layer over s: a fleet
// when Config.WMInstances > 1, else the single WM. Both are seeded from the
// campaign seed and the allocation index.
func (c *Campaign) newCoordinator(s *sched.Scheduler, couplings []core.CouplingSpec,
	staticJobs []sched.Request) (coordinator, error) {
	var wdGrace float64
	if c.eng != nil {
		// Chaos replays arm the hung-job watchdog: injected job-hang faults
		// are unkillable any other way.
		wdGrace = chaosWatchdogGrace
	}
	seed := c.cfg.Seed + int64(c.res.RunsDone)
	if c.cfg.WMInstances > 1 {
		fl, err := wmfleet.New(wmfleet.Config{
			Clock:           c.clk,
			Backend:         maestro.FluxBackend{S: s},
			Store:           c.fleetStore,
			Telemetry:       c.tel,
			Instances:       c.cfg.WMInstances,
			Couplings:       couplings,
			StaticJobs:      staticJobs,
			PollEvery:       c.cfg.PollEvery,
			Seed:            seed,
			SubmitPerMinute: c.cfg.SubmitPerMinute,
			WatchdogGrace:   wdGrace,
			// Per-allocation namespaces: an adopter's still-live lease from
			// one allocation must never block the next allocation's initial
			// owner from acquiring.
			Namespace: fmt.Sprintf("wmfleet-r%03d", c.res.RunsDone),
			OnEvent:   c.noteFault,
			OnAnomaly: func(msg string) {
				c.res.Anomalies = append(c.res.Anomalies, msg)
			},
		})
		if err != nil {
			return nil, err
		}
		return &fleetWM{Fleet: fl, c: c, s: s}, nil
	}
	w := &soloWM{c: c, s: s, cfg: core.Config{
		Clock:         c.clk,
		PollEvery:     c.cfg.PollEvery,
		Telemetry:     c.tel,
		WatchdogGrace: wdGrace,
		StaticJobs:    staticJobs,
		Couplings:     couplings,
	}}
	var err error
	if w.Workflow, w.cond, err = w.build(seed); err != nil {
		return nil, err
	}
	return w, nil
}

// killJob kills one job of a crashed manager: a running job fails, a queued
// one is canceled. It reports an orphan, a job caught mid-match that will
// run and finish unobserved.
func (c *Campaign) killJob(s *sched.Scheduler, id sched.JobID) (orphan bool) {
	if job, ok := s.Job(id); ok && job.State == sched.Running {
		if err := s.Fail(id); err != nil && !errors.Is(err, sched.ErrAlreadyTerminal) {
			c.res.Anomalies = append(c.res.Anomalies,
				fmt.Sprintf("wm-crash kill job %d: %v", id, err))
		}
		return false
	}
	return !s.Cancel(id)
}

// soloWM is the single workflow manager and its conductor. The selectors
// are shared Campaign state, so a manager rebuilt after a crash keeps the
// live selector state (the real system restores selectors from their own
// checkpoints).
type soloWM struct {
	*core.Workflow
	c    *Campaign
	s    *sched.Scheduler
	cond *maestro.Conductor
	// cfg is the manager's shape; build adds the conductor and seed.
	cfg core.Config
}

// build starts a manager process: a fresh conductor over the scheduler and
// a workflow seeded with seed.
func (w *soloWM) build(seed int64) (*core.Workflow, *maestro.Conductor, error) {
	cond, err := maestro.NewConductor(w.c.clk, maestro.FluxBackend{S: w.s}, w.c.cfg.SubmitPerMinute)
	if err != nil {
		return nil, nil, err
	}
	cfg := w.cfg
	cfg.Conductor, cfg.Seed = cond, seed
	wm, err := core.New(cfg)
	return wm, cond, err
}

func (w *soloWM) Restore(ckpt []byte) error { return w.RestoreState(ckpt) }

func (w *soloWM) Stop() {
	w.Workflow.Stop()
	w.cond.Close()
}

func (w *soloWM) spanAttrs() []any { return nil }

// onWMCrash restarts the manager (§4.4: the WM "can be restored completely
// after any such crash"): stop the dead manager, flush its conductor,
// checkpoint its state, cold-kill the allocation's job set (every
// configuration is in the checkpoint; running simulations resume from
// banked progress), then rebuild, restore, check conservation against the
// live pre-crash state and start.
func (w *soloWM) onWMCrash(faults.Rule, *rand.Rand) {
	c := w.c
	before := w.Stats()
	w.Stop() // queued submissions fail back into the old manager's state
	ck, err := w.Checkpoint()
	if err != nil {
		c.noteFault(fmt.Sprintf("wm-crash checkpoint failed: %v", err))
		return
	}
	for _, id := range c.sortedActiveIDs() {
		c.bankActive(id)
	}
	orphans := 0
	for _, id := range w.s.LiveJobs() {
		if c.killJob(w.s, id) {
			orphans++
		}
	}
	c.active = make(map[sched.JobID]activeJob)
	// A restarted manager is a new process: distinct WM seed, same replay
	// determinism (the offset is a pure function of campaign state).
	seed := c.cfg.Seed + int64(c.res.RunsDone) + 7919*int64(c.res.WMRestarts+1)
	nw, cond, err := w.build(seed)
	if err != nil {
		c.noteFault(fmt.Sprintf("wm-crash rebuild failed: %v", err))
		return
	}
	c.res.WMRestarts++
	if err := nw.RestoreState(ck); err != nil {
		c.noteFault(fmt.Sprintf("wm-crash restore failed: %v", err))
		return
	}
	// The restored manager has the same couplings, in the same order.
	for i, st := range nw.Stats() {
		if err := core.CheckConserved(before[i], st); err != nil {
			c.res.Anomalies = append(c.res.Anomalies, "wm-crash "+err.Error())
		}
	}
	if err := nw.Start(); err != nil {
		c.noteFault(fmt.Sprintf("wm-crash restart failed: %v", err))
		return
	}
	msg := fmt.Sprintf("wm-crash restart=%d orphans=%d", c.res.WMRestarts, orphans)
	c.noteFault(msg)
	c.eng.Note(msg)
	w.Workflow, w.cond = nw, cond
}

// fleetWM is a distributed WM fleet (internal/wmfleet): N managers over one
// scheduler, coordinating coupling ownership through store leases. The
// fleet routes each patch to whichever instance owns the coupling at
// arrival time; while ownership is in flight the shared selectors hold the
// candidates.
type fleetWM struct {
	*wmfleet.Fleet
	c *Campaign
	s *sched.Scheduler
}

// Stop halts every instance and merges the fleet's robustness tallies into
// the campaign result.
func (f *fleetWM) Stop() {
	f.Fleet.Stop()
	acc := f.Accounting()
	f.c.res.WMCrashes += acc.Crashes
	f.c.res.WMAdoptions += acc.Adoptions
	f.c.res.LeaseExpirations += acc.LeaseExpirations
}

func (f *fleetWM) spanAttrs() []any { return []any{"wm_instances", f.Instances()} }

// onWMCrash kills one instance: the rule's pinned instance, or a random
// live one when the rule leaves it open. The fleet flushes the victim's
// couplings' checkpoints through the store and leaves its leases to
// expire; the victim's tracked jobs are banked and killed here. Every
// selected configuration is in the flushed checkpoints, so the adopting
// instance resubmits them with no selection lost; static jobs (the
// continuum) are untracked and survive. The crash is refused when it would
// kill the last live instance.
func (f *fleetWM) onWMCrash(r faults.Rule, rng *rand.Rand) {
	c := f.c
	live := f.LiveInstances()
	if len(live) <= 1 {
		c.noteFault("wm-crash skipped: one live instance left")
		return
	}
	var victim int
	if r.Instance > 0 {
		victim = r.Instance - 1
		if !f.Alive(victim) {
			c.noteFault(fmt.Sprintf("wm-crash skipped: instance %d not live", r.Instance))
			return
		}
	} else {
		victim = live[rng.Intn(len(live))]
	}
	info, err := f.Crash(victim)
	if err != nil {
		c.noteFault(fmt.Sprintf("wm-crash failed: %v", err))
		return
	}
	orphans := 0
	for _, id := range info.Jobs {
		c.bankActive(id)
		delete(c.active, id)
		if c.killJob(f.s, id) {
			orphans++
		}
	}
	msg := fmt.Sprintf("wm-crash instance=%d killed=%d couplings=%d orphans=%d",
		victim+1, len(info.Jobs), len(info.Couplings), orphans)
	c.noteFault(msg)
	c.eng.Note(msg)
}
