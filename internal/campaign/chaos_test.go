package campaign

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"mummi/internal/faults"
	"mummi/internal/telemetry"
)

// chaosCfg is smallCfg plus telemetry, feedback (so store faults have I/O to
// hit), and the aggressive all-six-classes fault plan. Two allocations, so
// the fault schedule crosses an allocation boundary (handler rebinding and
// stale-event gating are exercised).
func chaosCfg(seed int64) (Config, *telemetry.Telemetry) {
	tel := telemetry.New(telemetry.Options{Trace: true})
	cfg := smallCfg(seed)
	cfg.Runs = []RunSpec{
		{Nodes: 4, Wall: 12 * time.Hour, Count: 1},
		{Nodes: 8, Wall: 24 * time.Hour, Count: 1},
	}
	cfg.Telemetry = tel
	cfg.FeedbackEvery = 30 * time.Minute
	cfg.Faults = faults.AggressivePlan(seed)
	return cfg, tel
}

// TestChaosCampaignAllClasses is the tentpole acceptance test: a campaign
// with every fault class enabled at aggressive rates completes, every class
// actually fires, the armored layers absorb what they promise to absorb,
// and the WM crash-restart loop loses no selection.
func TestChaosCampaignAllClasses(t *testing.T) {
	cfg, tel := chaosCfg(5)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := tel.Registry()

	// Every class fired.
	for _, class := range faults.Classes() {
		name := telemetry.Name("faults.injected_total", "class", string(class))
		if reg.Counter(name).Value() == 0 {
			t.Errorf("fault class %s never fired", class)
		}
	}
	if res.NodeCrashes == 0 || res.JobHangs == 0 || res.WMRestarts == 0 {
		t.Fatalf("timed-fault ledger empty: crashes=%d hangs=%d restarts=%d",
			res.NodeCrashes, res.JobHangs, res.WMRestarts)
	}

	// The armor retried transient store faults (and the campaign survived
	// the permanent ones it could not absorb).
	if reg.Counter("store.retries_total{backend=memory}").Value() == 0 {
		t.Error("armor never retried despite injected transient faults")
	}

	// The watchdog cleaned up at least one injected hang.
	kills := reg.Counter("wm.watchdog_kills_total{coupling=continuum-to-cg}").Value() +
		reg.Counter("wm.watchdog_kills_total{coupling=cg-to-aa}").Value()
	if kills == 0 {
		t.Error("watchdog never killed a hung job")
	}

	// No selection lost across any WM crash-restart, and the campaign still
	// did science.
	for _, a := range res.Anomalies {
		if strings.Contains(a, "lost selections") {
			t.Errorf("selection lost across restart: %s", a)
		}
	}
	if res.CGSelected == 0 || res.CGTotal == 0 {
		t.Fatalf("chaos starved the campaign: selected=%d cgTotal=%v", res.CGSelected, res.CGTotal)
	}

	// Every timed fault is on the anomaly record.
	var faultLines int
	for _, a := range res.Anomalies {
		if strings.HasPrefix(a, "fault: ") {
			faultLines++
		}
	}
	if want := res.NodeCrashes + res.JobHangs + res.WMRestarts; faultLines < want {
		t.Errorf("anomaly log has %d fault lines, want >= %d", faultLines, want)
	}
}

// TestChaosSameSeedByteIdentical is the determinism acceptance test: two
// same-seed chaos campaigns with an identical plan produce byte-identical
// metric snapshots, trace exports, and anomaly logs.
func TestChaosSameSeedByteIdentical(t *testing.T) {
	run := func() ([]byte, []byte, []string) {
		cfg, tel := chaosCfg(42)
		cfg.Runs = []RunSpec{{Nodes: 4, Wall: 12 * time.Hour, Count: 1}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		metrics, err := tel.Registry().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := tel.Tracer().Export(&trace); err != nil {
			t.Fatal(err)
		}
		return metrics, trace.Bytes(), res.Anomalies
	}
	m1, t1, a1 := run()
	m2, t2, a2 := run()
	if !bytes.Equal(m1, m2) {
		t.Errorf("metric snapshots differ across same-seed chaos runs\nrun1: %.400s\nrun2: %.400s", m1, m2)
	}
	if !bytes.Equal(t1, t2) {
		t.Error("trace exports differ across same-seed chaos runs")
	}
	if strings.Join(a1, "\n") != strings.Join(a2, "\n") {
		t.Errorf("anomaly logs differ across same-seed chaos runs\nrun1:\n%s\nrun2:\n%s",
			strings.Join(a1, "\n"), strings.Join(a2, "\n"))
	}
	if len(a1) == 0 {
		t.Error("chaos run recorded no fault anomalies")
	}
}

// TestChaosPlanValidation: a bad plan is rejected at construction, not at
// first fire.
func TestChaosPlanValidation(t *testing.T) {
	cfg := smallCfg(1)
	cfg.Faults = &faults.Plan{Rules: []faults.Rule{{Class: "meteor-strike", Rate: 1}}}
	if _, err := NewCampaign(cfg); err == nil {
		t.Fatal("campaign accepted a plan with an unknown fault class")
	}
}

// TestChaosRestartOutcomePinned pins the exact single-WM crash-restart
// outcome of chaosCfg(5). No committed scenario ledger records a non-zero
// wm_restarts, so this is the oracle that the restart crash policy (cold
// kill, conductor rebuild, restore, conservation check) replays
// event-for-event: any drift in the restart path, the shared allocation
// loop around it, or the fault draws they consume changes a count or the
// anomaly digest.
func TestChaosRestartOutcomePinned(t *testing.T) {
	cfg, _ := chaosCfg(5)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(strings.Join(res.Anomalies, "\n")))
	got := fmt.Sprintf("restarts=%d injected=%d cg=%d aa=%d anomalies=%d digest=%x",
		res.WMRestarts, res.InjectedFailures, res.CGSelected, res.AASelected,
		len(res.Anomalies), sum[:8])
	const want = "restarts=5 injected=0 cg=71 aa=17 anomalies=50 digest=ee70b61582c1d8b0"
	if got != want {
		t.Errorf("restart outcome drifted:\n got %s\nwant %s", got, want)
	}
}
