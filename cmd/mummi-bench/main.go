// Command mummi-bench regenerates the paper's evaluation: every table and
// figure of §5 plus the headline scaling claims. Experiments that replay
// the campaign (Table 1, Figs 3–6, the §5.1 counts) share one virtual-time
// replay; the systems experiments (Fig 7, Fig 8, the Flux fix, taridx,
// feedback backends, selector scaling, the bundling ablation) run directly
// against the real components.
//
// Usage:
//
//	mummi-bench -exp all                # everything, scaled-down campaign
//	mummi-bench -exp fig6 -scale 1.0    # full 600,600-node-hour replay
//	mummi-bench -exp fig7               # KV feedback query sweep
//	mummi-bench -exp ml165x -json       # machine-readable metrics on stdout
//
// With -json the human-readable sections are suppressed and one JSON
// object is written to stdout: {"schema": "mummi-bench/v1", ...,
// "experiments": {"<name>": {"<metric>": <number>, ...}}}. Durations are
// reported in seconds. Redirecting that object to a BENCH_<exp>.json file
// is the repo's perf-trajectory workflow (see EXPERIMENTS.md). The report
// shape and its comparison semantics live in internal/benchfmt.
//
// With -trace-in the shared campaign replay comes from a workflow instance
// (docs/SCENARIOS.md) instead of -scale/-seed/-faults/-wm-instances; the
// trace carries its own fault plan and fleet size, so -faults and
// -wm-instances are refused alongside it. The systems experiments keep
// their own flags. (-trace, without the -in, is the telemetry flag for
// Chrome trace output — an older surface that keeps its name.)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mummi/internal/benchfmt"
	"mummi/internal/campaign"
	"mummi/internal/telemetry"
	"mummi/internal/trace"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment: table1|fig3|fig4|fig5|fig6|counts|fig7|fig8|fluxfix|taridx|feedback12x|ml165x|bundling|inventory|all")
	scale := flag.Float64("scale", 0.25, "campaign scale factor (1.0 = full 600,600 node-hours)")
	seed := flag.Int64("seed", 1, "campaign seed")
	full := flag.Bool("full", false, "run systems experiments at full paper scale (slower)")
	workers := flag.Int("workers", 0, "selector rank-update fan-out (0 = GOMAXPROCS; output identical for any value)")
	jsonOut := flag.Bool("json", false, "emit one JSON object of per-experiment metrics instead of text")
	faultSpec := flag.String("faults", "",
		"chaos plan for the campaign replay: JSON file, inline JSON, or 'class:rate;...' spec (see docs/RESILIENCE.md)")
	wmInstances := flag.Int("wm-instances", 1,
		"workflow-manager fleet size for the campaign replay (>1 = lease-coordinated distributed WM; see docs/RESILIENCE.md)")
	traceIn := flag.String("trace-in", "",
		"workflow instance for the campaign replay (replaces -scale/-seed/-faults/-wm-instances for it; see docs/SCENARIOS.md)")
	var tf telemetry.Flags
	tf.Register(flag.CommandLine)
	flag.Parse()
	// run sees 0 when -wm-instances was not given, so a -trace-in replay
	// can refuse an explicit fleet size instead of silently ignoring it.
	wm := 0
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "wm-instances" {
			wm = *wmInstances
		}
	})

	if err := run(*exp, *scale, *seed, *full, *workers, wm, *jsonOut, *faultSpec, *traceIn, &tf); err != nil {
		fmt.Fprintln(os.Stderr, "mummi-bench:", err)
		os.Exit(1)
	}
}

func run(exp string, scale float64, seed int64, full bool, workers, wmInstances int, jsonOut bool, faultSpec, traceIn string, tf *telemetry.Flags) error {
	valid := map[string]bool{"all": true, "table1": true, "fig3": true,
		"fig4": true, "fig5": true, "fig6": true, "counts": true,
		"fig7": true, "fig8": true, "fluxfix": true, "taridx": true,
		"feedback12x": true, "ml165x": true, "bundling": true, "inventory": true}
	want := map[string]bool{}
	for _, e := range strings.Split(exp, ",") {
		name := strings.TrimSpace(e)
		if !valid[name] {
			return fmt.Errorf("unknown experiment %q (see -exp in -help for the list)", name)
		}
		want[name] = true
	}
	all := want["all"]

	rep := benchfmt.New(scale, seed, full, workers)
	section := func(name, body string) {
		if !jsonOut {
			fmt.Printf("== %s ==\n%s\n", name, body)
		}
	}
	record := rep.Record

	needCampaign := all || want["table1"] || want["fig3"] || want["fig4"] ||
		want["fig5"] || want["fig6"] || want["counts"]
	// The observability flags attach to the shared campaign replay, so a
	// perf-trajectory run can ship a trace/metrics artifact alongside its
	// BENCH_*.json.
	tel, srv, err := tf.Build()
	if err != nil {
		return err
	}
	defer func() {
		if err := tf.Finish(tel, srv); err != nil {
			fmt.Fprintln(os.Stderr, "mummi-bench:", err)
		}
	}()

	var res *campaign.Result
	if needCampaign {
		var cfg campaign.Config
		if traceIn != "" {
			if faultSpec != "" {
				return fmt.Errorf("-trace-in carries its own fault plan; drop -faults")
			}
			if wmInstances != 0 {
				return fmt.Errorf("-trace-in carries its own fleet size; drop -wm-instances")
			}
			b, err := os.ReadFile(traceIn)
			if err != nil {
				return err
			}
			t, err := trace.Parse(b)
			if err != nil {
				return fmt.Errorf("%s: %w", traceIn, err)
			}
			if cfg, err = t.Config(); err != nil {
				return err
			}
			cfg.SelectorWorkers = workers
			// The report must identify the replay it measured: the scenario's
			// seed, and scale 0 (the paper-schedule scale factor did not apply).
			rep.Scale, rep.Seed = 0, cfg.Seed
			if !jsonOut {
				fmt.Printf("campaign replay from scenario %s (%s)\n", t.Name, t.Description)
			}
		} else {
			feedbackEvery := time.Duration(0)
			if faultSpec != "" {
				// Store faults need feedback I/O to have something to hit.
				feedbackEvery = 30 * time.Minute
			}
			opts := campaign.Options{
				Scale: scale, Seed: seed, Workers: workers,
				FeedbackEvery: feedbackEvery, FaultSpec: faultSpec,
				WMInstances: wmInstances,
			}
			var err error
			if cfg, err = opts.Build(); err != nil {
				return err
			}
		}
		// Fleet replays need a live registry even when no -metrics/-trace
		// flag asked for one: the fleet section below reads the lease
		// renew-age histogram back out of it.
		if cfg.WMInstances > 1 && tel == nil {
			tel = telemetry.New(telemetry.Options{})
		}
		cfg.Telemetry = tel
		if tf.HeartbeatEvery > 0 {
			cfg.HeartbeatEvery = tf.HeartbeatEvery
			cfg.HeartbeatWriter = os.Stderr
		}
		start := time.Now()
		if !jsonOut && traceIn == "" {
			fmt.Printf("== campaign replay (scale %.2f) ==\n", scale)
		}
		// Allocation stats bracket the replay so GC-pressure wins show up in
		// the trajectory, not just wall-clock. A GC cycle first gives the
		// deltas a clean epoch.
		runtime.GC()
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		var err error
		res, err = campaign.Run(cfg)
		if err != nil {
			return err
		}
		replayWall := time.Since(start)
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		if !jsonOut {
			fmt.Printf("replayed %d runs, %v, in %v (%d matcher visits, %.1f MB allocated, %d GCs)\n\n",
				res.RunsDone, res.TotalNodeHours, replayWall.Round(time.Millisecond),
				res.MatcherVisits,
				float64(msAfter.TotalAlloc-msBefore.TotalAlloc)/(1<<20),
				msAfter.NumGC-msBefore.NumGC)
		}
		allocBytes := float64(msAfter.TotalAlloc - msBefore.TotalAlloc)
		allocObjs := float64(msAfter.Mallocs - msBefore.Mallocs)
		record("campaign", map[string]float64{
			"runs_done":       float64(res.RunsDone),
			"node_hours":      float64(res.TotalNodeHours),
			"matcher_visits":  float64(res.MatcherVisits),
			"replay_wall_sec": replayWall.Seconds(),
			// alloc_* metrics are machine- and GC-schedule-dependent;
			// bench-diff treats them like timings, never exact-matched.
			"alloc_bytes":           allocBytes,
			"alloc_objects":         allocObjs,
			"alloc_bytes_per_run":   allocBytes / float64(res.RunsDone),
			"alloc_objects_per_run": allocObjs / float64(res.RunsDone),
			"alloc_gc_cycles":       float64(msAfter.NumGC - msBefore.NumGC),
		})
		if cfg.Faults != nil {
			if !jsonOut {
				fmt.Printf("chaos: %d node crashes, %d job hangs, %d wm restarts, %d store put errors, %d anomalies\n\n",
					res.NodeCrashes, res.JobHangs, res.WMRestarts, res.StorePutErrors, len(res.Anomalies))
			}
			record("chaos", map[string]float64{
				"node_crashes":     float64(res.NodeCrashes),
				"job_hangs":        float64(res.JobHangs),
				"wm_restarts":      float64(res.WMRestarts),
				"store_put_errors": float64(res.StorePutErrors),
				"anomalies":        float64(len(res.Anomalies)),
			})
		}
		if cfg.WMInstances > 1 {
			reg := tel.Registry()
			m := map[string]float64{
				"wm_instances":            float64(cfg.WMInstances),
				"wm_crashes":              float64(res.WMCrashes),
				"wm_adoptions_total":      float64(res.WMAdoptions),
				"lease_expirations_total": float64(res.LeaseExpirations),
				"lease_renewals_total":    float64(reg.Counter("wmfleet.lease_renewals_total").Value()),
			}
			// Renew-age histogram summary: how far into their TTL leases
			// were when renewed (virtual time, so deterministic per seed).
			for _, h := range reg.Snapshot().Histograms {
				if h.Name != "wmfleet.lease_renew_age_ms" || h.Count == 0 {
					continue
				}
				m["lease_renew_age_count"] = float64(h.Count)
				m["lease_renew_age_mean_ms"] = h.Sum / float64(h.Count)
				m["lease_renew_age_min_ms"] = h.Min
				m["lease_renew_age_max_ms"] = h.Max
			}
			if !jsonOut {
				fmt.Printf("fleet: %d wm instances, %d crashes, %d adoptions, %d lease expirations\n\n",
					cfg.WMInstances, res.WMCrashes, res.WMAdoptions, res.LeaseExpirations)
			}
			record("fleet", m)
		}
	}

	if all || want["table1"] {
		section("Table 1: runs at different computational scales", res.Table1Text())
		record("table1", map[string]float64{
			"runs_done":  float64(res.RunsDone),
			"node_hours": float64(res.TotalNodeHours),
		})
	}
	if all || want["fig3"] {
		section("Figure 3: simulation length distributions", res.Fig3Text())
		record("fig3", map[string]float64{
			"cg_sims":    float64(len(res.CGLengthsUs)),
			"aa_sims":    float64(len(res.AALengthsNs)),
			"cg_mean_us": mean(res.CGLengthsUs),
			"aa_mean_ns": mean(res.AALengthsNs),
		})
	}
	if all || want["fig4"] {
		section("Figure 4: per-scale simulation performance", res.Fig4Text())
		var cg, aa float64
		for _, s := range res.CGPerf {
			cg += s.PerDay
		}
		for _, s := range res.AAPerf {
			aa += s.PerDay
		}
		m := map[string]float64{}
		if len(res.CGPerf) > 0 {
			m["cg_us_per_day"] = cg / float64(len(res.CGPerf))
		}
		if len(res.AAPerf) > 0 {
			m["aa_ns_per_day"] = aa / float64(len(res.AAPerf))
		}
		record("fig4", m)
	}
	if all || want["fig5"] {
		section("Figure 5: resource occupancy", res.Fig5Text())
		record("fig5", map[string]float64{
			"gpu_mean_pct":     res.GPUMeanPct,
			"gpu_ge98_pct":     res.GPUAtLeast98Frac * 100,
			"cpu_mean_pct":     res.CPUMeanPct,
			"gpu_median_pct":   res.GPUMedianPct,
			"cpu_median_pct":   res.CPUMedianPct,
			"profile_events_n": float64(len(res.ProfileEvents)),
		})
	}
	if all || want["fig6"] {
		section("Figure 6: job scheduling history", res.Fig6Text())
		record("fig6", map[string]float64{
			"timeline_1000_n": float64(len(res.Timeline1000)),
			"timeline_4000_n": float64(len(res.Timeline4000)),
		})
	}
	if all || want["counts"] {
		section("§5.1 campaign counts", res.CountsText())
		record("counts", map[string]float64{
			"snapshots":           float64(res.Snapshots),
			"patches":             float64(res.Patches),
			"cg_selected":         float64(res.CGSelected),
			"cg_frame_candidates": float64(res.CGFrameCandidates),
			"aa_selected":         float64(res.AASelected),
			"files":               float64(res.Files),
		})
	}

	if all || want["fig7"] {
		counts := []int{1000, 5000, 10000, 20000, 40000, 70000}
		nodes := 8
		if full {
			nodes = 20 // the paper's Redis cluster size
		}
		rows, err := campaign.Fig7KVQueries(counts, nodes, 850)
		if err != nil {
			return err
		}
		section("Figure 7: in-memory DB feedback queries", campaign.Fig7Text(rows))
		last := rows[len(rows)-1]
		record("fig7", map[string]float64{
			"frames":       float64(last.Frames),
			"keys_per_sec": float64(last.Frames) / last.RetrieveKeys.Seconds(),
			"vals_per_sec": float64(last.Frames) / last.RetrieveValues.Seconds(),
			"dels_per_sec": float64(last.Frames) / last.Delete.Seconds(),
		})
	}
	if all || want["fig8"] {
		r := campaign.Fig8AAFeedback(2000, 6, 2*time.Second, seed)
		section("Figure 8: AA-to-CG feedback latency", campaign.Fig8Text(r))
		record("fig8", map[string]float64{
			"iterations":        float64(len(r.Rows)),
			"within_target_pct": r.WithinTarget * 100,
		})
	}
	if all || want["fluxfix"] {
		nodes, jobs := 1000, 6000
		if full {
			nodes, jobs = 4000, 24000
		}
		r, err := campaign.FluxFix670(nodes, jobs)
		if err != nil {
			return err
		}
		section("Flux fix: first-match vs exhaustive matching", campaign.FluxFixText(r))
		record("fluxfix", map[string]float64{
			"exhaustive_visits":    float64(r.ExhaustiveVisits),
			"first_match_visits":   float64(r.FirstMatchVisits),
			"visit_ratio":          r.VisitRatio(),
			"exhaustive_wall_sec":  r.ExhaustiveWall.Seconds(),
			"first_match_wall_sec": r.FirstMatchWall.Seconds(),
		})
	}
	if all || want["taridx"] {
		files := 2000
		if full {
			files = 20000
		}
		dir, err := os.MkdirTemp("", "mummi-taridx")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		r, err := campaign.TaridxThroughput(dir, files, 156_000)
		if err != nil {
			return err
		}
		section("§5.2 taridx throughput", campaign.TaridxText(r))
		record("taridx", map[string]float64{
			"files":          float64(r.Files),
			"inodes":         float64(r.Inodes),
			"files_per_sec":  r.FilesPerSec(),
			"mb_per_sec":     r.MBPerSec(),
			"write_wall_sec": r.WriteWall.Seconds(),
			"read_wall_sec":  r.ReadWall.Seconds(),
		})
	}
	if all || want["feedback12x"] {
		frames := 5000
		if full {
			frames = 20000
		}
		dir, err := os.MkdirTemp("", "mummi-fb")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		r, err := campaign.Feedback12x(dir, frames)
		if err != nil {
			return err
		}
		section("§4.2 feedback backends (the >12x claim)", campaign.FeedbackText(r))
		record("feedback12x", map[string]float64{
			"frames":      float64(r.Frames),
			"fs_wall_sec": r.FSTime.Seconds(),
			"kv_wall_sec": r.KVTime.Seconds(),
			"speedup_x":   r.Speedup(),
		})
	}
	if all || want["ml165x"] {
		fpsQ, binned := 35000, 1_000_000
		if full {
			binned = 9_000_000 // the campaign's 9M frame candidates
		}
		r, err := campaign.SelectorScaling(fpsQ, binned, workers, seed)
		if err != nil {
			return err
		}
		section("§4.4 selector scaling (the 165x claim)", campaign.SelectorText(r))
		record("ml165x", map[string]float64{
			"fps_queue":          float64(r.FPSQueue),
			"fps_refresh_sec":    r.FPSUpdateTime.Seconds(),
			"binned_n":           float64(r.BinnedN),
			"binned_add_sec":     float64(r.BinnedAddTime.Seconds()),
			"binned_select_sec":  r.BinnedSelTime.Seconds(),
			"binned_madds_per_s": float64(r.BinnedN) / r.BinnedAddTime.Seconds() / 1e6,
			"candidate_ratio":    r.CandidateRatio,
		})
	}
	if all || want["bundling"] {
		r, err := campaign.BundlingAblation(16, 4, seed)
		if err != nil {
			return err
		}
		section("§4.3 bundling ablation", campaign.BundlingText(r))
		record("bundling", map[string]float64{
			"bundled_util_pct":       r.BundledUtilization * 100,
			"unbundled_util_pct":     r.UnbundledUtil * 100,
			"bundled_makespan_sec":   r.BundledMakespan.Seconds(),
			"unbundled_makespan_sec": r.UnbundledMakespan.Seconds(),
		})
	}
	if all || want["inventory"] {
		fractions := []float64{0.02, 0.1, 0.25, 0.5, 1.0}
		rows, err := campaign.InventoryAblation(fractions, seed)
		if err != nil {
			return err
		}
		section("§4.4 inventory ablation (readiness vs staleness)", campaign.InventoryText(rows))
		m := map[string]float64{}
		for _, row := range rows {
			m[fmt.Sprintf("gpu_mean_pct_at_%.2f", row.Fraction)] = row.GPUMeanPct
			m[fmt.Sprintf("cpu_mean_pct_at_%.2f", row.Fraction)] = row.CPUMeanPct
		}
		record("inventory", m)
	}

	if jsonOut {
		b, err := rep.Marshal()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
