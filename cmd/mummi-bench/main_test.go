package main

import (
	"strings"
	"testing"

	"mummi/internal/telemetry"
)

// TestTraceInRefusesCampaignFlags checks that a -trace-in replay rejects
// the campaign flags the trace already fixes, instead of silently
// replaying the trace's own fault plan or fleet size.
func TestTraceInRefusesCampaignFlags(t *testing.T) {
	const scenario = "../../scenarios/laptop-smoke.trace.json"
	for _, tc := range []struct {
		flag        string
		faults      string
		wmInstances int
	}{
		{flag: "-faults", faults: "node-crash:8/day"},
		{flag: "-wm-instances", wmInstances: 3},
		{flag: "-wm-instances", wmInstances: 1},
	} {
		err := run("counts", 0.25, 1, false, 0, tc.wmInstances, true, tc.faults, scenario, &telemetry.Flags{})
		if err == nil || !strings.Contains(err.Error(), "drop "+tc.flag) {
			t.Errorf("%s with -trace-in: err = %v, want a refusal naming %s", tc.flag, err, tc.flag)
		}
	}
}
