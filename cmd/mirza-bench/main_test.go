package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"mirza/internal/dram"
	"mirza/internal/experiments"
)

// TestScaleWindows: a zero window flag keeps the default, any other value
// overrides it, and degenerate values are errors naming the flag (the
// command exits 2 on them instead of running at the defaults).
func TestScaleWindows(t *testing.T) {
	def := experiments.DefaultOptions().Quick()
	cases := []struct {
		measure, warmup float64
		windows         int
		want            string // flag named by the error, "" = valid
		check           func(experiments.Options) bool
	}{
		{0, 0, 0, "", func(o experiments.Options) bool {
			return o.Measure == def.Measure && o.Warmup == def.Warmup && o.ReplayWindows == def.ReplayWindows
		}},
		{1.5, 0.25, 3, "", func(o experiments.Options) bool {
			return o.Measure == 1500*dram.Microsecond && o.Warmup == 250*dram.Microsecond && o.ReplayWindows == 3
		}},
		{math.Inf(1), 0, 0, "-measure-ms", nil},
		{-1, 0, 0, "-measure-ms", nil},
		{math.NaN(), 0, 0, "-measure-ms", nil},
		{0, -1, 0, "-warmup-ms", nil},
		{0, math.Inf(1), 0, "-warmup-ms", nil},
		{0, 0, 1, "-replay-windows", nil},
		{0, 0, -2, "-replay-windows", nil},
	}
	for _, tc := range cases {
		got, err := scaleWindows(def, tc.measure, tc.warmup, tc.windows)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("(%v, %v, %d): unexpected error %v", tc.measure, tc.warmup, tc.windows, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("(%v, %v, %d): err = %v, want an error naming %s", tc.measure, tc.warmup, tc.windows, err, tc.want)
		case tc.check != nil && !tc.check(got):
			t.Errorf("(%v, %v, %d): options %+v", tc.measure, tc.warmup, tc.windows, got)
		}
	}
}

// TestTookLine: an experiment served from a Runner memo (Fig 6 after Table
// 4, busy for milliseconds) gets no speedup estimate, an ordinary one does,
// and both keep the job count and busy time.
func TestTookLine(t *testing.T) {
	cases := []struct {
		res    experiments.Result
		marker string
		want   string
	}{
		{experiments.Result{ID: "fig6", Duration: 40 * time.Millisecond, Jobs: 3, Busy: 12 * time.Millisecond}, "",
			"(fig6 took 0.0s; 3 jobs, 0.0s busy)"},
		{experiments.Result{ID: "table8", Duration: 6 * time.Second, Jobs: 3, Busy: 11 * time.Second}, "",
			"(table8 took 6.0s; 3 jobs, 11.0s busy, est speedup 1.8x vs -j 1)"},
		{experiments.Result{ID: "fig3", Duration: 2 * time.Second, Jobs: 4, Busy: 3 * time.Second}, " [DEGRADED: reduced fidelity]",
			"(fig3 took 2.0s [DEGRADED: reduced fidelity]; 4 jobs, 3.0s busy, est speedup 1.5x vs -j 1)"},
		{experiments.Result{ID: "table7", Duration: 300 * time.Millisecond}, "",
			"(table7 took 0.3s)"},
	}
	for _, tc := range cases {
		if got := tookLine(tc.res, tc.marker); got != tc.want {
			t.Errorf("tookLine(%s) = %q, want %q", tc.res.ID, got, tc.want)
		}
	}
}
